"""Each failure search names the exact position it names today.

A check that fails reports one position: the first in row-major order for
`_check_table`'s orthogonality, Light's associativity test and
`_multiplicities`, the last in loop order for `verify._last_failure` and
`_NormalPair.frobenius`.  Each test feeds a broken input with several
failures, placed so that any other order would name another one, and
asserts the whole message.
"""

import copy

import numpy as np
import pytest

from charcond import characters, clifford, groups, verify
from charcond.catalog import Catalog
from charcond.characters import CharacterTable, character_table
from charcond.errors import InternalContradiction, NotACharacter, NotAGroup
from charcond.groups import normal_subgroups


@pytest.mark.parametrize("name", ["S4", "D4", "C12"])
def test_column_orthogonality_names_its_first_failure_in_row_major_order(
        monkeypatch, name):
    # over F_p the row relation implies the column one (|G| and the class
    # sizes are units there), so a table that passes the rows passes the
    # columns; the column Gram of the first prime is skewed at (1, 3) and
    # (2, 0), of which the row-major order meets (1, 3) first
    g = Catalog().group(name)
    real, calls = characters._matmul_mod, []

    def skewed(a, b, p):
        out = real(a, b, p)
        calls.append(p)
        if len(calls) == 2:
            out = out.copy()
            out[1, 3] += 1
            out[2, 0] += 1
        return out

    monkeypatch.setattr(characters, "_matmul_mod", skewed)
    with pytest.raises(InternalContradiction) as exc:
        CharacterTable(g, character_table(g).nums.copy()).validate()
    assert str(exc.value) == "column orthogonality fails at (1, 3)"
    assert len(calls) == 2


# a loop of order 5 that is not associative: Light's first s is 1, and the
# triples (x, 1, y) that fail are, in row-major order, (1, 2), (1, 3),
# (1, 4), (2, 1), ...; a search by columns would meet (2, 1) first
_LOOP = np.array([[0, 1, 2, 3, 4],
                  [1, 0, 3, 4, 2],
                  [2, 4, 0, 1, 3],
                  [3, 2, 4, 0, 1],
                  [4, 3, 1, 2, 0]])


@pytest.mark.parametrize("block", [1 << 20, 15, 10, 5])
def test_light_names_the_first_failing_triple_in_row_major_order(
        monkeypatch, block):
    # blocks of 5 (one block), 3, 2 and 1 rows: the row is named by its
    # block's first row plus its place in the block
    monkeypatch.setattr(groups, "_CLOSURE_BLOCK", block)
    with pytest.raises(NotAGroup) as exc:
        groups._validate_table(_LOOP)
    assert str(exc.value) == "associativity fails at (1, 1, 2)"


def test_multiplicities_names_the_first_bad_value_in_row_major_order():
    # Gram numerators at e = 4 over 2: 5/2 at (0, 2), i/2 at (1, 0) and
    # -2 at (1, 2); by columns (1, 0) would come first
    got = np.zeros((2, 3, 2), dtype=np.int64)
    got[..., 0] = 4
    got[0, 2], got[1, 0], got[1, 2] = [5, 0], [0, 1], [-4, 0]
    with pytest.raises(NotACharacter) as exc:
        characters._multiplicities(got, 4, 2)
    assert str(exc.value) == (
        "multiplicity of row 2 is 5/2, not a nonnegative integer")
    got[0, 2] = [4, 0]
    with pytest.raises(NotACharacter) as exc:
        characters._multiplicities(got, 4, 2)
    assert str(exc.value) == (
        "multiplicity of row 0 is 1/2*z4, not a nonnegative integer")
    got[1, 0] = [4, 0]
    with pytest.raises(NotACharacter) as exc:
        characters._multiplicities(got, 4, 2)
    assert str(exc.value) == (
        "multiplicity of row 2 is -2, not a nonnegative integer")
    got[1, 2] = [4, 0]
    assert characters._multiplicities(got, 4, 2).tolist() == [[2] * 3] * 2


_TEXTS = [lambda i: f"first check fails at {i}",
          lambda i: f"second check fails at {i}"]


@pytest.mark.parametrize("fails, want", [
    # items outside, checks inside: item 2's second check is the last
    ([[1, 0, 1, 0], [0, 1, 1, 0]], "second check fails at 2"),
    # the last item that fails wins over a later check of an earlier item
    ([[0, 0, 1], [1, 0, 0]], "first check fails at 2"),
    ([[0, 1, 0], [0, 1, 0]], "second check fails at 1"),
    ([[0, 0, 0], [0, 0, 0]], ""),
])
def test_last_failure_is_the_last_in_loop_order(fails, want):
    got = verify._last_failure([np.array(f, dtype=bool) for f in fails],
                               _TEXTS)
    assert got == want


def test_frobenius_names_the_last_failing_theta_and_row():
    # S4 over A4: <Ind theta_i, chi_r> is broken at (i, r) = (0, 1), (1, 2)
    # and (0, 3); the last in row-major (i, r) order is (1, 2), where a
    # search by rows would end at (0, 3)
    g = Catalog().group("S4")
    built = clifford._pair(next(s for s in normal_subgroups(g)
                                if s.index == 2))
    assert built.frobenius() == ""
    # a copy of the group's pairs with its own ind_gram[r, j], over the rows
    # r of G and the rows j of every H, and no reciprocity verdict yet
    pairs = copy.copy(built.pairs)
    pairs.__dict__.pop("reciprocity")
    pairs.ind_gram = pairs.ind_gram.copy()
    pairs.ind_gram[1, built.lo + 0, 0] += 1
    pairs.ind_gram[2, built.lo + 1, 0] += g.order
    pairs.ind_gram[3, built.lo + 0, 0] += 1
    got = clifford._NormalPair(pairs, built.i).frobenius()
    assert got == "<Ind t1, x2> = 13/12 != 1"
