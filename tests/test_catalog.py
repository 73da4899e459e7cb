"""Builtin catalog: group builders, product resolution, contexts, datasets."""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charcond.catalog import Catalog, default_catalog
from charcond.characters import character_table
from charcond.errors import InvalidData, TooLarge
from charcond.groups import is_abelian, is_normal, normal_subgroups


@pytest.fixture(scope="module")
def cat():
    return Catalog()


def test_every_builtin_validates(cat):
    # construction already runs full axiom validation; just touch them all
    for name in cat.base_names():
        g = cat.group(name)
        assert g.order >= 1
        assert g.name == name


# sha256 of every base group (name, order, labels and table) and of the
# three contexts, recorded while each name and range was listed twice
_BASE_DIGEST = (
    "96687633d62f25c47f1d1f6ca07fb4bb86a38568c96e19c03513411a602c6413")
_CONTEXT_DIGEST = (
    "7459b4c8359353a65e04a59e934f6b24c30d513d91748aee3044f07c8cb86ac4")


def test_base_groups_match_their_recorded_digest():
    cat = Catalog()
    h = hashlib.sha256()
    for name in cat.base_names():
        g = cat.group(name)
        h.update(json.dumps([name, g.name, g.order, g.labels]).encode())
        h.update(g.mul.astype(np.int64).tobytes())
    assert h.hexdigest() == _BASE_DIGEST


def test_contexts_match_their_recorded_digest():
    cat = Catalog()
    records = []
    for name in cat.context_names():
        ctx = cat.context(name)
        records.append([
            name, ctx.name, ctx.group.name, ctx.disc, ctx.labels,
            [[f.prime, f.residue_norm, [s.order for s in f.groups]]
             for f in ctx.filtrations]])
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == _CONTEXT_DIGEST


@pytest.mark.parametrize("alias, name", [("C024", "C24"), ("d08", "D8"),
                                         ("q08xs3", "Q8xS3"), ("S01", "S1")])
def test_leading_zero_digits_resolve_to_the_named_group(alias, name):
    got, want = Catalog().group(alias), Catalog().group(name)
    assert (got.name, got.labels) == (want.name, want.labels)
    assert np.array_equal(got.mul, want.mul)


def test_expected_orders(cat):
    assert cat.group("C24").order == 24
    assert cat.group("D12").order == 24
    assert cat.group("D2").order == 4
    assert cat.group("S4").order == 24
    assert cat.group("Q8").order == 8


def test_group_structure_spot_checks(cat):
    assert is_abelian(cat.group("C12"))
    assert is_abelian(cat.group("D2"))
    assert not is_abelian(cat.group("D4"))
    assert not is_abelian(cat.group("Q8"))
    q8 = cat.group("Q8")
    assert sorted(character_table(q8).degrees()) == [1, 1, 1, 1, 2]
    # every subgroup of Q8 is normal
    for s in normal_subgroups(q8):
        assert is_normal(q8, s)
    assert len(normal_subgroups(q8)) == 6
    s4 = cat.group("S4")
    assert [s.order for s in normal_subgroups(s4)] == [1, 4, 12, 24]


def test_name_resolution_case_insensitive(cat):
    assert cat.group("c6") is cat.group("C6")
    assert cat.group("s3xs3").order == 36


def test_products_on_demand(cat):
    p = cat.group("S3xS3xS3")
    assert p.order == 216
    assert cat.group("C2xC3").order == 6
    with pytest.raises(TooLarge):
        cat.group("S4xS4")
    # names outside the registry, and names with an empty factor
    for name in ("E8", "C25", "S0", "S5", "C0", "D1", "D13", "Q4", "Q16",
                 "C\u00b2", "C+5", "C-5", "x", "C2x", "xC3", "C2xx", "", " "):
        with pytest.raises(InvalidData, match="unknown catalog group"):
            cat.group(name)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="CDSQxX0123456789 ", max_size=12))
def test_any_name_resolves_or_fails_as_bad_input(name):
    try:
        g = Catalog().group(name)
    except (InvalidData, TooLarge):
        return
    assert g.order >= 1


def test_groups_up_to(cat):
    pairs = cat.groups_up_to(8)
    names = [n for n, _ in pairs]
    assert names[0] == "C1" or names[0] == "S1"
    orders = [g.order for _, g in pairs]
    assert orders == sorted(orders)
    assert all(o <= 8 for o in orders)
    assert "Q8" in names and "D4" in names and "C8" in names


def test_contexts(cat):
    ctx = cat.context("quintic11")
    assert ctx.disc == 14641
    assert ctx.group.order == 5
    assert ctx.filtrations[0].prime == 11
    assert cat.context("gauss").disc == 4
    assert cat.context("quad-m23").disc == 23
    with pytest.raises(InvalidData):
        cat.context("septic")


def test_context_resolution_falls_back_to_files(cat, tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text('{"group": [[0, 1], [1, 0]], '
                    '"primes": [{"p": 3, "filtration": [[0, 1]]}]}')
    ctx = cat.resolve_context(str(path))
    assert ctx.group.order == 2
    with pytest.raises(InvalidData):
        cat.resolve_context("no-such-context")


def test_bound_dataset(cat):
    d = cat.bound_dataset("martinet-constants")
    assert d["disc"] == 14641
    assert d["T"] == Fraction(2 ** 15 * 23)
    assert d["ramified_primes"] == [2, 11, 23]
    b = cat.bound_inputs("martinet-constants")
    assert b.disc * b.T == 11034394624
    with pytest.raises(InvalidData):
        cat.bound_dataset("unknown")


def test_default_catalog_is_shared():
    assert default_catalog() is default_catalog()
