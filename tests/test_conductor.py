"""Conductor exponents, conductor ideals, radical values, and bounds.

Hand evaluations of the exponent formula are spelled out next to each case;
decimal strings were frozen from a 30-digit mpmath computation and the oracle
comparison is re-run in-test.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charcond.arith import PRIME_TEST_BOUND, is_prime
from charcond.bounds import MAX_DECIMAL_DIGITS, _exceeds
from charcond import characters
from charcond.catalog import Catalog
from charcond.characters import ClassFunction, character_table, induce
from charcond.conductor import (BoundInputs, FactoredConductor, GaloisContext,
                                RadicalValue, RamificationFiltration,
                                artin_conductor, bound_induced_case,
                                bound_restricted_case, conductor_exponent,
                                conductor_exponents, conductors,
                                factor_integer, global_constant,
                                induced_conductor_norm, load_context,
                                parse_context_dict, root_conductor,
                                unramified_triviality,
                                verify_conductor_discriminant, _class_counts)
from charcond.cyclotomic import Cyclotomic, cyclo_sum, values
from charcond.errors import CharcondError, InvalidData, NonIntegralExponent
from charcond.groups import (build_from_permutations, conjugacy_classes,
                             full_subgroup, generated_subgroup,
                             normal_subgroups, trivial_subgroup)
from decimal_oracle import reference_decimal


def c_n(n, name=None):
    return build_from_permutations(n, [tuple((i + 1) % n for i in range(n))],
                                   name=name or f"C{n}")


def quad23_context():
    g = c_n(2, "C2")
    filt = RamificationFiltration(23, 23, (full_subgroup(g),))
    return g, GaloisContext(g, (filt,), name="quad-m23", disc=23)


def gauss_context():
    g = c_n(2, "C2")
    full = full_subgroup(g)
    filt = RamificationFiltration(2, 2, (full, full))
    return g, GaloisContext(g, (filt,), name="gauss", disc=4)


def quintic_context():
    g = c_n(5, "C5")
    filt = RamificationFiltration(11, 11, (full_subgroup(g),))
    return g, GaloisContext(g, (filt,), name="quintic11", disc=14641)


def test_unramified_prime_gives_zero():
    g, _ = quad23_context()
    empty = RamificationFiltration(5, 5, ())
    for chi in character_table(g):
        assert conductor_exponent(chi, empty) == 0


def test_tame_quadratic_hand_value():
    # sign character, G_0 = C2 tame: (1/2)(2*1 - 0) = 1
    g, ctx = quad23_context()
    t = character_table(g)
    sign = t[1]
    assert conductor_exponent(sign, ctx.filtrations[0]) == 1
    assert conductor_exponent(t[0], ctx.filtrations[0]) == 0
    fc = artin_conductor(sign, ctx)
    assert fc.exponents == {23: 1} and fc.norm == 23
    assert verify_conductor_discriminant(ctx, t, 23)


def test_wild_quadratic_hand_value():
    # sign character, G_0 = G_1 = C2: (1/2)((2-0) + (2-0)) = 2
    g, ctx = gauss_context()
    t = character_table(g)
    sign = t[1]
    assert conductor_exponent(sign, ctx.filtrations[0]) == 2
    assert artin_conductor(sign, ctx).norm == 4
    assert verify_conductor_discriminant(ctx, t, 4)
    assert not verify_conductor_discriminant(ctx, t, 8)


def test_quintic_tame_values_and_product():
    # each nontrivial linear character: (1/5)(5*1 - 0) = 1, and the product of
    # all conductor norms is 11^4 = 14641
    g, ctx = quintic_context()
    t = character_table(g)
    norms = [artin_conductor(chi, ctx).norm for chi in t]
    assert sorted(norms) == [1, 11, 11, 11, 11]
    prod = 1
    for chi, n in zip(t, norms):
        prod *= n ** chi.degree
    assert prod == 14641 == 11 ** 4
    assert verify_conductor_discriminant(ctx, t, 14641)
    assert not verify_conductor_discriminant(ctx, t, 11 ** 3)


def test_trivial_character_has_trivial_conductor():
    g, ctx = quintic_context()
    t = character_table(g)
    fc = artin_conductor(t[0], ctx)
    assert fc.exponents == {} and fc.norm == 1
    assert str(fc) == "(1)"


def test_truncation_soundness():
    g, ctx = gauss_context()
    t = character_table(g)
    filt = ctx.filtrations[0]
    padded = RamificationFiltration(
        filt.prime, filt.residue_norm,
        filt.groups + (trivial_subgroup(g), trivial_subgroup(g)))
    for chi in t:
        assert conductor_exponent(chi, filt) == conductor_exponent(chi, padded)


def test_exponent_additivity():
    g, ctx = quintic_context()
    t = character_table(g)
    filt = ctx.filtrations[0]
    phi = t[1] + t[2].scale(3)
    psi = t[0] + t[3]
    assert conductor_exponent(phi + psi, filt) == \
        conductor_exponent(phi, filt) + conductor_exponent(psi, filt)


def test_non_integral_exponent_signals_bad_data():
    # a descending "filtration" whose second term is a non-normal order-2
    # subgroup of S3 breaks integrality for the sign character: (6 + 2)/6
    g = build_from_permutations(3, [(1, 0, 2), (1, 2, 0)], name="S3")
    t = character_table(g)
    bad = RamificationFiltration(7, 7,
                                 (full_subgroup(g), generated_subgroup(g, [1])))
    with pytest.raises(NonIntegralExponent):
        conductor_exponent(t[1], bad)


def test_filtration_validation():
    g = c_n(2)
    full = full_subgroup(g)
    with pytest.raises(InvalidData):
        RamificationFiltration(4, 4, (full,))       # 4 is not prime
    with pytest.raises(InvalidData):
        RamificationFiltration(2, 6, (full,))       # 6 is not a power of 2
    with pytest.raises(InvalidData):
        RamificationFiltration(2, 0, (full,))       # 0 is not a power of 2
    with pytest.raises(InvalidData, match="residue norm 1 is not a power of 2"):
        RamificationFiltration(2, 1, (full,))       # 2^0: no residue field
    with pytest.raises(InvalidData):
        RamificationFiltration(2, 2, (trivial_subgroup(g),))  # trivial G_0
    with pytest.raises(InvalidData):
        RamificationFiltration(2, 2, (trivial_subgroup(g), full))  # ascending
    with pytest.raises(InvalidData):
        GaloisContext(g, (RamificationFiltration(2, 2, (full,)),
                          RamificationFiltration(2, 2, (full,))))


def test_primes_beyond_the_exact_test_fail_fast():
    g = c_n(2)
    full = full_subgroup(g)
    big = 1000000000000000003   # prime, and far beyond trial division
    assert RamificationFiltration(big, big, (full,)).prime == big
    for p in (PRIME_TEST_BOUND, 2 ** 89 - 1):
        with pytest.raises(InvalidData, match="exact-test bound"):
            RamificationFiltration(p, p, (full,))
        with pytest.raises(InvalidData, match="exact-test bound"):
            parse_context_dict({"group": [[0, 1], [1, 0]],
                                "primes": [{"p": p, "filtration": [[0, 1]]}]})
    with pytest.raises(InvalidData):
        BoundInputs(disc=5, q=2 ** 89 - 1, theta_degree=1, norm_f_theta=1)


def test_unramified_triviality():
    g = c_n(2)
    ctx = GaloisContext(g, ())
    assert unramified_triviality(ctx)
    for chi in character_table(g):
        assert artin_conductor(chi, ctx).norm == 1
    _, ram = gauss_context()
    assert not unramified_triviality(ram)
    mixed = GaloisContext(g, (RamificationFiltration(3, 3, ()),
                              RamificationFiltration(2, 2, (full_subgroup(g),))))
    assert not unramified_triviality(mixed)


def test_induced_conductor_norm():
    assert induced_conductor_norm(1, 1, 11 ** 4) == 14641
    assert induced_conductor_norm(1, 23, 1) == 23
    assert induced_conductor_norm(2, 1, 4) == 16
    with pytest.raises(InvalidData):
        induced_conductor_norm(0, 1, 1)


def test_induced_from_trivial_subgroup_matches_closed_form():
    # Ind from the trivial subgroup of the trivial character is the regular
    # character; its conductor norm must equal disc^1 * 1 for each context
    for ctx_fn in (quad23_context, gauss_context, quintic_context):
        g, ctx = ctx_fn()
        triv = trivial_subgroup(g)
        theta = character_table(triv.as_group())[0]
        reg = induce(theta, triv)
        assert reg.at_identity() == g.order
        got = artin_conductor(reg, ctx).norm
        assert got == induced_conductor_norm(1, 1, ctx.disc)


def test_root_conductor_radicals():
    fc = FactoredConductor([(11, 4, 11)])
    r = root_conductor(fc, 5)
    assert r.as_power_triple() == (11, 4, 5)
    assert root_conductor(FactoredConductor([]), 3) == RadicalValue.one()
    assert root_conductor(FactoredConductor([(23, 1, 23)]), 1) \
        .as_fraction() == 23


def test_power_triples_of_negative_exponents_are_exact():
    cube = RadicalValue({2: Fraction(1, 3), 3: Fraction(-2, 3)})
    for r, want in ((RadicalValue({2: -1}), (Fraction(1, 2), 1, 1)),
                    (RadicalValue({2: 1, 3: -1}), (Fraction(2, 3), 1, 1)),
                    (cube, (Fraction(2, 9), 1, 3))):
        got = r.as_power_triple()
        assert got == want and type(got[0]) is Fraction


# primes below the trial-division limit and denominators up to 6 keep the
# base's factorization in `from_rational` to a few thousand digits
@settings(max_examples=200, deadline=None)
@given(st.dictionaries(
    st.sampled_from([2, 3, 5, 7, 11, 13, 23, 101, 1021]),
    st.fractions(min_value=-6, max_value=6, max_denominator=6), max_size=4))
def test_power_triples_rebuild_the_value_exactly(factors):
    r = RadicalValue(factors)
    base, num, den = r.as_power_triple()
    assert type(base) in (int, Fraction)
    assert type(base) is int or base.denominator > 1
    assert RadicalValue.from_rational(base) ** Fraction(num, den) == r


MPMATH_11_45 = "6.80948312752"  # 11^(4/5) to 12 significant digits


def test_root_conductor_decimal_against_mpmath():
    import mpmath
    mpmath.mp.dps = 30
    want = mpmath.nstr(mpmath.power(11, mpmath.mpf(4) / 5), 12,
                       strip_zeros=False)
    r = RadicalValue({11: Fraction(4, 5)})
    assert r.decimal(12) == MPMATH_11_45
    assert want.startswith(MPMATH_11_45[:12])


def test_decimal_rendering_policy():
    assert RadicalValue.one().decimal(12) == "1.00000000000"
    assert RadicalValue.one().decimal(1) == "1.0"
    assert RadicalValue.from_integer(4).decimal(12) == "4.00000000000"
    assert RadicalValue.from_integer(23).decimal(4) == "23.00"
    assert RadicalValue({2: Fraction(1, 2)}).decimal(12) == "1.41421356237"
    assert RadicalValue({10: 30}).decimal(3) == "1.00e+30"
    assert RadicalValue({2: Fraction(-1, 2)}).decimal(5) == "0.70711"
    # ties go to the even mantissa, and a carry moves the exponent
    assert RadicalValue.from_rational(Fraction(5, 2)).decimal(1) == "2.0"
    assert RadicalValue.from_rational(Fraction(5, 4)).decimal(2) == "1.2"
    assert (RadicalValue.from_rational(Fraction(99999995, 10 ** 7)).decimal(7)
            == "10.00000")


def test_a_decimal_at_the_cap_is_admitted():
    # 10^k at d = 1 needs digits + k = MAX_DECIMAL_DIGITS digits exactly,
    # which the float sum k log10 2 + k log10 5 puts just past the cap
    value = RadicalValue({10: MAX_DECIMAL_DIGITS - 10})
    assert value.check_decimal(10)[0] == 1
    assert value.decimal(10) == "1.000000000e+249990"


def test_a_decimal_just_over_the_cap_is_refused_fast():
    # refused with InvalidData, which the CLI reports with exit code 2
    start = time.perf_counter()
    with pytest.raises(InvalidData, match="10 digits of a root of degree 1 "
                       "need integers of 250001 digits, over the cap of 250000"):
        RadicalValue({10: MAX_DECIMAL_DIGITS - 9}).decimal(10)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("r", [0, 1, 2, 31, 32, 1000, 249_990])
def test_the_cap_decision_is_exact_around_each_power_of_ten(r):
    # 10^r itself is not over, and the next integer above it is
    assert not _exceeds([(2, r), (5, r)], r)
    assert _exceeds([(2, r), (5, r)], r - 1)
    assert _exceeds([(10 ** r + 1, 1)], r)
    assert not _exceeds([(3, 0)], 0) and not _exceeds([], 0)
    assert _exceeds([], -1)


_PRIMES = [p for p in range(2, 10008) if is_prime(p)]


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(_PRIMES),
                       st.fractions(min_value=-30, max_value=30,
                                    max_denominator=12),
                       min_size=1, max_size=3),
       st.integers(1, 30))
def test_decimal_matches_the_bisection_oracle(factors, digits):
    value = RadicalValue(factors)
    assert value.decimal(digits) == reference_decimal(value, digits)


@pytest.mark.parametrize("value, digits", [
    (RadicalValue.from_rational(Fraction(5, 2)), 1),        # tie, to even
    (RadicalValue.from_rational(Fraction(5, 4)), 2),        # tie, to even
    (RadicalValue.from_rational(Fraction(99999995, 10 ** 7)), 7),  # carry
    *((RadicalValue({10: Fraction(k, den)}), digits)
      for k in range(-12, 13) for den in (1, 7) for digits in (1, 2, 12)),
    # the float estimate of the decimal exponent is one too low for the
    # first two, and one too high for the last
    *((value, digits) for digits in (1, 3, 20) for value in (
        RadicalValue({10: -23}),
        RadicalValue.from_rational(Fraction(10 ** 20 + 6, 10 ** 20)),
        RadicalValue.from_rational(Fraction(10 ** 17 - 1, 10 ** 17)))),
])
def test_decimal_matches_the_oracle_at_ties_carries_and_powers_of_ten(
        value, digits):
    assert value.decimal(digits) == reference_decimal(value, digits)


def test_radical_value_algebra():
    a = RadicalValue({2: Fraction(3, 2)})
    b = RadicalValue({2: Fraction(1, 2)})
    assert a * b == RadicalValue.from_integer(4)
    assert (a ** 2).as_fraction() == 8
    assert RadicalValue.from_integer(14641) == RadicalValue({11: 4})
    assert RadicalValue.from_rational(Fraction(3, 4)).as_fraction() \
        == Fraction(3, 4)
    assert RadicalValue.from_integer(1).factors == ()


def test_bound_restricted_case():
    b = BoundInputs(disc=14641, q=5, theta_degree=1, norm_f_theta=1)
    rb = bound_restricted_case(b)
    assert rb.certified.as_fraction() == 14641
    assert rb.stated.as_power_triple() == (11, 4, 5)
    b2 = BoundInputs(disc=1, q=2, theta_degree=3, norm_f_theta=8)
    rb2 = bound_restricted_case(b2)
    assert rb2.certified == rb2.stated == RadicalValue({2: 1})
    b3 = BoundInputs(disc=23, q=2, theta_degree=1, norm_f_theta=1)
    rb3 = bound_restricted_case(b3)
    assert rb3.certified.as_fraction() == 23
    assert rb3.stated.as_power_triple() == (23, 1, 2)


def test_bound_induced_case():
    b = BoundInputs(disc=14641, q=5, theta_degree=1, norm_f_theta=1)
    assert bound_induced_case(b).as_power_triple() == (11, 4, 5)
    b2 = BoundInputs(disc=1, q=3, theta_degree=1, norm_f_theta=1)
    assert bound_induced_case(b2) == RadicalValue.one()
    # power bookkeeping: disc 4, q 2, theta degree 2, N = 4:
    # 4^(1/2) * 4^(1/4) = 2^(3/2)
    b3 = BoundInputs(disc=4, q=2, theta_degree=2, norm_f_theta=4)
    assert bound_induced_case(b3).as_power_triple() == (2, 3, 2)


def test_bound_inputs_validation():
    with pytest.raises(InvalidData):
        BoundInputs(disc=0, q=2, theta_degree=1, norm_f_theta=1)
    with pytest.raises(InvalidData):
        BoundInputs(disc=1, q=4, theta_degree=1, norm_f_theta=1)
    with pytest.raises(InvalidData):
        BoundInputs(disc=1, q=2, theta_degree=1, norm_f_theta=1,
                    T=Fraction(-1))


def test_global_constant():
    assert global_constant(14641, 753664) == 11034394624
    assert global_constant(1, 1) == 1
    assert global_constant(23, 2) == 46
    assert factor_integer(11034394624) == {2: 15, 11: 4, 23: 1}
    with pytest.raises(InvalidData):
        global_constant(0, 1)


def test_theorem_equality_between_raw_and_closed_form():
    # root conductor of the induced character from raw filtration data equals
    # the closed-form induced-case bound, as an exact radical identity
    g, ctx = quintic_context()
    triv = trivial_subgroup(g)
    theta = character_table(triv.as_group())[0]
    reg = induce(theta, triv)
    fc = artin_conductor(reg, ctx)
    lhs = root_conductor(fc, g.order)
    rhs = bound_induced_case(
        BoundInputs(disc=ctx.disc, q=5, theta_degree=1, norm_f_theta=1))
    assert lhs == rhs
    assert lhs.decimal(12) == rhs.decimal(12) == MPMATH_11_45


def test_context_json_roundtrip(tmp_path):
    data = {
        "group": [[0, 1], [1, 0]],
        "primes": [
            {"p": 2, "residue_norm": 2, "filtration": [[0, 1], [0, 1]]},
            {"p": 23, "filtration": [[0, 1]]},
        ],
        "disc": 92,
        "labels": {"note": "wild at 2, tame at 23"},
    }
    ctx = parse_context_dict(data, name="mixed")
    assert ctx.disc == 92
    assert len(ctx.filtrations) == 2
    t = character_table(ctx.group)
    assert verify_conductor_discriminant(ctx, t, 4 * 23)
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(data))
    ctx2 = load_context(path)
    assert ctx2.filtrations[0].prime == 2
    assert artin_conductor(t[1], ctx2).norm == 4 * 23


def test_context_json_group_file_reference(tmp_path):
    (tmp_path / "c2.grp").write_text("table 2\n0 1\n1 0\n")
    data = {"group": "c2.grp",
            "primes": [{"p": 3, "filtration": [[0, 1]]}]}
    path = tmp_path / "ctx.json"
    path.write_text(json.dumps(data))
    ctx = load_context(path)
    assert ctx.group.order == 2
    assert ctx.filtrations[0].prime == 3


def test_context_json_errors(tmp_path):
    with pytest.raises(InvalidData):
        parse_context_dict({"primes": []})
    with pytest.raises(InvalidData):
        parse_context_dict({"group": 7, "primes": []})
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(InvalidData):
        load_context(bad)


def oracle_subgroup_sum(chi, sub):
    """The classwise `cyclo_sum` the conductor sum replaced: chi summed over
    the subgroup, as one cyclotomic value."""
    part = conjugacy_classes(chi.group)
    counts = np.bincount(part.class_of[np.array(sub.elements, dtype=np.int64)],
                         minlength=len(part))
    return cyclo_sum(chi.values[c] * int(n) for c, n in enumerate(counts) if n)


def test_subgroup_sum_matches_the_classwise_oracle():
    # the second count matrix, times a row, gives chi(G_j) for every G_j,
    # trivial ones included
    cat = Catalog()
    checked = 0
    for name in cat.context_names():
        ctx = cat.context(name)
        table = character_table(ctx.group)
        for filt in ctx.filtrations:
            for chi in table:
                got = values(_class_counts(filt) @ chi.nums, chi.e, chi.den)
                assert got == [oracle_subgroup_sum(chi, sub)
                               for sub in filt.groups]
                checked += len(got)
    assert checked > 0
    # an irrational sum is refused with the oracle's value in the message
    g, ctx = quintic_context()
    sub = ctx.filtrations[0].groups[0]
    fn = ClassFunction(g, [1, Cyclotomic.zeta(5), 0, Fraction(1, 2), 0])
    want = oracle_subgroup_sum(fn, sub)
    assert not want.is_rational()
    with pytest.raises(NonIntegralExponent) as exc:
        conductor_exponent(fn, ctx.filtrations[0])
    assert str(exc.value) == (
        f"character sum over a filtration group is irrational: {want}")


def _exponent_or_error(fn, *args):
    try:
        return fn(*args)
    except CharcondError as exc:
        return type(exc), str(exc)


def _assert_routes_agree(g, filt, nums, den=1):
    """The matrix route on the batch and on each row alone, against
    `conductor_exponent` on each row: equal exponents, or the same error.
    Rows are numerators at e = exp(G) over den."""
    e = g.exponent()
    want = [_exponent_or_error(conductor_exponent,
                               ClassFunction._make(g, e, row, den), filt)
            for row in nums]
    got = [_exponent_or_error(
        lambda row: int(conductor_exponents(filt, row[None], den, e)[0]), row)
        for row in nums]
    assert got == want
    if all(isinstance(x, int) for x in want):
        assert conductor_exponents(filt, nums, den, e).tolist() == want
    return want


def _filtrations(g):
    """Every chain G_0 > G_1 (> 1) of normal subgroups of g, G_0 nontrivial."""
    subs = normal_subgroups(g)
    for top in subs:
        if top.order == 1:
            continue
        yield RamificationFiltration(7, 7, (top,))
        for low in subs:
            if set(low.elements) < set(top.elements):
                yield RamificationFiltration(7, 49, (top, low))
                yield RamificationFiltration(7, 7, (top, top, low,
                                                    trivial_subgroup(g)))


def test_matrix_route_equals_conductor_exponent_on_context_tables():
    cat = Catalog()
    rng = np.random.default_rng(5)
    for name in cat.context_names():
        ctx = cat.context(name)
        nums = characters._table_nums(ctx.group)
        for filt in ctx.filtrations:
            assert all(isinstance(x, int)
                       for x in _assert_routes_agree(ctx.group, filt, nums))
            # random nonnegative and signed integer combinations of the rows
            for low in (0, -3):
                mults = rng.integers(low, 4, size=(40, len(nums)))
                _assert_routes_agree(ctx.group, filt, np.tensordot(mults, nums, 1))


@pytest.mark.parametrize("name", ["S3", "C6", "D4", "Q8", "D6", "S4", "S3xC4"])
def test_matrix_route_equals_conductor_exponent_on_normal_chains(name):
    # chains of normal subgroups, with G_j repeated and a trivial tail; signed
    # combinations give negative exponents, which both routes refuse alike
    g = Catalog().group(name)
    nums = characters._table_nums(g)
    rng = np.random.default_rng(len(name))
    outcomes = set()
    for filt in _filtrations(g):
        mults = np.vstack([np.eye(len(nums), dtype=np.int64),
                           rng.integers(-2, 3, size=(20, len(nums)))])
        outcomes |= {type(x) for x in
                     _assert_routes_agree(g, filt, np.tensordot(mults, nums, 1))}
    assert int in outcomes and tuple in outcomes


def test_matrix_route_refuses_irrational_values_as_conductor_exponent_does():
    g, ctx = quintic_context()
    filt = ctx.filtrations[0]
    z = Cyclotomic.zeta(5)
    # an irrational sum over G_0, and an irrational degree
    for values in ([1, z, 0, Fraction(1, 2), 0], [z, 1, 1, 1, 1]):
        fn = ClassFunction(g, values)
        assert isinstance(_assert_routes_agree(g, filt, fn.nums[None], fn.den)[0],
                          tuple)
    s3 = build_from_permutations(3, [(1, 0, 2), (1, 2, 0)], name="S3")
    bad = RamificationFiltration(7, 7, (full_subgroup(s3),
                                        generated_subgroup(s3, [1])))
    got = _assert_routes_agree(s3, bad, characters._table_nums(s3))
    assert got[1] == (NonIntegralExponent,
                      "conductor exponent at 7 is 4/3, not a nonnegative integer")


def test_conductors_of_no_characters_is_empty():
    # like `inner_product_matrix([], ...)`: nothing to align, nothing to count
    cat = Catalog()
    for ctx in (cat.context("gauss"), GaloisContext(cat.group("C2"), ())):
        assert conductors(ctx, []) == []
        assert conductors(ctx, character_table(ctx.group)[:0]) == []
