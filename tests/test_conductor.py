"""Conductor exponents, conductor ideals, radical values, and bounds.

Hand evaluations of the exponent formula are spelled out next to each case;
decimal strings were frozen from a 30-digit mpmath computation and the oracle
comparison is re-run in-test.
"""

import json
from fractions import Fraction

import pytest

from charcond.arith import PRIME_TEST_BOUND
from charcond.characters import character_table, induce
from charcond.conductor import (BoundInputs, FactoredConductor, GaloisContext,
                                RadicalValue, RamificationFiltration,
                                artin_conductor, bound_induced_case,
                                bound_restricted_case, conductor_exponent,
                                factor_integer, global_constant,
                                induced_conductor_norm, load_context,
                                parse_context_dict, root_conductor,
                                unramified_triviality,
                                verify_conductor_discriminant)
from charcond.errors import InvalidData, NonIntegralExponent
from charcond.groups import (build_from_permutations, full_subgroup,
                             generated_subgroup, trivial_subgroup)


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
    assert RadicalValue.from_integer(4).decimal(12) == "4.00000000000"
    assert RadicalValue.from_integer(23).decimal(4) == "23.00"
    assert RadicalValue({2: Fraction(1, 2)}).decimal(12) == "1.41421356237"
    assert RadicalValue({10: 30}).decimal(3) == "1.00e+30"
    assert RadicalValue({2: Fraction(-1, 2)}).decimal(5) == "0.70711"


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
