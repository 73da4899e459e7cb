"""Exact character theory of finite groups with Artin conductor arithmetic.

The package computes exact irreducible character tables of small finite
groups, classifies irreducibles over normal subgroups of prime index
(restricted vs induced), constructs irreducible characters of provably large
degree along non-abelian chains, and evaluates Artin conductor exponents,
conductor norms, root conductors and the associated bound constants from
explicit ramification filtrations.  All arithmetic is exact: big integers,
rationals, and cyclotomic numbers; decimals appear only in rendering.
`import charcond` loads no submodule: each exported name loads its module on
first access (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

# here so that the CLI parser needs neither `verify` nor numpy: the suites
# and the order cap of their catalog sweeps
SUITE_NAMES = ("clifford", "gallagher", "dichotomy", "classification",
               "degrees", "conductor", "tables", "all")
DEFAULT_MAX_ORDER = 24

_EXPORTS = {
    "cyclotomic": "Cyclotomic cyclotomic_polynomial cyclo_sum",
    "errors": "BadChain CharcondError GroupMismatch IndexNotPrime "
              "InternalContradiction InvalidData NonIntegralExponent "
              "NotACharacter NotAGroup NotInvariant NotIrreducible NotNormal "
              "TooLarge",
    "groups": "ConjugacyPartition FiniteGroup QuotientMap Subgroup "
              "build_from_permutations build_from_table conjugacy_classes "
              "derived_subgroup direct_product full_subgroup "
              "generated_subgroup is_abelian is_normal load_group_file "
              "normal_subgroups parse_group_text "
              "prime_index_normal_subgroups product_chain quotient subgroup "
              "trivial_subgroup",
    "characters": "Character CharacterTable ClassFunction character_table "
                  "conjugate_character decompose induce inflate "
                  "inner_product pointwise_product restrict",
    "clifford": "Classification ClassificationKind InertiaKind NormalChain "
                "classify_irreducible clifford_decomposition conjugate_orbit "
                "construct_large_degree find_extension find_extensions "
                "inertia_dichotomy inertia_group promote_degree",
    "bounds": "BoundInputs RadicalValue RestrictedBounds bound_induced_case "
              "bound_restricted_case global_constant",
    "conductor": "FactoredConductor GaloisContext RamificationFiltration "
                 "artin_conductor conductor_exponent conductor_exponents "
                 "conductors factor_integer induced_conductor_norm "
                 "load_context parse_context_dict root_conductor "
                 "unramified_triviality "
                 "verify_conductor_discriminant",
    "catalog": "Catalog default_catalog",
    "verify": "CheckRecord VerificationReport run_suite",
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}

__all__ = sorted([*_HOME, "SUITE_NAMES"])


def __getattr__(name: str):
    if name in _EXPORTS or name in ("arith", "cli"):
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
