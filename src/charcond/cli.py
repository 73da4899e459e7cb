"""Command-line front end.

Commands: table, classify, conduct, bound, verify, catalog.  Group and context
references resolve against the builtin catalog first, then as file paths
(`Catalog.resolve_group` and `resolve_context`).  Each command computes every
reported value once and returns one result with ``to_json_dict`` and
``render_text``: the `CharacterTable`, the `VerificationReport`, or a payload
with the text lines rendered from it.  `main` alone turns a result into
output: JSON or text, to stdout or the `--output` file, and exit code 3 after
a failed verification's report.  Output that a closed pipe cannot take is
dropped silently; any other error writing stdout exits 2.  Output is
deterministic byte-for-byte for fixed inputs and flags.  Exit codes: 0
success, 2 input or validation error, 3 broken internal invariant.  Each
command imports the modules it runs when it runs (`bound` loads no numpy).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields
from fractions import Fraction
from types import SimpleNamespace

from . import DEFAULT_MAX_ORDER, SUITE_NAMES
from .errors import (CharcondError, IndexNotPrime, InternalContradiction,
                     InvalidData)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# a decimal's cost grows with the digits and with the degree d of its root
# (q * theta(1) for the induced bound): `bounds.MAX_DECIMAL_DIGITS` caps
# d * (digits + |log10 value|).  At 1000 digits, `bound --disc 5 --q 2
# --theta-degree 100 --norm-ftheta 7` takes 0.25-0.30 s in a fresh
# interpreter, and the martinet-constants dataset 0.15-0.19 s
MAX_PRECISION = 1000


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format (default text)")


def _int_flag(what: str, hi: int | None = None):
    """An argparse type for a flag that takes an integer from 1 to hi, or any
    positive integer when hi is None."""
    want = f"an integer from 1 to {hi}" if hi else "a positive integer"

    def parse(text: str) -> int:
        if (not text.isascii() or not text.strip().isdigit()
                or not 1 <= int(text) <= (hi or int(text))):
            raise argparse.ArgumentTypeError(
                f"{what} must be {want}, got {text!r}")
        return int(text)
    return parse


def _precision_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--precision", type=_int_flag("precision", MAX_PRECISION),
                   default=12,
                   help="significant digits for decimal renderings "
                        f"(default 12, at most {MAX_PRECISION})")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charcond",
        description="exact character tables, prime-index classification, and "
                    "Artin conductor bound arithmetic")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="print a character table")
    p.add_argument("--group", required=True, help="catalog name or group file")
    p.add_argument("--output", default=None,
                   help="write to this file instead of stdout")
    _common_flags(p)

    p = sub.add_parser("classify",
                       help="classify irreducibles over a prime-index normal subgroup")
    p.add_argument("--group", required=True, help="catalog name or group file")
    p.add_argument("--subgroup", required=True,
                   help="'derived', 'gens:i,j,...', or 'elements:i,j,...'")
    _common_flags(p)

    p = sub.add_parser("conduct", help="conductor report for a ramification context")
    p.add_argument("--context", required=True, help="catalog name or JSON file")
    sel = p.add_mutually_exclusive_group()
    sel.add_argument("--all", action="store_true",
                     help="all irreducible characters (default)")
    sel.add_argument("--char", type=int, default=None,
                     help="single character by table row index")
    _common_flags(p)
    _precision_flag(p)

    p = sub.add_parser("bound", help="root-conductor bound arithmetic")
    p.add_argument("--dataset", default=None, help="named bound dataset")
    p.add_argument("--disc", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--theta-degree", type=int, default=None)
    p.add_argument("--norm-ftheta", type=int, default=None,
                   dest="norm_f_theta", metavar="NORM_FTHETA")
    p.add_argument("--T", type=str, default=None,
                   help="per-degree conductor norm cap (rational, e.g. 753664)")
    _common_flags(p)
    _precision_flag(p)

    p = sub.add_parser("verify", help="run a catalog verification sweep")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--max-order", type=_int_flag("max order"),
                   default=DEFAULT_MAX_ORDER,
                   help="order cap for exhaustive sweeps "
                        f"(default {DEFAULT_MAX_ORDER})")
    _common_flags(p)

    p = sub.add_parser("catalog", help="catalog inspection")
    p.add_argument("action", choices=("list",))
    _common_flags(p)
    return parser


def _resolve_subgroup(group, spec: str):
    from .groups import derived_subgroup, generated_subgroup, subgroup
    spec = spec.strip()
    if spec == "derived":
        return derived_subgroup(group)
    for prefix, noun, build in (("gens:", "generator", generated_subgroup),
                                ("elements:", "element", subgroup)):
        if spec.startswith(prefix):
            try:
                ids = [int(v) for v in spec[len(prefix):].split(",") if v.strip()]
            except ValueError as exc:
                raise InvalidData(f"bad {noun} list in {spec!r}") from exc
            return build(group, ids)
    raise InvalidData(
        f"bad subgroup spec {spec!r}; use 'derived', 'gens:...', or 'elements:...'")


def _report(payload: dict, lines: list[str]) -> SimpleNamespace:
    """A command's result: its JSON payload and the lines of its text."""
    return SimpleNamespace(to_json_dict=lambda: payload,
                           render_text=lambda: "\n".join(lines))


def _cmd_table(args):
    from .catalog import default_catalog
    from .characters import character_table
    return character_table(default_catalog().resolve_group(args.group))


def _cmd_classify(args):
    from .arith import is_prime
    from .catalog import default_catalog
    from .characters import character_table
    from .clifford import _classify_row
    from .groups import is_normal
    cat = default_catalog()
    g = cat.resolve_group(args.group)
    s = _resolve_subgroup(g, args.subgroup)
    if not is_normal(g, s):
        raise InvalidData("subgroup is not normal")
    degrees = character_table(g).degrees()
    # H's table, with its caps, is built before the index is checked
    character_table(s.as_group())
    if not is_prime(s.index):
        raise IndexNotPrime(f"index {s.index} is not prime")
    results = []
    for r, degree in enumerate(degrees):
        kind, j, e, orbit, checks = _classify_row(s, r)
        results.append({"chi": r, "degree": degree, "kind": kind.value,
                        "theta": j, "e": e, "t": len(orbit),
                        "verified": dict(sorted(checks.items()))})
    lines = [f"classification over a normal subgroup of index {s.index} "
             f"in {g.name or 'group'} (order {g.order})"]
    for row in results:
        flag = "ok" if all(row["verified"].values()) else "FAILED"
        lines.append(f"  X{row['chi'] + 1} (degree {row['degree']}): "
                     f"{row['kind']} from theta {row['theta']} "
                     f"(e={row['e']}, t={row['t']}) [{flag}]")
    rest = sum(1 for r in results if r["kind"] == "restricted")
    lines.append(f"summary: {rest} restricted, {len(results) - rest} induced")
    return _report({"group": g.name, "order": g.order,
                    "subgroup": list(s.elements), "index": s.index,
                    "results": results}, lines)


def _cmd_conduct(args):
    from .catalog import default_catalog
    from .characters import character_table
    from .conductor import conductors, root_conductor
    cat = default_catalog()
    ctx = cat.resolve_context(args.context)
    table = character_table(ctx.group)
    if args.char is not None and not 0 <= args.char < len(table):
        raise InvalidData(
            f"character index {args.char} out of range 0..{len(table) - 1}")
    # the rows asked for only: a bad exponent in another row does not refuse --char
    rows = range(len(table)) if args.char is None else [args.char]
    entries = []
    for i, fc in zip(rows, conductors(ctx, [table[i] for i in rows])):
        chi = table[i]
        rc = root_conductor(fc, chi.degree)
        entries.append({
            "chi": i,
            "degree": chi.degree,
            "exponents": {str(p): e for p, e in fc.exponents.items()},
            "norm": fc.norm,
            "root_conductor": rc.exact_str(),
            "root_conductor_decimal": rc.decimal(args.precision),
        })
    payload = {"context": ctx.name, "group_order": ctx.group.order,
               "characters": entries}
    # the conductor-discriminant oracle, from the whole table's conductors
    prod = math.prod(e["norm"] ** e["degree"] for e in entries)
    oracle = None
    if ctx.disc is not None and args.char is None:
        oracle = prod == ctx.disc
        payload["disc"] = ctx.disc
        payload["conductor_discriminant_ok"] = oracle
    lines = [f"conductor report for context {ctx.name} "
             f"(group order {ctx.group.order})"]
    for e in entries:
        expo = ", ".join(f"{p}: {v}" for p, v in e["exponents"].items()) or "-"
        lines.append(f"  X{e['chi'] + 1} (degree {e['degree']}): exponents "
                     f"{{{expo}}}, norm {e['norm']}, root conductor "
                     f"{e['root_conductor']} = {e['root_conductor_decimal']}")
    if oracle is not None:
        lines.append(f"conductor-discriminant product: {prod} "
                     f"(disc {ctx.disc}) -> {'ok' if oracle else 'MISMATCH'}")
    return _report(payload, lines)


# the three radicals of a bound report: payload key and text label
_RADICALS = (
    ("restricted_certified", "restricted case, certified: disc * N^(1/t1)"),
    ("restricted_stated", "restricted case, stated:   disc^(1/q) * N^(1/t1)"),
    ("induced", "induced case (equality):   disc^(1/q) * N^(1/(q t1))"),
)


def _cmd_bound(args):
    from .arith import factor_integer
    from .bounds import BoundInputs, _cases, bound_dataset, global_constant
    dataset = bound_dataset(args.dataset) if args.dataset else None
    given = {f.name: getattr(args, f.name) for f in fields(BoundInputs)}
    if dataset is not None:
        given = {k: dataset[k] if v is None else v for k, v in given.items()}
    cap = given.pop("T")
    if None in given.values():
        raise InvalidData(
            "need --dataset or all of --disc, --q, --theta-degree, --norm-ftheta")
    try:
        t_value = Fraction(cap) if cap is not None else None
    except ZeroDivisionError as exc:
        raise InvalidData(f"T = {cap} has a zero denominator") from exc
    inputs = BoundInputs(T=t_value, **given)
    restricted, induced = _cases(inputs)
    payload = dict(given)
    values = (restricted.certified, restricted.stated, induced)
    # refuse a decimal over the cap before rendering any
    for value in values:
        value.check_decimal(args.precision)
    for (key, _), value in zip(_RADICALS, values):
        payload[key] = value.exact_str()
        payload[f"{key}_decimal"] = value.decimal(args.precision)
    if dataset is not None:
        payload["dataset"] = dataset["name"]
        payload["ramified_primes"] = dataset["ramified_primes"]
    if t_value is not None:
        c = global_constant(inputs.disc, t_value)
        payload["T"] = str(t_value)
        payload["C"] = str(c) if c.denominator > 1 else int(c)
        if c.denominator == 1:
            payload["C_factorization"] = {
                str(p): e for p, e in sorted(factor_integer(int(c)).items())}
    lines = ["bound report (disc {disc}, q {q}, theta degree {theta_degree}, "
             "N(f_theta) {norm_f_theta})".format_map(payload)]
    lines += [f"  {label}: {payload[key]} = {payload[key + '_decimal']}"
              for key, label in _RADICALS]
    if "C" in payload:
        fac = payload.get("C_factorization")
        line = f"  global constant C = disc * T = {payload['C']}"
        if fac:
            line += " = " + " * ".join(f"{p}^{e}" if e > 1 else p
                                       for p, e in fac.items())
        lines.append(line)
    return _report(payload, lines)


def _cmd_verify(args):
    from .verify import run_suite
    return run_suite(args.suite, max_order=args.max_order)


def _cmd_catalog(args):
    from .catalog import PRODUCT_ORDER_CAP, default_catalog
    cat = default_catalog()
    groups = [(name, cat.group(name).order) for name in cat.base_names()]
    payload = {
        "groups": [{"name": n, "order": o} for n, o in groups],
        "contexts": cat.context_names(),
        "bound_datasets": cat.bound_dataset_names(),
        "products": "direct products of the names above, e.g. S3xS3xS3, "
                    f"up to order {PRODUCT_ORDER_CAP}",
    }
    return _report(payload, [
        "builtin groups:", *(f"  {n:<4} order {o}" for n, o in groups),
        "contexts: " + ", ".join(payload["contexts"]),
        "bound datasets: " + ", ".join(payload["bound_datasets"]),
        "products: " + payload["products"]])


_COMMANDS = {
    "table": _cmd_table,
    "classify": _cmd_classify,
    "conduct": _cmd_conduct,
    "bound": _cmd_bound,
    "verify": _cmd_verify,
    "catalog": _cmd_catalog,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        result = _COMMANDS[args.command](args)
        body = (json.dumps(result.to_json_dict(), indent=2, sort_keys=True)
                if args.format == "json" else result.render_text())
        if getattr(args, "output", None):
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(body + "\n")
            except OSError as exc:
                raise InvalidData(f"cannot write {args.output}: {exc}") from exc
        else:
            try:
                print(body, flush=True)
            except OSError as exc:
                # what stdout did not take goes nowhere, so the flush at exit
                # cannot fail again; a closed pipe is a reader that is done
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                if not isinstance(exc, BrokenPipeError):
                    raise InvalidData(f"cannot write stdout: {exc}") from exc
        # a failed verification prints its report, then exits 3
        if not getattr(result, "passed", True):
            raise InternalContradiction(
                f"{result.counts[2]} verification identities failed")
        return EXIT_OK
    except InternalContradiction as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (CharcondError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
