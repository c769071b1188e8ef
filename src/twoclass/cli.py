"""Command-line surface.

Subcommands: classify, enumerate, find-primes, verify, unit, classgroup,
s1s2.  Output is a JSON report document (schema documented in
docs/report-schema.md) or CSV rows for sweeps with --csv.  Exit codes:
0 success, 1 usage error (or stdout closed early), 2 verification
mismatch, 3 oracle (or unit) range exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import re
import sys

from .arith import BeyondPrimalityRange
from .classify import (
    DEFAULT_ORACLE_LIMIT,
    NotFoundWithinBound,
    OracleRangeExceeded,
    SymbolSpec,
    find_prime_tuple,
    predict,
    sweep,
    verify_against_oracle,
)
from .forms import narrow_class_group, ordinary_class_group, two_sylow
from .quadfield import fundamental_unit
from .redei import splitting_sets

SCHEMA_VERSION = "1"

# the largest classgroup D, sweep --max and unit d: the sieves tabulate the
# primes up to its square root, a million, and a unit's period is of that size
SQRT_SIEVE_LIMIT = 10**12


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's 2
        raise UsageError(message)


def _positive_int(text: str) -> int:
    """The argparse type of the limits."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"invalid positive int value: {text!r}")
    return value


def _shape(text: str) -> str:
    """The argparse type of --shape: "" (no filter), or 3 or 4 roles as in
    the shape column, 2 before p before q, with one 2 at most."""
    roles = r"(2,)?(p,)*(q,)*"
    if text and not (text.count(",") in (2, 3) and re.fullmatch(roles, text + ",")):
        raise argparse.ArgumentTypeError(f"{text!r} is not 3 or 4 of 2, p, q in order")
    return text


def _document(command: str, inputs: dict, results, mismatches=()) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
        "mismatches": list(mismatches),
    }


def _emit(doc: dict, out) -> int:
    """Write doc; the exit code is 2 when it lists a mismatch, else 0."""
    json.dump(doc, out, indent=2)
    out.write("\n")
    return 2 if doc["mismatches"] else 0


# --- row assembly for sweeps -----------------------------------------------

CSV_COLUMNS = [
    "d",
    "shape",
    "rank_K",
    "rank_Kprime",
    "rank_K1",
    "structure_K",
    "structure_Kprime",
    "structure_K1",
    "provenance",
    "oracle_status",
]


def _structure_str(claim) -> str:
    if claim is None:
        return ""
    return "+".join(f"Z/{f}" for f in claim.value.factors)


def _row(result) -> list:
    """The CSV_COLUMNS values of one classify.sweep result."""
    report = result.report
    provenance = []
    if report.rank_pattern is not None:
        provenance.append(f"rank pattern ({report.rank_pattern})")
    if report.structure_K is not None:
        provenance.append(report.structure_K.source)
    return [
        report.d,
        "" if report.shape is None else ",".join(report.shape.pattern),
        report.rank_K.value,
        report.rank_Kprime.value,
        report.rank_K1.value,
        _structure_str(report.structure_K),
        _structure_str(report.structure_Kprime),
        _structure_str(report.structure_K1),
        "; ".join(provenance),
        result.status,
    ]


# --- subcommands ------------------------------------------------------------


def _cmd_classify(args, out) -> int:
    report = predict(args.d)
    mismatches = []
    results = {"report": report.to_json()}
    if args.verify:
        comparison = verify_against_oracle(report, args.oracle_limit)
        results["oracle"] = comparison.to_json()
        mismatches = [c.to_json() for c in comparison.mismatches]
    inputs = {"d": args.d, "verify": args.verify}
    return _emit(_document("classify", inputs, results, mismatches), out)


def _check_range(args) -> None:
    """Refuse a sweep's --min/--max before anything is sieved or written."""
    if args.max <= args.min:
        raise UsageError("--max must exceed --min")
    if args.max > SQRT_SIEVE_LIMIT:
        raise UsageError(f"--max must not exceed {SQRT_SIEVE_LIMIT}")


def _cmd_enumerate(args, out) -> int:
    _check_range(args)
    shape = tuple(args.shape.split(",")) if args.shape else None
    results = sweep(args.min, args.max, args.verify, args.oracle_limit, shape)
    if args.csv:
        # each row is written as its field comes
        writer = csv.writer(out)
        writer.writerow(CSV_COLUMNS)
        mismatched = 0
        for r in results:
            writer.writerow(_row(r))
            mismatched += r.status == "mismatch"
        return 2 if mismatched else 0
    rows, mismatches = [], []
    for r in results:
        rows.append(dict(zip(CSV_COLUMNS, _row(r))))
        if r.status == "mismatch":
            mismatches.extend(c.to_json() for c in r.comparison.mismatches)
    inputs = dict(min=args.min, max=args.max, shape=args.shape, verify=args.verify)
    doc = _document("enumerate", inputs, rows, mismatches)
    return _emit(doc, out)


def _parse_symbols(text: str) -> tuple:
    """The ((k, j), eps) pairs in index order, a repeated (k, j) kept for
    SymbolSpec to refuse."""
    symbols = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            indices, value = part.split("=")
            k, j = (int(x) for x in indices.split(","))
            symbols.append(((k, j), int(value)))
        except ValueError as exc:
            raise UsageError(f"bad symbol constraint {part!r}") from exc
    return tuple(sorted(symbols))


def _cmd_find_primes(args, out) -> int:
    try:
        residues = tuple(int(x) for x in args.mod8.split(","))
        spec = SymbolSpec(residues, _parse_symbols(args.symbols))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    primes = find_prime_tuple(spec, args.bound)
    doc = _document(
        "find-primes",
        {"mod8": list(residues), "symbols": args.symbols, "bound": args.bound},
        {"primes": primes, "verified": True},
    )
    return _emit(doc, out)


def _cmd_verify(args, out) -> int:
    # one pass that keeps counts, findings and mismatches, and no row
    _check_range(args)
    fields = verified_ok = out_of_range = 0
    findings, mismatches = [], []
    for r in sweep(args.min, args.max, True, args.oracle_limit):
        fields += 1
        verified_ok += r.status == "ok"
        out_of_range += r.status == "out-of-range"
        if r.comparison is not None and r.comparison.findings:
            findings.append({"d": r.report.d, "findings": list(r.comparison.findings)})
        if r.status == "mismatch":
            checks = [c.to_json() for c in r.comparison.mismatches]
            mismatches.append({"d": r.report.d, "checks": checks})
    doc = _document(
        "verify",
        {"min": args.min, "max": args.max, "oracle_limit": args.oracle_limit},
        {
            "fields": fields,
            "verified_ok": verified_ok,
            "out_of_range": out_of_range,
            "findings": findings,
        },
        mismatches,
    )
    return _emit(doc, out)


def _half(n: int) -> str:
    """n/2 as an integer, or as the fraction "n/2" when n is odd."""
    return str(n // 2) if n % 2 == 0 else f"{n}/2"


def _cmd_unit(args, out) -> int:
    if args.d > SQRT_SIEVE_LIMIT:
        raise OracleRangeExceeded(f"d {args.d} exceeds unit limit {SQRT_SIEVE_LIMIT}")
    fu = fundamental_unit(args.d)
    doc = _document(
        "unit",
        {"d": args.d},
        {
            "a": _half(fu.X),
            "b": _half(fu.Y),
            "norm": fu.norm,
            "cf_period": fu.cf_period,
        },
    )
    return _emit(doc, out)


def _cmd_classgroup(args, out) -> int:
    if args.D > SQRT_SIEVE_LIMIT:
        raise OracleRangeExceeded(
            f"discriminant {args.D} exceeds oracle limit {SQRT_SIEVE_LIMIT}"
        )
    if args.ordinary:
        grp = ordinary_class_group(args.D)
    else:
        grp = narrow_class_group(args.D)
    doc = _document(
        "classgroup",
        {"D": args.D, "variant": grp.variant},
        {
            "order": grp.order,
            "structure": list(grp.structure),
            "two_sylow": list(two_sylow(grp).factors),
            "classes": [list(f) for f in grp.classes],
        },
    )
    return _emit(doc, out)


def _cmd_s1s2(args, out) -> int:
    s1, s2 = splitting_sets(args.D)
    doc = _document(
        "s1s2",
        {"D": args.D},
        {
            "S1": [list(dec) for dec in s1],
            "S2": [list(dec) for dec in s2],
            "count_S1": len(s1),
            "count_S2": len(s2),
            "narrow_two_elementary": len(s2) == 1,
        },
    )
    return _emit(doc, out)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="twoclass", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="prediction report for one odd square-free d")
    p.add_argument("d", type=int)
    p.add_argument("--verify", action="store_true", help="replay against the oracle")
    p.add_argument("--oracle-limit", type=_positive_int, default=DEFAULT_ORACLE_LIMIT)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("enumerate", help="sweep odd square-free d in a range")
    p.add_argument("--min", type=int, default=3)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--shape", type=_shape, help='pattern filter such as "p,p,q,q"')
    p.add_argument("--csv", action="store_true")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--oracle-limit", type=_positive_int, default=DEFAULT_ORACLE_LIMIT)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("find-primes", help="prime tuple with prescribed symbols")
    p.add_argument("--mod8", required=True, help="comma list of residues mod 8")
    p.add_argument(
        "--symbols", default="", help='semicolon list "k,j=1" or "k,j=-1" (j < k)'
    )
    p.add_argument("--bound", type=_positive_int, default=10**6)
    p.set_defaults(func=_cmd_find_primes)

    p = sub.add_parser("verify", help="oracle-verify predictions over a range")
    p.add_argument("--min", type=int, default=3)
    p.add_argument("--max", type=int, default=20000)
    p.add_argument("--oracle-limit", type=_positive_int, default=DEFAULT_ORACLE_LIMIT)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("unit", help="fundamental unit of Q(sqrt(d))")
    p.add_argument("d", type=int)
    p.set_defaults(func=_cmd_unit)

    p = sub.add_parser("classgroup", help="form class group of a discriminant")
    p.add_argument("D", type=int)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--narrow", action="store_true", default=True)
    group.add_argument("--ordinary", action="store_true")
    p.set_defaults(func=_cmd_classgroup)

    p = sub.add_parser("s1s2", help="Redei-Reichardt splitting sets of D")
    p.add_argument("D", type=int)
    p.set_defaults(func=_cmd_s1s2)

    return parser


def run(argv: list[str], out=None) -> int:
    """Execute a command line; returns the exit code.

    Nothing but an error in writing to out is raised (main handles a
    closed stdout).  The parser is built on the first call and reused by
    every later call of the process: parsing keeps no state between calls,
    and building it costs about a millisecond.
    """
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OracleRangeExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BeyondPrimalityRange:
        # only the factorization of the input (D for s1s2, else d) tests an
        # n >= 2**64, and such an n divides it
        name = "D" if args.command == "s1s2" else "d"
        print(
            f"error: {name} has a factor of 2**64 or more, "
            "past deterministic primality",
            file=sys.stderr,
        )
        return 1
    except (NotFoundWithinBound, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        print(
            "error: stdout was closed before the output was written",
            file=sys.stderr,
        )
        # the interpreter flushes stdout again at exit, and the rest of the
        # output would raise there too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
