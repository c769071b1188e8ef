"""Command-line surface.

Subcommands: classify, enumerate, find-primes, verify, unit, classgroup,
s1s2.  Output is a JSON report document (schema documented in
docs/report-schema.md) or CSV rows for sweeps with --csv.  Exit codes:
0 success, 1 usage error (or stdout closed early), 2 verification
mismatch, 3 oracle range exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

from .arith import BeyondPrimalityRange, NotSquarefree, squarefree_range
from .classify import (
    DEFAULT_ORACLE_LIMIT,
    NotFoundWithinBound,
    OracleRangeExceeded,
    SymbolSpec,
    find_prime_tuple,
    predict,
    verify_against_oracle,
)
from .forms import narrow_class_group, ordinary_class_group, two_sylow
from .quadfield import fundamental_unit
from .redei import splitting_sets

SCHEMA_VERSION = "1"

# the largest classgroup D and sweep --max: the oracle and the sweeps' window
# sieve tabulate the primes up to its square root, here a million entries
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


def _document(command: str, inputs: dict, results, mismatches=()) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
        "mismatches": list(mismatches),
    }


def _emit(doc: dict, out) -> None:
    json.dump(doc, out, indent=2)
    out.write("\n")


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


def _shape_str(report) -> str:
    return "" if report.shape is None else ",".join(report.shape.pattern)


def _row_for(d, do_verify: bool, oracle_limit: int, shape: str | None) -> dict | None:
    """The sweep row of d (an int or the sieve's FactoredSquarefree), or None
    when a shape filter is set and d fails it."""
    report = predict(d)
    if shape and _shape_str(report) != shape:
        return None
    provenance = []
    if report.rank_pattern is not None:
        provenance.append(f"rank pattern ({report.rank_pattern})")
    if report.structure_K is not None:
        provenance.append(report.structure_K.source)
    status = "skipped"
    mismatches = []
    findings = []
    if do_verify:
        try:
            comparison = verify_against_oracle(report, oracle_limit)
            status = "ok" if comparison.ok else "mismatch"
            mismatches = [c.to_json() for c in comparison.mismatches]
            findings = list(comparison.findings)
        except OracleRangeExceeded:
            status = "out-of-range"
    return {
        "findings": findings,
        "row": {
            "d": report.d,
            "shape": _shape_str(report),
            "rank_K": report.rank_K.value,
            "rank_Kprime": report.rank_Kprime.value,
            "rank_K1": report.rank_K1.value,
            "structure_K": _structure_str(report.structure_K),
            "structure_Kprime": _structure_str(report.structure_Kprime),
            "structure_K1": _structure_str(report.structure_K1),
            "provenance": "; ".join(provenance),
            "oracle_status": status,
        },
        "mismatches": mismatches,
    }


# --- subcommands ------------------------------------------------------------


def _cmd_classify(args, out) -> int:
    report = predict(args.d)
    mismatches = []
    results = {"report": report.to_json()}
    code = 0
    if args.verify:
        comparison = verify_against_oracle(report, args.oracle_limit)
        results["oracle"] = comparison.to_json()
        mismatches = [c.to_json() for c in comparison.mismatches]
        if mismatches:
            code = 2
    _emit(
        _document("classify", {"d": args.d, "verify": args.verify}, results, mismatches),
        out,
    )
    return code


def _sweep_rows(args, do_verify: bool, shape: str | None = None):
    """Rows for every odd square-free d in [--min, --max) of the given shape.

    The range is checked at once; the rows are built as they are consumed.
    """
    if args.max <= args.min:
        raise UsageError("--max must exceed --min")
    if args.max > SQRT_SIEVE_LIMIT:
        raise UsageError(f"--max must not exceed {SQRT_SIEVE_LIMIT}")
    # lazily: each field is predicted while the primality answers for its
    # primes are fresh in arith's memo, and no sweep holds all its fields
    ds = squarefree_range(max(args.min, 3) | 1, args.max, 2)
    rows = (_row_for(d, do_verify, args.oracle_limit, shape) for d in ds)
    return (r for r in rows if r is not None)


def _cmd_enumerate(args, out) -> int:
    rows = _sweep_rows(args, args.verify, args.shape)
    if args.csv:
        # each row is written as it comes; its dict is in CSV_COLUMNS order
        writer = csv.writer(out)
        writer.writerow(CSV_COLUMNS)
        mismatched = 0
        for r in rows:
            writer.writerow(r["row"].values())
            mismatched += bool(r["mismatches"])
        return 2 if mismatched else 0
    rows = list(rows)
    mismatches = [m for r in rows for m in r["mismatches"]]
    doc = _document(
        "enumerate",
        {
            "min": args.min,
            "max": args.max,
            "shape": args.shape,
            "verify": args.verify,
        },
        [r["row"] for r in rows],
        mismatches,
    )
    _emit(doc, out)
    return 2 if mismatches else 0


def _parse_symbols(text: str) -> dict:
    symbols = {}
    if not text:
        return symbols
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            indices, value = part.split("=")
            k, j = (int(x) for x in indices.split(","))
            symbols[(k, j)] = int(value)
        except ValueError as exc:
            raise UsageError(f"bad symbol constraint {part!r}") from exc
    return symbols


def _cmd_find_primes(args, out) -> int:
    residues = tuple(int(x) for x in args.mod8.split(","))
    try:
        spec = SymbolSpec.of(residues, _parse_symbols(args.symbols))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    primes = find_prime_tuple(spec, args.bound)
    doc = _document(
        "find-primes",
        {"mod8": list(residues), "symbols": args.symbols, "bound": args.bound},
        {"primes": primes, "verified": True},
    )
    _emit(doc, out)
    return 0


def _cmd_verify(args, out) -> int:
    # one pass that keeps counts, findings and mismatches, and no row
    fields = verified_ok = out_of_range = 0
    findings, mismatches = [], []
    for r in _sweep_rows(args, True):
        d, status = r["row"]["d"], r["row"]["oracle_status"]
        fields += 1
        verified_ok += status == "ok"
        out_of_range += status == "out-of-range"
        if r["findings"]:
            findings.append({"d": d, "findings": r["findings"]})
        if r["mismatches"]:
            mismatches.append({"d": d, "checks": r["mismatches"]})
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
    _emit(doc, out)
    return 2 if mismatches else 0


def _cmd_unit(args, out) -> int:
    fu = fundamental_unit(args.d)
    doc = _document(
        "unit",
        {"d": args.d},
        {
            "a": str(fu.value.a),
            "b": str(fu.value.b),
            "norm": fu.norm,
            "cf_period": fu.cf_period,
        },
    )
    _emit(doc, out)
    return 0


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
    _emit(doc, out)
    return 0


def _cmd_s1s2(args, out) -> int:
    s1, s2 = splitting_sets(args.D)
    doc = _document(
        "s1s2",
        {"D": args.D},
        {
            "S1": [list(dec.as_pair()) for dec in s1],
            "S2": [list(dec.as_pair()) for dec in s2],
            "count_S1": len(s1),
            "count_S2": len(s2),
            "narrow_two_elementary": len(s2) == 1,
        },
    )
    _emit(doc, out)
    return 0


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
    p.add_argument("--shape", help='pattern filter such as "p,p,q,q"')
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
    except (NotSquarefree, NotFoundWithinBound, ValueError) as exc:
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
