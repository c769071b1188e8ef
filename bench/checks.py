"""Output checks.  Each checker takes a command's exit code and stdout text
and returns a list of problems; an empty list means the output passed."""

from __future__ import annotations

import csv
import io
import json
import math
import re
from fractions import Fraction

from workloads import odd_squarefree


def _document(text: str, command: str, problems: list[str]):
    try:
        doc = json.loads(text)
    except ValueError as exc:
        problems.append(f"stdout is not one JSON document: {exc}")
        return None
    if not isinstance(doc, dict) or doc.get("command") != command:
        problems.append(f"not a {command} document")
        return None
    return doc


def check_verify(rc: int, text: str, lo: int, hi: int) -> list[str]:
    problems: list[str] = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    doc = _document(text, "verify", problems)
    if doc is None:
        return problems
    res = doc["results"]
    expected = len(odd_squarefree(lo, hi))
    if doc["mismatches"]:
        problems.append(f"{len(doc['mismatches'])} mismatches")
    if res["fields"] != expected:
        problems.append(f"fields {res['fields']} != independent count {expected}")
    if res["out_of_range"] != 0:
        problems.append(f"{res['out_of_range']} fields out of oracle range")
    if res["verified_ok"] != res["fields"]:
        problems.append(f"verified_ok {res['verified_ok']} != fields {res['fields']}")
    return problems


def schema_csv_columns(schema_text: str) -> list[str]:
    """The enumerate row columns as docs/report-schema.md lists them."""
    section = schema_text.split("## enumerate", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"`\{([^}]*)\}`", section)
    if match is None:
        raise ValueError("no row column list in the enumerate section")
    return [c.strip() for c in match.group(1).split(",")]


def check_enumerate_csv(rc: int, text: str, lo: int, hi: int, columns: list[str]) -> list[str]:
    problems: list[str] = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != columns:
        problems.append(f"CSV header {rows[0] if rows else None} != schema {columns}")
        return problems
    body = rows[1:]
    expected = odd_squarefree(lo, hi)
    try:
        got = [int(r[0]) for r in body]
    except (ValueError, IndexError):
        return problems + ["a row has no integer d"]
    if got != expected:
        problems.append(f"{len(got)} rows, expected the {len(expected)} odd square-free d in order")
    status = columns.index("oracle_status")
    ranks = [columns.index(c) for c in ("rank_K", "rank_Kprime", "rank_K1")]
    for r in body:
        if len(r) != len(columns):
            problems.append(f"row for d = {r[0]} has {len(r)} columns")
            break
        if r[status] != "skipped":
            problems.append(f"d = {r[0]}: oracle_status {r[status]!r} without --verify")
            break
        if not all(r[i].isdigit() for i in ranks):
            problems.append(f"d = {r[0]}: a rank is not a non-negative integer")
            break
    return problems


def check_classgroup(rc: int, text: str, D: int) -> list[str]:
    problems: list[str] = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    doc = _document(text, "classgroup", problems)
    if doc is None:
        return problems
    res = doc["results"]
    classes = res["classes"]
    if not (len(classes) == res["order"] == math.prod(res["structure"])):
        problems.append(
            f"len(classes) {len(classes)}, order {res['order']} and "
            f"prod(structure) {math.prod(res['structure'])} differ"
        )
    if any(b * b - 4 * a * c != D for a, b, c in classes):
        problems.append("a class form has the wrong discriminant")
    if len({tuple(f) for f in classes}) != len(classes):
        problems.append("duplicate class representatives")
    two = sorted(f & -f for f in res["structure"] if f & -f > 1)
    if sorted(res["two_sylow"]) != two:
        problems.append(f"two_sylow {res['two_sylow']} != 2-parts of {res['structure']}")
    return problems


def check_unit(rc: int, text: str, d: int) -> list[str]:
    problems: list[str] = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    doc = _document(text, "unit", problems)
    if doc is None:
        return problems
    res = doc["results"]
    a = Fraction(res["a"])
    b = Fraction(res["b"])
    if a * a - d * b * b != res["norm"]:
        problems.append("a^2 - d b^2 != norm")
    if res["norm"] not in (-1, 1) or res["norm"] != (-1) ** res["cf_period"]:
        problems.append(f"norm {res['norm']} disagrees with period {res['cf_period']}")
    if a <= 0 or b <= 0:
        problems.append("unit is not > 1")
    return problems


def check_classify(rc: int, text: str, d: int) -> list[str]:
    problems: list[str] = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    doc = _document(text, "classify", problems)
    if doc is None:
        return problems
    if doc["results"]["report"]["d"] != d:
        problems.append("report is for another d")
    oracle = doc["results"].get("oracle")
    if not oracle or oracle.get("ok") is not True:
        problems.append("oracle.ok is not true")
    if doc["mismatches"]:
        problems.append(f"{len(doc['mismatches'])} mismatches")
    return problems


def check_command(argv: list[str], rc: int, text: str, columns: list[str]) -> list[str]:
    """Dispatch on the subcommand of a generated argument list."""
    cmd = argv[0]

    def opt(name):
        return int(argv[argv.index(name) + 1])

    if cmd == "verify":
        return check_verify(rc, text, opt("--min"), opt("--max"))
    if cmd == "enumerate":
        return check_enumerate_csv(rc, text, opt("--min"), opt("--max"), columns)
    if cmd == "classgroup":
        return check_classgroup(rc, text, int(argv[1]))
    if cmd == "unit":
        return check_unit(rc, text, int(argv[1]))
    if cmd == "classify":
        return check_classify(rc, text, int(argv[1]))
    raise KeyError(cmd)
