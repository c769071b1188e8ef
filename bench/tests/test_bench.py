"""Tests of the benchmark's own code: seeded inputs and output checkers.

Run from the repository root with ``python -m pytest bench/tests -q``.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from twoclass import cli  # noqa: E402

SWEEPS = ("verify_sweep", "predict_sweep")


def _run(argv):
    out = io.StringIO()
    rc = cli.run(argv, out)
    return rc, out.getvalue()


@pytest.mark.parametrize("workload", SWEEPS)
def test_sweep_inputs_repeat_for_a_seed(workload):
    assert workloads.sweep_commands(workload, 7) == workloads.sweep_commands(workload, 7)
    assert workloads.sweep_commands(workload, 7) != workloads.sweep_commands(workload, 8)


def test_sweep_windows_stay_in_their_strata():
    for seed in range(20):
        windows = workloads.verify_windows(seed)
        assert len(windows) == workloads.VERIFY_STRATA
        assert windows[0][0] >= 3 and windows[-1][1] <= workloads.VERIFY_LIMIT
        assert all(a[1] <= b[0] for a, b in zip(windows, windows[1:]))
        windows = workloads.predict_windows(seed)
        assert windows[0][0] >= workloads.PREDICT_BASE
        assert windows[-1][1] <= workloads.PREDICT_BASE + workloads.PREDICT_SPAN


def test_field_queries_repeat_for_a_seed_and_mix_evenly():
    first = workloads.field_queries(3, 40)
    assert first == workloads.field_queries(3, 40)
    assert first != workloads.field_queries(4, 40)
    kinds = [q[0] + ("-ordinary" if "--ordinary" in q else "") for q in first]
    assert {k: kinds.count(k) for k in set(kinds)} == {
        "classify": 10,
        "classgroup": 10,
        "classgroup-ordinary": 10,
        "unit": 10,
    }
    shapes = set()
    for q in first:
        if q[0] == "classify":
            primes = workloads.small_factor(int(q[1]))
            shapes.add(tuple(sorted(p % 8 for p in primes)))
    assert shapes == set(workloads.SHAPES)


def test_independent_squarefree_count_matches_brute_force():
    def brute(lo, hi):
        return [
            n
            for n in range(max(lo, 3), hi)
            if n % 2 and all(n % (p * p) for p in range(2, int(n**0.5) + 1))
        ]

    for lo, hi in ((3, 500), (1000, 1300), (999_900, 1_000_000)):
        assert workloads.odd_squarefree(lo, hi) == brute(lo, hi)
    # square-free d just below 10^9 have no prime square divisor in the table
    assert workloads.is_squarefree(999_080_515)
    assert not workloads.is_squarefree(31_607**2)


def test_schema_columns_match_the_program():
    text = (ROOT / "docs" / "report-schema.md").read_text()
    assert checks.schema_csv_columns(text) == cli.CSV_COLUMNS


def test_verify_checker_rejects_corruption():
    rc, text = _run(["verify", "--min", "3", "--max", "300"])
    assert checks.check_verify(rc, text, 3, 300) == []
    doc = json.loads(text)
    doc["results"]["fields"] += 1
    assert checks.check_verify(rc, json.dumps(doc), 3, 300)
    doc = json.loads(text)
    doc["mismatches"] = [{"d": 5, "checks": []}]
    assert checks.check_verify(2, json.dumps(doc), 3, 300)
    assert checks.check_verify(rc, text[:-20], 3, 300)


def test_enumerate_checker_rejects_corruption():
    columns = cli.CSV_COLUMNS
    rc, text = _run(["enumerate", "--csv", "--min", "3", "--max", "300"])
    assert checks.check_enumerate_csv(rc, text, 3, 300, columns) == []
    lines = text.splitlines(keepends=True)
    swapped = lines[0].replace("rank_K,rank_Kprime", "rank_Kprime,rank_K")
    assert checks.check_enumerate_csv(rc, swapped + "".join(lines[1:]), 3, 300, columns)
    assert checks.check_enumerate_csv(rc, "".join(lines[:-1]), 3, 300, columns)
    assert checks.check_enumerate_csv(rc, text.replace(",skipped", ",ok", 1), 3, 300, columns)


def test_classgroup_checker_rejects_corruption():
    for argv in (["classgroup", "5460"], ["classgroup", "5460", "--ordinary"]):
        rc, text = _run(argv)
        assert checks.check_classgroup(rc, text, 5460) == []
        doc = json.loads(text)
        doc["results"]["classes"].pop()
        assert checks.check_classgroup(rc, json.dumps(doc), 5460)
        doc = json.loads(text)
        doc["results"]["order"] *= 2
        assert checks.check_classgroup(rc, json.dumps(doc), 5460)
        doc = json.loads(text)
        a, b, c = doc["results"]["classes"][0]
        doc["results"]["classes"][0] = [a, b, c + 1]
        assert checks.check_classgroup(rc, json.dumps(doc), 5460)


def test_unit_checker_rejects_corruption():
    rc, text = _run(["unit", "94"])
    assert checks.check_unit(rc, text, 94) == []
    doc = json.loads(text)
    doc["results"]["a"] = str(int(doc["results"]["a"]) + 1)
    assert checks.check_unit(rc, json.dumps(doc), 94)
    doc = json.loads(text)
    doc["results"]["norm"] = -doc["results"]["norm"]
    assert checks.check_unit(rc, json.dumps(doc), 94)


def test_classify_checker_rejects_corruption():
    argv = ["classify", "3045", "--verify"]
    rc, text = _run(argv)
    assert checks.check_classify(rc, text, 3045) == []
    doc = json.loads(text)
    doc["results"]["oracle"]["ok"] = False
    assert checks.check_classify(rc, json.dumps(doc), 3045)
    assert checks.check_classify(rc, text, 3045 * 7)
    rc, text = _run(["classify", "3045"])
    assert checks.check_classify(rc, text, 3045)


def test_traced_command_counts_two_predictions_per_field():
    job = {
        "mode": "command",
        "src": str(ROOT / "src"),
        "argv": ["verify", "--min", "3", "--max", "120"],
        "trace": True,
        "spans": str(ROOT / "bench" / "out" / "spans" / "test.tsv"),
    }
    got = subprocess.run(
        [sys.executable, "-I", str(ROOT / "bench" / "child.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    reply = json.loads(got.stdout)
    fields = json.loads(reply["queries"][0]["out"])["results"]["fields"]
    rows = reply["layers"]["boundaries"]
    assert rows["classify.predict"][0] == 2 * fields
    assert rows["cli.run"][0] == 1
    for calls, total, self_ns in rows.values():
        assert 0 <= self_ns <= total
    assert reply["layers"]["counters"]["forms.classes"] > 0
