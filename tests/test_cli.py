import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import weakref

import pytest

import twoclass.arith as arith
import twoclass.cli as cli
from twoclass.arith import squarefree_range
from twoclass.classify import OracleCheck, OracleComparison
from twoclass.forms import class_group_summary


def run_json(argv):
    out = io.StringIO()
    code = cli.run(argv, out)
    text = out.getvalue()
    doc = json.loads(text) if text.strip().startswith("{") else None
    return code, doc, text


def test_classify_document():
    code, doc, _ = run_json(["classify", "1365"])
    assert code == 0
    assert doc["schema_version"] == "1"
    assert doc["command"] == "classify"
    assert doc["inputs"] == {"d": 1365, "verify": False}
    report = doc["results"]["report"]
    assert report["rank_K"]["value"] == 2
    assert report["structure_K1"]["value"] == [2, 4]
    assert doc["mismatches"] == []
    # document round-trips losslessly
    assert json.loads(json.dumps(doc)) == doc


def test_classify_with_verify():
    code, doc, _ = run_json(["classify", "1365", "--verify"])
    assert code == 0
    oracle = doc["results"]["oracle"]
    assert oracle["ok"] is True
    names = [c["name"] for c in oracle["checks"]]
    assert "order A(K1) via Kuroda" in names


def test_classify_rejects_bad_d():
    code, _, _ = run_json(["classify", "12"])
    assert code == 1
    code, _, _ = run_json(["classify", "70"])  # even radicand
    assert code == 1


def test_usage_error_exit_1():
    assert cli.run(["nosuchcommand"], io.StringIO()) == 1
    assert cli.run(["enumerate", "--min", "9", "--max", "5"], io.StringIO()) == 1
    assert cli.run([], io.StringIO()) == 1


def test_enumerate_json_and_csv():
    code, doc, _ = run_json(["enumerate", "--min", "3", "--max", "120"])
    assert code == 0
    rows = doc["results"]
    assert [r["d"] for r in rows] == sorted(r["d"] for r in rows)
    assert all(r["d"] % 2 == 1 for r in rows)
    out = io.StringIO()
    code = cli.run(["enumerate", "--min", "3", "--max", "120", "--csv"], out)
    assert code == 0
    lines = out.getvalue().strip().splitlines()
    assert lines[0].split(",") == cli.CSV_COLUMNS
    assert len(lines) == len(rows) + 1


def test_enumerate_deterministic():
    _, doc1, text1 = run_json(["enumerate", "--min", "3", "--max", "200"])
    _, doc2, text2 = run_json(["enumerate", "--min", "3", "--max", "200"])
    assert text1 == text2


def test_enumerate_sieves_only_the_window(monkeypatch):
    # the sweep's sieve holds the primes up to sqrt(--max), not --max
    # entries; the one prime of a d beyond it is tested once, as the sieve
    # yields d, and the field's layers read it from there
    monkeypatch.setattr(arith, "_spf", [])
    arith._is_prime_beyond_sieve.cache_clear()
    argv = ["enumerate", "--csv", "--min", "1000000", "--max", "1002000"]
    assert cli.run(argv, io.StringIO()) == 0
    assert len(arith._spf) <= 4096
    tests = arith._is_prime_beyond_sieve.cache_info()
    # one test at most per odd square-free d: the even d are never factored
    odd = list(squarefree_range(1000001, 1002000, 2))
    assert tests.misses <= len(odd)
    # only the 2-power residue test of the first-layer rank checks a prime
    # again, and only a prime = 1 (mod 8)
    assert tests.hits <= sum(1 for fs in odd if fs.primes[-1] % 8 == 1)


def test_cli_import_loads_no_process_pool():
    # sweeps run in process; a pool import would cost every CLI start, and
    # so would dataclasses, which loads inspect, ast, dis and tokenize
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    probe = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import twoclass.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing', "
        "'dataclasses') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_package_import_loads_every_module_but_the_cli():
    # the package init is eager: the benchmark's tracer reads every module
    # from sys.modules right after `import twoclass`
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    probe = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import twoclass; "
        "print(sorted(m[9:] for m in sys.modules if m.startswith('twoclass.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    modules = "arith biquad classify forms genus quadfield redei".split()
    assert proc.stdout.strip() == str(modules)


def test_cli_import_builds_no_parser_and_imports_nothing_new():
    # the parser is built by the first run(), not at import; importing the
    # CLI loads no module beyond what its own imports load
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    probe = (
        f"import sys; sys.path.insert(0, {str(src)!r}); "
        "import argparse, csv, functools, json; "
        "import twoclass.arith, twoclass.classify, twoclass.forms; "
        "import twoclass.quadfield, twoclass.redei; "
        "before = set(sys.modules); import twoclass.cli as cli; "
        "print(sorted(set(sys.modules) - before), "
        "cli._build_parser.cache_info().currsize)"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "['twoclass.cli'] 0"


def test_enumerate_shape_filter():
    code, doc, _ = run_json(
        ["enumerate", "--min", "1300", "--max", "1400", "--shape", "p,p,q,q"]
    )
    assert code == 0
    ds = [r["d"] for r in doc["results"]]
    assert 1365 in ds
    assert all(r["shape"] == "p,p,q,q" for r in doc["results"])


def test_find_primes():
    code, doc, _ = run_json(
        ["find-primes", "--mod8", "5,5,7,3", "--symbols", "2,1=-1;3,1=-1;4,3=-1"]
    )
    assert code == 0
    primes = doc["results"]["primes"]
    assert [p % 8 for p in primes] == [5, 5, 7, 3]
    assert doc["results"]["verified"] is True


def test_find_primes_bad_residue():
    code, _, _ = run_json(["find-primes", "--mod8", "4,5"])
    assert code == 1
    code, _, _ = run_json(["find-primes", "--mod8", "5,5", "--symbols", "zzz"])
    assert code == 1


def test_unit_command():
    code, doc, _ = run_json(["unit", "5"])
    assert code == 0
    assert doc["results"] == {"a": "1/2", "b": "1/2", "norm": -1, "cf_period": 1}


def test_classgroup_command():
    code, doc, _ = run_json(["classgroup", "40", "--narrow"])
    assert code == 0
    assert doc["results"]["order"] == 2
    assert doc["results"]["structure"] == [2]
    code, doc, _ = run_json(["classgroup", "60", "--ordinary"])
    assert code == 0
    assert doc["results"]["order"] == 2
    code, doc, _ = run_json(["classgroup", "1365"])
    assert doc["results"]["two_sylow"] == [2, 2, 2]


# Runs argv[1:] as a twoclass command, its only child, and prints that
# command's peak RSS in KiB to stderr.
_PEAK_RSS_PROBE = """
import resource, subprocess, sys
code = subprocess.run([sys.executable, "-m", "twoclass.cli", *sys.argv[1:]]).returncode
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)
sys.exit(code)
"""


def test_classgroup_of_a_large_discriminant_in_bounded_memory():
    # the oracle's sieve once had D/4 entries, and this died with MemoryError
    D = 400000001
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_PROBE, "classgroup", str(D)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    res = json.loads(proc.stdout)["results"]
    assert len(res["classes"]) == res["order"] == math.prod(res["structure"])
    forms = [tuple(f) for f in res["classes"]]
    assert len(set(forms)) == len(forms)
    assert all(b * b - 4 * a * c == D for a, b, c in forms)
    peak_mb = int(proc.stderr.split()[-1]) / 1024
    assert peak_mb < 64, peak_mb


def test_classgroup_of_a_non_fundamental_discriminant_in_a_small_sieve(monkeypatch):
    # the reduced-form enumeration factors (D - b^2)/4 by the primes up to
    # sqrt(D)/2; it once sieved D/4 + 1 = 1000002 entries here
    monkeypatch.setattr(arith, "_spf", [])
    code, doc, _ = run_json(["classgroup", "4000004"])
    assert code == 0
    assert len(arith._spf) <= 4096
    res = doc["results"]
    assert len(res["classes"]) == res["order"] == math.prod(res["structure"])


def test_classgroup_ordinary_non_fundamental():
    # the quotient comes from the discriminant alone, so orders that are
    # not maximal (45 = 9 * 5, 48, 72, 80) work like fundamental ones
    for D in (45, 48, 72, 80):
        code, doc, _ = run_json(["classgroup", str(D), "--ordinary"])
        assert code == 0, D
        assert doc["results"]["order"] == class_group_summary(D).h_ordinary, D


def test_s1s2_command():
    code, doc, _ = run_json(["s1s2", "40"])
    assert code == 0
    assert doc["results"]["S1"] == [[1, 40], [5, 8]]
    assert doc["results"]["S2"] == [[1, 40]]
    assert doc["results"]["narrow_two_elementary"] is True


def test_verify_small_range_exit_0():
    code, doc, _ = run_json(["verify", "--max", "300"])
    assert code == 0
    assert doc["mismatches"] == []
    odd = [fs.value for fs in squarefree_range(3, 300) if fs.value % 2]
    assert doc["results"]["fields"] == len(odd)
    assert doc["results"]["verified_ok"] == len(odd)
    assert doc["results"]["findings"] == []


def test_verify_surfaces_findings_without_failing():
    # 3045 is the smallest ppqq-converse counterexample; it must appear in
    # the findings list while the run still exits 0
    code, doc, _ = run_json(["verify", "--min", "3040", "--max", "3050"])
    assert code == 0
    found = doc["results"]["findings"]
    assert any(f["d"] == 3045 for f in found)


def _fail_every_check(monkeypatch):
    bad = OracleComparison(
        15, (OracleCheck("rank A(K)", 1, 2),), ()
    )
    monkeypatch.setattr(cli, "verify_against_oracle", lambda d, limit: bad)


def test_verify_mismatch_exit_2(monkeypatch):
    _fail_every_check(monkeypatch)
    code, doc, _ = run_json(["verify", "--max", "20"])
    assert code == 2
    assert doc["mismatches"]


def _rows_alive(monkeypatch, argv):
    """(rows built, most rows alive when a row is built) for one run."""

    class Row(dict):
        pass

    refs = []
    most_alive = 0
    real = cli._row_for

    def tracked(*args):
        nonlocal most_alive
        most_alive = max(most_alive, sum(1 for ref in refs if ref() is not None))
        row = Row(real(*args))
        refs.append(weakref.ref(row))
        return row

    monkeypatch.setattr(cli, "_row_for", tracked)
    assert cli.run(argv, io.StringIO()) == 0
    return len(refs), most_alive


def test_verify_holds_no_rows(monkeypatch):
    # verify folds each row into its counts and lists as it comes: when a
    # row is built, at most the one before it is still alive
    built, most_alive = _rows_alive(monkeypatch, ["verify", "--max", "2000"])
    assert built > 800
    assert most_alive <= 1


def test_enumerate_csv_streams_its_rows(monkeypatch):
    # enumerate --csv writes each row as it comes, so it holds no sweep
    argv = ["enumerate", "--max", "2000", "--verify", "--csv"]
    built, most_alive = _rows_alive(monkeypatch, argv)
    assert built > 800
    assert most_alive <= 1


def test_oracle_range_exit_3():
    code, _, _ = run_json(["classify", "3000003", "--verify"])
    assert code == 3


def test_classgroup_oracle_limit(capsys):
    # past the limit, before any sieve: a D >= 2**64 once asked for a
    # sieve of sqrt(D) entries and died with MemoryError
    for D in (2**64 + 13, cli.SQRT_SIEVE_LIMIT + 1):
        for variant in ([], ["--ordinary"]):
            argv = ["classgroup", str(D), *variant]
            capsys.readouterr()
            code, doc, text = run_json(argv)
            assert code == 3 and doc is None and text == "", argv
            err = capsys.readouterr().err
            assert err.startswith("error: discriminant") and err.count("\n") == 1
    # the limit admits every D the tests and the benchmark ask about
    assert cli.SQRT_SIEVE_LIMIT >= 4 * 10**6


def test_input_beyond_2_64_names_the_supported_range(capsys):
    big = str(2**64 + 13)  # a prime
    for argv, name in (
        (["classify", big], "d"),
        (["unit", big], "d"),
        (["s1s2", big], "D"),
    ):
        capsys.readouterr()
        assert run_json(argv) == (1, None, ""), argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} has a factor of 2**64 or more"), (
            argv,
            err,
        )
        assert err.count("\n") == 1, argv
    # the rule is on the factors: 3 * (2**63 - 25) >= 2**64 has prime
    # factors below 2**64 and is answered
    composite = str(3 * (2**63 - 25))
    for argv in (["classify", composite], ["s1s2", composite]):
        code, doc, _ = run_json(argv)
        assert code == 0 and doc["command"] == argv[0], argv


GOLDEN_STDOUT = {
    ("verify", "--max", "4000"): (
        "c7948d9d35d014d06770ce42ebcd36ab5f3a4c5d5a1bc69d408cad4a84a631e4"
    ),
    ("enumerate", "--max", "4000", "--verify", "--csv"): (
        "9101ea7a5aa53f2593807476fa73806fe622c530c59f5c8f28dff0805865cfcf"
    ),
    ("classify", "1365", "--verify"): (
        "6ab75e9d092ef34222bd708350a3e8907c274de8593ca338381d5989f565ed78"
    ),
    # the smallest ppqq-converse finding
    ("classify", "3045", "--verify"): (
        "f16d5f4b6b3bdcbe8adbb796e7c444064bf58cbaf8f73552cd4d43f428310d31"
    ),
    # qqqq condition 1 with labeling (7, 19, 3, 11)
    ("classify", "4389", "--verify"): (
        "b7a49cee4a7f94ec7a36d9a7ef9ec942637fbe265d5cd1deba91de3b779ba70c"
    ),
    # predictions only, with primes beyond the window sieve's 4096 entries
    ("enumerate", "--csv", "--min", "1000000", "--max", "1002000"): (
        "0f4713fb83bf1940fb7bd010ebbdddcc9cfe1c5a1af98fd538a00b08e8b15ae3"
    ),
    # a non-fundamental D (= 4 mod 16): the conductor's prime-power forms
    ("classgroup", "400000020"): (
        "554d3b54428f64ad485121e8a855d47ff45285a323bd216e4c07efd588c6555e"
    ),
    ("classgroup", "400000020", "--ordinary"): (
        "311f2935aa2e35d17e5948c3b18e3566dc10e0aa4ccaf41e4acb68a1e5ee48ca"
    ),
}


def test_stdout_is_byte_identical_to_the_golden_documents():
    # any change to a check, a finding, a claim or the emitters shows here
    for argv, digest in GOLDEN_STDOUT.items():
        out = io.StringIO()
        assert cli.run(list(argv), out) == 0, argv
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest, argv


@pytest.mark.parametrize(
    "argv", [["enumerate", "--max", "20000"], ["classify", "1365"]]
)
def test_closed_stdout_exits_1_with_one_line(argv):
    # stdout is a pipe whose reader is gone, as under `| head -1` once head
    # has exited: a long document fails as it is written, a short one as
    # stdout is flushed before exit
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "twoclass.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "error: stdout was closed before the output was written"
    ]


def test_sweeps_reject_empty_range_and_bad_threads(capsys):
    bad = [
        [command, *extra]
        for command in ("verify", "enumerate")
        for extra in (
            ["--min", "10", "--max", "5"],
            ["--min", "10", "--max", "10"],
            # --threads is no option: an unknown option is a usage error
            ["--max", "50", "--threads", "0"],
            ["--max", "50", "--threads", "-2"],
            ["--max", "50", "--threads", "2"],
            # past the bound on the window sieve, before any sieve is built
            ["--max", str(10**18)],
            ["--min", str(2**64), "--max", str(2**64 + 100)],
        )
    ]
    # every limit is a positive int: the oracle limit on all three oracle
    # commands, and the search bound of find-primes
    for command in (
        ["classify", "15"],
        ["enumerate", "--max", "40"],
        ["verify", "--max", "40"],
    ):
        for limit in ("0", "-3"):
            bad.append([*command, "--oracle-limit", limit])
    for bound in ("0", "-4"):
        bad.append(["find-primes", "--mod8", "5", "--bound", bound])
    for argv in bad:
        capsys.readouterr()
        code, doc, text = run_json(argv)
        assert code == 1, argv
        assert doc is None and text == ""
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1, argv


def test_sweep_predicts_once_per_field(monkeypatch):
    calls = []
    real = cli.predict

    def counting(d):
        calls.append(int(d))
        return real(d)

    monkeypatch.setattr(cli, "predict", counting)
    monkeypatch.setattr("twoclass.classify.predict", counting)
    code, doc, _ = run_json(["verify", "--max", "200"])
    assert code == 0
    assert sorted(calls) == sorted(set(calls))
    assert len(calls) == doc["results"]["fields"]
    calls.clear()
    code, doc, _ = run_json(["classify", "1365", "--verify"])
    assert code == 0 and calls == [1365]


def test_emit_rejects_objects_that_are_not_json():
    with pytest.raises(TypeError):
        cli._emit({"x": object()}, io.StringIO())


def test_enumerate_verifies_only_rows_of_the_shape(monkeypatch):
    calls = []
    real = cli.verify_against_oracle

    def counting(report, limit):
        calls.append(report.d)
        return real(report, limit)

    monkeypatch.setattr(cli, "verify_against_oracle", counting)
    argv = ["enumerate", "--max", "2000", "--shape", "p,p,q,q", "--verify"]
    code, doc, _ = run_json(argv)
    assert code == 0
    rows = doc["results"]
    assert rows and all(r["shape"] == "p,p,q,q" for r in rows)
    assert calls == [r["d"] for r in rows]
