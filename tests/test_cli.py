import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import time
import weakref

import pytest

import twoclass.arith as arith
import twoclass.classify as classify
import twoclass.cli as cli
import twoclass.genus as genus
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


def count_prime_tests(monkeypatch):
    # clear the report memo so every signature is assembled again
    monkeypatch.setattr(classify, "_TEMPLATES", {})
    is_prime, tested = arith.is_prime, []

    def counted(n):
        tested.append(n)
        return is_prime(n)

    for module in (arith, classify, genus):
        monkeypatch.setattr(module, "is_prime", counted)
    return tested


def test_enumerate_sieves_only_the_window(monkeypatch):
    # the sweep's sieve holds the primes up to sqrt(--max) and proves every
    # prime of each d: no smallest-prime-factor table is grown, no record is
    # checked again, and the 2-power residue test of the first-layer rank
    # trusts the record it is given, so no prime is tested
    monkeypatch.setattr(arith, "_spf", [])
    tested = count_prime_tests(monkeypatch)

    def boom(*args, **kwargs):
        raise AssertionError("the sieve already proved these primes")

    monkeypatch.setattr(arith.FactoredSquarefree, "__new__", boom)
    argv = ["enumerate", "--csv", "--min", "1000000", "--max", "1002000"]
    assert cli.run(argv, io.StringIO()) == 0
    assert arith._spf == []
    assert tested == []


def test_verify_tests_no_prime_again(monkeypatch):
    # the oracle sweep takes its records from the same sieve
    tested = count_prime_tests(monkeypatch)
    assert cli.run(["verify", "--max", "4000"], io.StringIO()) == 0
    assert tested == []


def test_factorize_tests_only_what_trial_division_leaves_open(monkeypatch):
    # with no sieve, trial division proves a cofactor below the square of the
    # next trial prime, and the prime discriminants trust factorize
    monkeypatch.setattr(arith, "_spf", [])
    tested = count_prime_tests(monkeypatch)
    genus.prime_discriminants(10920)
    assert tested == []
    assert cli.run(["s1s2", "56000168"], io.StringIO()) == 0
    assert tested == []
    # a cofactor left after every trial prime is tested, and so is each part
    # Pollard rho splits it into
    arith.factorize(5 * 1000003 * 1000033)
    assert sorted(tested) == [1000003, 1000033, 1000036000099]


def test_cli_import_loads_no_process_pool():
    # sweeps run in process; a pool import would cost every CLI start, and
    # so would dataclasses, which loads inspect, ast, dis and tokenize, and
    # fractions, which loads decimal: units are integer pairs
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    probe = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import twoclass.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing', "
        "'dataclasses', 'fractions') if m in sys.modules))"
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
    # an empty --shape is no filter
    _, every, _ = run_json(["enumerate", "--min", "1300", "--max", "1400"])
    _, empty, _ = run_json(
        ["enumerate", "--min", "1300", "--max", "1400", "--shape", ""]
    )
    assert empty["results"] == every["results"] and len(every["results"]) > len(ds)


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


def test_find_primes_past_its_search_bound_exits_1_with_one_line(capsys):
    code, doc, text = run_json(["find-primes", "--mod8", "1", "--bound", "2"])
    assert code == 1 and doc is None and text == ""
    err = capsys.readouterr().err
    assert err == "error: no prime found for coordinate 1 within 2 steps\n"


@pytest.mark.parametrize("symbols", ["2,1=1;2,1=-1", "2,1=-1;2,1=-1"])
def test_find_primes_refuses_a_repeated_symbol(symbols, capsys):
    # a contradictory repeat has no answer, and an identical one is refused
    # by the same rule: SymbolSpec sees every pair as written
    code, doc, text = run_json(["find-primes", "--mod8", "5,5", "--symbols", symbols])
    assert code == 1 and doc is None and text == ""
    err = capsys.readouterr().err
    assert err == "usage error: duplicate symbol (2,1)\n"


def test_unit_command():
    code, doc, _ = run_json(["unit", "5"])
    assert code == 0
    assert doc["results"] == {"a": "1/2", "b": "1/2", "norm": -1, "cf_period": 1}


def test_unit_stdout_is_byte_identical_for_every_squarefree_d_below_10_4():
    # half-integer and integer coordinates, both norms, every period length
    out = io.StringIO()
    count = 0
    for fs in squarefree_range(2, 10**4):
        assert cli.run(["unit", str(fs.value)], out) == 0, fs.value
        count += 1
    assert count == 6082
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "fbaa73f906caa4528aa6c1d97cfb5c8ae1fd1064df40eafe6f1dfbeadf0e28e2"
    )


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
    monkeypatch.setattr(classify, "verify_against_oracle", lambda d, limit: bad)


def test_verify_mismatch_exit_2(monkeypatch):
    # each sweep document lists the failed checks of every field it covers
    _fail_every_check(monkeypatch)
    odd = [3, 5, 7, 11, 13, 15, 17, 19]
    check = {"name": "rank A(K)", "predicted": 1, "observed": 2, "ok": False}
    code, doc, _ = run_json(["verify", "--max", "20"])
    assert code == 2
    assert doc["mismatches"] == [{"d": d, "checks": [check]} for d in odd]
    assert doc["results"]["verified_ok"] == 0 and doc["results"]["fields"] == 8
    code, doc, _ = run_json(["enumerate", "--max", "20", "--verify"])
    assert code == 2
    assert doc["mismatches"] == [check] * len(odd)
    assert [r["oracle_status"] for r in doc["results"]] == ["mismatch"] * len(odd)
    code, _, text = run_json(["enumerate", "--max", "20", "--verify", "--csv"])
    assert code == 2
    lines = text.splitlines()
    assert lines[0].split(",")[-1] == "oracle_status"
    assert [line.split(",")[0] for line in lines[1:]] == [str(d) for d in odd]
    assert [line.split(",")[-1] for line in lines[1:]] == ["mismatch"] * len(odd)


def _rows_alive(monkeypatch, argv):
    """(sweep results built, most results alive when one is built) for one
    run; each result is copied into an object that a weakref can follow."""

    class Result:
        def __init__(self, result):
            self.report, self.status, self.comparison = result

    refs = []
    most_alive = 0
    real = cli.sweep

    def tracked(*args, **kwargs):
        nonlocal most_alive
        for result in real(*args, **kwargs):
            most_alive = max(most_alive, sum(1 for ref in refs if ref() is not None))
            result = Result(result)
            refs.append(weakref.ref(result))
            yield result

    monkeypatch.setattr(cli, "sweep", tracked)
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


def test_enumerate_json_builds_each_row_as_its_field_comes(monkeypatch):
    # the JSON document holds every row, but no sweep result: each row and
    # its mismatches are built as the result comes, and the result dropped
    built, most_alive = _rows_alive(monkeypatch, ["enumerate", "--max", "2000"])
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


def test_unit_refuses_d_past_the_limit_before_factoring(capsys):
    # unit 1000000000000000003 once ran past 20 s with its RSS growing
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    d = "1000000000000000003"
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "twoclass.cli", "unit", d],
        env=env,
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert time.monotonic() - start < 2
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == f"error: d {d} exceeds unit limit {cli.SQRT_SIEVE_LIMIT}\n"
    for d in (cli.SQRT_SIEVE_LIMIT + 1, 2**64 + 13):
        capsys.readouterr()
        assert run_json(["unit", str(d)]) == (3, None, "")
        assert capsys.readouterr().err.startswith(f"error: d {d} exceeds unit limit")
    # the limit admits every unit d the benchmark asks about
    assert cli.SQRT_SIEVE_LIMIT >= 10**9


def test_input_beyond_2_64_names_the_supported_range(capsys):
    big = str(2**64 + 13)  # a prime
    # unit refuses such a d at its limit, before factoring
    for argv, name in ((["classify", big], "d"), (["s1s2", big], "D")):
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["unit", "1"], "error: real quadratic field needs square-free d >= 2"),
        (["unit", "12"], "error: 2**2 divides 12"),
        (["unit", "0"], "error: factorize expects n >= 1"),
        (["classify", "10"], "error: predictions are for odd square-free d >= 3"),
    ],
)
def test_bad_d_exits_1_with_one_line(capsys, argv, message):
    capsys.readouterr()
    assert run_json(argv) == (1, None, "")
    assert capsys.readouterr().err.splitlines() == [message]


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
    # just below 10**12: the listed primes lie beyond the 4096 entries of the
    # smallest sieve, and the cofactors are proved by the window sieve
    ("enumerate", "--csv", "--min", "999999990001", "--max", "1000000000000"): (
        "cdd1cc5080e13b35a824b1c0d46e670792666aecf00d8f10360b76cdca1f4e62"
    ),
    # a non-fundamental D (= 4 mod 16): the conductor's prime-power forms
    ("classgroup", "400000020"): (
        "554d3b54428f64ad485121e8a855d47ff45285a323bd216e4c07efd588c6555e"
    ),
    ("classgroup", "400000020", "--ordinary"): (
        "311f2935aa2e35d17e5948c3b18e3566dc10e0aa4ccaf41e4acb68a1e5ee48ca"
    ),
    # a large ordinary group, (2, 3336)
    ("classgroup", "40000000004", "--ordinary"): (
        "3e37565680fc1703c816a84478cbcc2035a857bd7830be7d82f46a1548761e78"
    ),
    # the largest D the CLI accepts: the most stored keys, lookups and walks
    ("classgroup", "999999999997"): (
        "1807c4ef9d7f17833d0e212bbf55905a70d8a7a7a02d1eca9bfbce94bc84bc16"
    ),
    # narrow (3, 12): a structure that is not a 2-group
    ("classgroup", "226580"): (
        "de33f5fdaa3292bcd1de2d1cd5cb383a12c9685c48b83799e012a469c4762803"
    ),
    # the shape filter, with the oracle run on the rows it keeps
    ("enumerate", "--max", "4000", "--shape", "p,p,q,q", "--verify"): (
        "a3d3988f90e943723f510a3ef54a533fb97d335bd92a4adbf785915a6d3be124"
    ),
    # across the default oracle limit: 42 rows are out-of-range
    ("enumerate", "--min", "249900", "--max", "250100", "--verify"): (
        "86d4404be6dbfde13f748a30aa50f7b530747e7018d9db9ffe4853f418d52ae9"
    ),
    ("enumerate", "--min", "249900", "--max", "250100", "--verify", "--csv"): (
        "e5c76fa5b25424378b41af851daf0b035d6d3cfb2c298fa55b839fb6bf81dabd"
    ),
    # JSON rows without the oracle
    ("enumerate", "--max", "4000"): (
        "cd91ac157b201f34b6dc1c7012fe39cde87509f3d6a2a93131bdca83098379b3"
    ),
    # rank pattern (1) with the 2-power residue tension flag
    ("classify", "7345", "--verify"): (
        "3710a4d7ebcdec4023a0b282b18486d7ef5b2d1d5756a49fb78db3f51221aa3d"
    ),
    # (7,3,3,3) residues, no condition matched and no flag
    ("classify", "13629", "--verify"): (
        "efb0c0846e31251e60e9395a6d7671c67c316122f92f36e3a7ef2eef28e1a988"
    ),
    # rank pattern (1) with t = 3
    ("classify", "1885", "--verify"): (
        "8c5e8d2ca37fc620ae9c91b2b93de1239a26a5539618124b2474296a53c3102b"
    ),
    # the splitting sets, odd and even D
    ("s1s2", "10920"): (
        "3d8179a4979e9bc8b3be1215fdb4adaad97b92f31807357ac34653553451e842"
    ),
    ("s1s2", "40"): (
        "e7257f21fbece8563e945323435697b218c45cd78b0232e71405b9c54496168c"
    ),
    ("unit", "1365"): (
        "0c17454494f0c83bd700b6a4e7981014b69830d6478350397e4002d22a51a8d7"
    ),
    # period 8056, 4189 digits: many runs of the unit's product tree
    ("unit", "356671486"): (
        "2ce0bbdb59b7508a217c2f4e2e24153a6113b263d0dbf037bba09516c849e690"
    ),
    # the oracle on D and 8d with the closure's skipped generators
    ("classify", "889405", "--verify", "--oracle-limit", "8000000"): (
        "6e1cb25f39931acc435e1fc8023e7367dcb5346db3ee9365f808eb99682c26d9"
    ),
    ("classgroup", "3999932", "--ordinary"): (
        "8f6c17006c92ad2c46885fa93529f4b485e26ba0768cdd983e306e766c15640c"
    ),
    ("find-primes", "--mod8", "5,5,7,3", "--symbols", "2,1=-1;3,1=-1;4,3=-1"): (
        "119537767cdd9725af33e9196496e29461248d398de876cbbfff009b29c14a7b"
    ),
}


def test_stdout_is_byte_identical_to_the_golden_documents():
    # any change to a check, a finding, a claim or the emitters shows here
    for argv, digest in GOLDEN_STDOUT.items():
        out = io.StringIO()
        assert cli.run(list(argv), out) == 0, argv
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest, argv


def test_find_primes_on_every_condition_spec_is_pinned():
    # the twelve specs the condition builders derive, fed back to find-primes
    specs = [classify.spec_for_ppqq_condition(c) for c in range(1, 4)] + [
        classify.spec_for_qqqq_condition(c) for c in range(1, 10)
    ]
    digest = hashlib.sha256()
    for spec in specs:
        symbols = ";".join(f"{k},{j}={eps}" for (k, j), eps in spec.symbols)
        mod8 = ",".join(map(str, spec.residues))
        out = io.StringIO()
        assert cli.run(["find-primes", "--mod8", mod8, "--symbols", symbols], out) == 0
        digest.update(out.getvalue().encode())
    assert digest.hexdigest() == (
        "e8442d8fa0846cab629bbe24dd51bd41601c8222053df19b95a3c591cd0efca2"
    )


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
    # a shape is 3 or 4 roles from 2, p, q, in that order, with one 2 at most
    for shape in ("ppqq", "p,q", "p,p,p,p,q", "q,p,p", "2,2,p", "p,2,q", "x,p,q"):
        bad.append(["enumerate", "--max", "100", "--shape", shape])
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
    # the residues are a comma list of ints
    bad += [["find-primes", "--mod8", "5,x"], ["find-primes", "--mod8", ""]]
    for argv in bad:
        capsys.readouterr()
        code, doc, text = run_json(argv)
        assert code == 1, argv
        assert doc is None and text == ""
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1, argv


def test_sweep_predicts_once_per_field(monkeypatch):
    calls = []
    real = classify.predict

    def counting(d):
        calls.append(int(d))
        return real(d)

    monkeypatch.setattr(cli, "predict", counting)
    monkeypatch.setattr(classify, "predict", counting)
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
    real = classify.verify_against_oracle

    def counting(report, limit):
        calls.append(report.d)
        return real(report, limit)

    monkeypatch.setattr(classify, "verify_against_oracle", counting)
    argv = ["enumerate", "--max", "2000", "--shape", "p,p,q,q", "--verify"]
    code, doc, _ = run_json(argv)
    assert code == 0
    rows = doc["results"]
    assert rows and all(r["shape"] == "p,p,q,q" for r in rows)
    assert calls == [r["d"] for r in rows]
