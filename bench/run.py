#!/usr/bin/env python3
"""The twoclass benchmark.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/twoclass).
Every measured command starts a fresh interpreter, so the sieve and the
lru_caches start cold.  Outputs are checked on every run.  The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}, with
the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.  A fuller record (run metadata, calibration loop, stdout digests,
failures) goes to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("verify_sweep", "predict_sweep", "field_queries")
SETUP_PROBES = 5
MIN_PASSES = 3
RUN_LIMIT_S = 170  # a run must end within 180 s; children are killed at this mark
PROGRAM = (
    "import sys; sys.path.insert(0, sys.argv.pop(1)); "
    "from twoclass.cli import main; sys.argv[0] = 'twoclass'; main()"
)
SETUP = (
    "import sys; sys.path.insert(0, sys.argv[1]); import twoclass; "
    "from twoclass import arith; arith.spf_table(int(sys.argv[2]))"
)


class BenchError(Exception):
    pass


@dataclass
class Proc:
    rc: int
    wall: float
    cpu: float
    rss_kb: int
    out: str
    err: str


@dataclass
class Command:
    argv: list
    rc: int
    latency: float
    cpu: float
    rss_kb: int
    out: str
    err: str
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.rc != 0 or bool(self.problems)


@dataclass
class Pass:
    commands: list
    wall: float
    layers: list = field(default_factory=list)

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        for c in self.commands:
            h.update(c.out.encode())
        return h.hexdigest()


class Bench:
    def __init__(self, root: str, workload: str, seed: int, seconds: int):
        self.root = root
        self.src = os.path.join(root, "src")
        self.out_dir = os.path.join(BENCH, "out")
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        with open(os.path.join(root, "docs", "report-schema.md")) as fh:
            self.columns = checks.schema_csv_columns(fh.read())
        os.makedirs(self.out_dir, exist_ok=True)

    # --- processes ----------------------------------------------------------

    def spawn(self, args: list, stdin_text: str = "") -> Proc:
        """Run one child to completion; wall, CPU and peak RSS come from
        os.wait4 on that child, which includes the children it reaped."""
        base = os.path.join(self.out_dir, "child")
        with open(base + ".in", "w") as fh:
            fh.write(stdin_text)
        with open(base + ".in") as fin, open(base + ".out", "w") as fout, open(
            base + ".err", "w"
        ) as ferr:
            t0 = time.perf_counter()
            p = subprocess.Popen(args, stdin=fin, stdout=fout, stderr=ferr, cwd=self.root)
            timer = threading.Timer(max(0.0, self.deadline - time.perf_counter()), p.kill)
            timer.start()
            status = None
            try:
                _, status, ru = os.wait4(p.pid, 0)
            finally:
                timer.cancel()
                if status is None:
                    p.kill()
                    p.wait()
            wall = time.perf_counter() - t0
            p.returncode = os.waitstatus_to_exitcode(status)
        if time.perf_counter() >= self.deadline:
            raise BenchError(f"the run did not finish within {RUN_LIMIT_S} s")
        with open(base + ".out", newline="") as fh:  # keep the program's line ends
            out = fh.read()
        with open(base + ".err") as fh:
            err = fh.read()
        return Proc(p.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, out, err)

    def program(self, argv: list) -> Proc:
        return self.spawn([sys.executable, "-I", "-c", PROGRAM, self.src] + list(argv))

    def child(self, job: dict) -> tuple[Proc, dict]:
        job = dict(job, src=self.src)
        proc = self.spawn(
            [sys.executable, "-I", os.path.join(BENCH, "child.py")], json.dumps(job)
        )
        if proc.rc != 0:
            raise BenchError(f"benchmark child failed: {_first_line(proc.err)}")
        return proc, json.loads(proc.out)

    def setup_s(self, need: int) -> float:
        times = []
        for _ in range(SETUP_PROBES):
            proc = self.spawn([sys.executable, "-I", "-c", SETUP, self.src, str(need)])
            if proc.rc != 0:
                raise BenchError(f"set-up failed: {_first_line(proc.err)}")
            times.append(proc.wall)
        return statistics.median(times)

    # --- passes -------------------------------------------------------------

    def check(self, argv, rc, latency, out, err, proc=None) -> Command:
        cpu, rss = (proc.cpu, proc.rss_kb) if proc else (0.0, 0)
        cmd = Command(list(argv), rc, latency, cpu, rss, out, _first_line(err))
        if out or rc == 0:
            cmd.problems = checks.check_command(cmd.argv, rc, out, self.columns)
        return cmd

    def sweep_pass(self, commands: list, traced: bool = False) -> Pass:
        done, wall, layers = [], 0.0, []
        for i, argv in enumerate(commands):
            if traced:
                spans = os.path.join(self.out_dir, "spans", f"{self.workload}-{i}.tsv")
                proc, reply = self.child(
                    {"mode": "command", "argv": argv, "trace": True, "spans": spans}
                )
                q = reply["queries"][0]
                done.append(self.check(argv, q["rc"], proc.wall, q["out"], q["err"], proc))
                layers.append(reply["layers"])
            else:
                proc = self.program(argv)
                done.append(self.check(argv, proc.rc, proc.wall, proc.out, proc.err, proc))
            wall += proc.wall
        return Pass(done, wall, layers)

    def session_pass(self, queries: list, warm: int, traced: bool = False) -> Pass:
        spans = os.path.join(self.out_dir, "spans", f"{self.workload}.tsv")
        proc, reply = self.child(
            {"mode": "session", "queries": queries, "warm": warm, "trace": traced, "spans": spans}
        )
        done = [self.check(q["argv"], q["rc"], q["s"], q["out"], q["err"]) for q in reply["queries"]]
        # the session is one process: its CPU and peak RSS go on the first query
        done[0].cpu, done[0].rss_kb = proc.cpu, proc.rss_kb
        layers = [reply["layers"]] if traced else []
        return Pass(done, reply["loop_s"], layers)

    def repeat(self, make_pass, minimum: int = 1) -> list:
        """Closed loop: start another pass while one more still fits in
        --seconds (measured from the first pass)."""
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(make_pass())
            elapsed = time.perf_counter() - start
            if len(passes) >= minimum and elapsed * (len(passes) + 1) / len(passes) > self.seconds:
                return passes


def _first_line(text: str) -> str:
    return text.strip().splitlines()[0] if text.strip() else ""


def _nearest_rank(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def fields_in(cmd: Command) -> int:
    """Fields in the emitted document (0 when there is none)."""
    try:
        if cmd.argv[0] == "verify":
            return json.loads(cmd.out)["results"]["fields"]
        if cmd.argv[0] == "enumerate":
            return max(0, len(cmd.out.splitlines()) - 1)
        return 1 if cmd.rc == 0 else 0
    except (ValueError, KeyError, TypeError):
        return 0


def end_to_end(passes: list, setup: float, seconds: int) -> tuple[dict, dict]:
    """Every pass runs the same commands.  A command's time and CPU are the
    slowest of its repeats and its peak RSS the median.  On a shared host
    whose CPU alternates for minutes between a fast and a slower state, a
    median snaps to whichever state filled the run, while nearly every run
    visits the slower state once.  A failed command counts as taking the
    whole run (it misses any latency limit)."""
    per_cmd = list(zip(*(p.commands for p in passes)))
    wall = sum(max(c.latency for c in runs) for runs in per_cmd)
    latency = [max(seconds if c.failed else c.latency for c in runs) for runs in per_cmd]
    fields = sum(fields_in(c) for c in passes[0].commands)
    metrics = {
        "wall_s": (wall, "s"),
        "fields_per_s": (fields / wall, "1/s"),
        "cpu_s": (sum(max(c.cpu for c in runs) for runs in per_cmd), "s"),
        "peak_rss_mb": (max(statistics.median(c.rss_kb for c in runs) for runs in per_cmd) / 1024, "MB"),
        "query_p50_ms": (_nearest_rank(latency, 0.5) * 1000, "ms"),
        "query_p90_ms": (_nearest_rank(latency, 0.9) * 1000, "ms"),
        "setup_s": (setup, "s"),
    }
    info = {
        "passes": len(passes),
        "latency_samples": len(latency),
        "pass_wall_s": [p.wall for p in passes],
        "latency_s": [[c.latency for c in runs] for runs in per_cmd],
    }
    return metrics, info


def per_layer(traced: list, untraced: list) -> dict:
    """Per-pass means of the traced passes' spans and counters."""
    n = len(traced)
    out: dict = {}
    sums = {name: [0, 0, 0] for name in tracer.BOUNDARIES}
    counters = dict.fromkeys(tracer.COUNTERS, 0)
    for p in traced:
        for layer in p.layers:
            for name, row in layer["boundaries"].items():
                for k in range(3):
                    sums[name][k] += row[k]
            for name, value in layer["counters"].items():
                if name == "arith.sieve_entries":
                    continue
                counters[name] += value
        counters["arith.sieve_entries"] += max(
            layer["counters"]["arith.sieve_entries"] for layer in p.layers
        )
    for name in tracer.BOUNDARIES:
        calls, total, self_ns = sums[name]
        if name == "cli.run":
            out["cli.run.self_s"] = (self_ns / 1e9 / n, "s")
            continue
        out[f"{name}.calls"] = (calls / n, "count")
        out[f"{name}.total_s"] = (total / 1e9 / n, "s")
        out[f"{name}.self_s"] = (self_ns / 1e9 / n, "s")
    for name, value in counters.items():
        out[name] = (value / n, "count")
    fields = sum(fields_in(c) for p in traced for c in p.commands)
    out["classify.predict.per_field"] = (
        sums["classify.predict"][0] / fields if fields else 0.0,
        "ratio",
    )
    out["cli.bytes_out"] = (sum(len(c.out.encode()) for p in traced for c in p.commands) / n, "B")
    out["trace.overhead_s"] = (
        statistics.median(p.wall for p in traced) - statistics.median(p.wall for p in untraced),
        "s",
    )
    return out


def metadata(root: str) -> dict:
    meta = {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "cpu_model": None,
        "package_version": None,
        "git_commit": None,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    meta["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    with open(os.path.join(root, "src", "twoclass", "__init__.py")) as fh:
        match = re.search(r'__version__ = "([^"]+)"', fh.read())
        meta["package_version"] = match.group(1) if match else None
    if os.path.isdir(os.path.join(root, ".git")):
        got = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
        meta["git_commit"] = got.stdout.strip() or None
    return meta


def calibration_s() -> float:
    """A fixed pure-Python loop; its time shows how busy the machine was."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def run(bench: Bench, trace: bool) -> tuple[dict, dict, list]:
    """Returns (metrics, record, every command run)."""
    record: dict = {}
    if bench.workload == "field_queries":
        queries = workloads.field_queries(bench.seed, workloads.query_count(bench.seconds))
        need = workloads.sieve_needed(queries)

        def make_pass(traced=False):
            return bench.session_pass(queries, need, traced)

    else:
        commands = workloads.sweep_commands(bench.workload, bench.seed)
        need = workloads.sieve_needed(commands)

        def make_pass(traced=False):
            return bench.sweep_pass(commands, traced)

    if trace:
        pairs = bench.repeat(lambda: (make_pass(), make_pass(traced=True)))
        untraced = [u for u, _ in pairs]
        traced = [t for _, t in pairs]
        metrics = per_layer(traced, untraced)
        record["tracing_overhead_s"] = metrics["trace.overhead_s"][0]
    else:
        if bench.workload == "field_queries":
            untraced = [make_pass() for _ in range(workloads.QUERY_SESSIONS)]
        else:
            untraced = bench.repeat(make_pass, MIN_PASSES)
        traced = []
        metrics, info = end_to_end(untraced, bench.setup_s(need), bench.seconds)
        record.update(info)
    everything = untraced + traced
    digests = sorted({p.digest for p in everything})
    record["stdout_sha256"] = digests
    commands_run = [c for p in everything for c in p.commands]
    if len(digests) != 1:
        commands_run[0].problems.append("stdout differs between passes of the same inputs")
    return metrics, record, commands_run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so spawn() kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    root = os.getcwd()
    for needed in ("src/twoclass/__init__.py", "docs/report-schema.md"):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"bench: {needed} not found; run from the root of a twoclass checkout",
                  file=sys.stderr)
            return 2
    bench = Bench(root, args.workload, args.seed, args.seconds)
    calib = calibration_s()
    try:
        metrics, record, commands = run(bench, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    failures = [c for c in commands if c.failed]
    correct = not any(c.problems for c in commands)
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        calibration_s=calib,
        metadata=metadata(root),
        attempted=len(commands),
        failed=len(failures),
        failed_fraction=len(failures) / len(commands),
        failures=[
            {"argv": c.argv, "rc": c.rc, "stderr": c.err, "problems": c.problems}
            for c in failures
        ],
        metrics={k: v for k, (v, _) in metrics.items()},
    )
    path = os.path.join(bench.out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} calibration_s={calib:.3f}")
    print(f"# attempted={len(commands)} failed={len(failures)} "
          f"failed_fraction={len(failures) / len(commands):.4f} correct={correct}")
    for c in failures[:5]:
        print(f"#   failed: twoclass {' '.join(c.argv)} -> rc {c.rc}: {c.err or c.problems}")
    for key in ("passes", "latency_samples", "tracing_overhead_s", "stdout_sha256"):
        if key in record:
            print(f"# {key}: {record[key]}")
    print(f"# record: {os.path.relpath(path, root)}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(commands),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
