"""Runs twoclass commands in-process inside a fresh interpreter.

Started by run.py as ``python -I bench/child.py`` with a JSON job on stdin;
prints one JSON object on stdout.  Two modes:

* ``session``: a library session for field_queries.  It grows the sieve
  first (set-up, not timed as a query), then calls ``twoclass.cli.run`` on
  each query in turn and times each call.
* ``command``: one sweep command through ``twoclass.cli.run``, for traced
  runs (untraced sweeps run the real ``twoclass`` entry point instead).

With ``"trace": true`` the boundaries in tracer.py are wrapped and the job's
spans are written to the file named by ``"spans"``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time


def _run_one(cli, argv):
    out = io.StringIO()
    err = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stderr(err):
        code = cli.run(list(argv), out)
    elapsed = time.perf_counter() - t0
    text = err.getvalue()
    return {
        "argv": argv,
        "rc": code,
        "s": elapsed,
        "out": out.getvalue(),
        "err": text.splitlines()[0] if text else "",
    }


def main() -> None:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import twoclass.cli as cli
    from twoclass import arith

    reply: dict = {}
    if job.get("warm"):
        arith.spf_table(job["warm"])
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if job["mode"] == "session":
        t0 = time.perf_counter()
        reply["queries"] = [_run_one(cli, argv) for argv in job["queries"]]
        reply["loop_s"] = time.perf_counter() - t0
    else:
        reply["queries"] = [_run_one(cli, job["argv"])]
    if tracer is not None:
        tracer.finish()
        reply["layers"] = tracer.layers()
        tracer.write_spans(job["spans"])
    json.dump(reply, sys.stdout)


if __name__ == "__main__":
    main()
