"""The benchmark's tracer looks up each boundary by name in its twoclass
module, and each module it rebinds names in by name; a deleted or renamed
function or module would break ``bench/run.py --trace 1``."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_boundaries_resolve_to_callables():
    tracer = _tracer()
    assert tracer.BOUNDARIES
    for name in tracer.BOUNDARIES:
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"twoclass.{module}"), attr, None)
        assert callable(fn), name


def test_tracer_modules_import():
    # Tracer.install reads sys.modules["twoclass.<m>"] for every entry
    tracer = _tracer()
    assert tracer.MODULES
    for module in tracer.MODULES:
        importlib.import_module(f"twoclass.{module}")  # raises if it is gone


def test_summary_cache_counters_stay_readable():
    # the tracer's cache-hit and forms.classes counters read cache_info(),
    # and forms.classes adds up the h_narrow of every summary computed
    from twoclass.forms import class_group_summary, narrow_class_group

    info = class_group_summary.cache_info()
    assert info.hits >= 0 and info.misses >= 0
    assert class_group_summary(10920).h_narrow == narrow_class_group(10920).order


def test_tracer_counts_one_prediction_and_one_replay_per_field():
    # the tracer rebinds module globals, so it runs in a child process;
    # sweeps look predict and verify_against_oracle up in classify, where
    # it wraps them, so each boundary is counted once per field
    src = Path(__file__).resolve().parents[1] / "src"
    probe = f"""
import importlib.util, io, json, sys
sys.path.insert(0, {str(src)!r})
spec = importlib.util.spec_from_file_location("bench_tracer", {str(TRACER)!r})
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
t = tracer.Tracer()
t.install()
import twoclass.cli as cli
out = io.StringIO()
code = cli.run(["verify", "--max", "200"], out)
calls = {{name: row[0] for name, row in t.layers()["boundaries"].items()}}
print(json.dumps([code, json.loads(out.getvalue())["results"]["fields"], calls]))
"""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    code, fields, calls = json.loads(proc.stdout)
    assert code == 0 and fields == 80
    assert calls["classify.predict"] == fields
    assert calls["classify.verify_against_oracle"] == fields
    assert calls["cli.run"] == 1
