"""The benchmark's tracer looks up each boundary by name in its twoclass
module; a deleted or renamed function would break ``bench/run.py --trace 1``."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_boundaries_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.BOUNDARIES
    for name in tracer.BOUNDARIES:
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"twoclass.{module}"), attr, None)
        assert callable(fn), name


def test_summary_cache_counters_stay_readable():
    # the tracer's cache-hit and forms.classes counters read cache_info(),
    # and forms.classes adds up the h_narrow of every summary computed
    from twoclass.forms import class_group_summary, narrow_class_group

    info = class_group_summary.cache_info()
    assert info.hits >= 0 and info.misses >= 0
    assert class_group_summary(10920).h_narrow == narrow_class_group(10920).order
