"""Span tracing of twoclass's module boundaries, from outside the program.

``Tracer.install()`` wraps each public cross-module function listed in
BOUNDARIES and rebinds every name under which a twoclass module looks it up
(``classify.predict``, ``cli.predict``, ``genus.factorize`` and so on), so
calls inside a module are caught as well as calls across modules.  Spans are
kept in memory as (id, parent id, name, start ns, end ns) and written out at
the end; self time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

BOUNDARIES = (
    "arith.spf_table",
    "arith.factorize",
    "arith.is_prime",
    "arith.as_factored",
    "genus.genus_rank",
    "genus.narrow_genus_rank",
    "forms.class_group_summary",
    "forms.narrow_class_group",
    "forms.ordinary_class_group",
    "forms.two_sylow",
    "quadfield.fundamental_unit",
    "quadfield.unit_norm",
    "biquad.first_layer_rank",
    "biquad.hasse_unit_index",
    "classify.predict",
    "classify.verify_against_oracle",
    "cli.run",
)
MODULES = ("arith", "quadfield", "forms", "genus", "redei", "biquad", "classify", "cli")
COUNTERS = (
    "arith.sieve_entries",
    "arith.factorize.sieve_miss",
    "forms.class_group_summary.cache_hits",
    "forms.class_group_summary.cache_misses",
    "forms.classes",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.stack = [0]
        self.next_id = 1
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._originals: dict[str, object] = {}

    def _wrap(self, name: str, fn, before=None, after=None):
        index = BOUNDARIES.index(name)
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            state = before(args) if before else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, index, t0, t1))
            if after:
                after(state, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every boundary in every twoclass module to its wrapper."""
        import twoclass  # noqa: F401  (loads every module but cli)
        import twoclass.cli  # noqa: F401

        mods = [sys.modules[f"twoclass.{m}"] for m in MODULES] + [sys.modules["twoclass"]]
        arith = sys.modules["twoclass.arith"]
        summary = sys.modules["twoclass.forms"].class_group_summary
        counters = self.counters

        def sieve_miss(args):
            if args and args[0] >= len(arith._spf):
                counters["arith.factorize.sieve_miss"] += 1

        def misses_before(args):
            return summary.cache_info().misses

        def count_classes(before, result):
            if summary.cache_info().misses > before:
                counters["forms.classes"] += result.h_narrow

        hooks = {
            "arith.factorize": (sieve_miss, None),
            "forms.class_group_summary": (misses_before, count_classes),
        }
        for name in BOUNDARIES:
            mod_name, attr = name.split(".")
            fn = getattr(sys.modules[f"twoclass.{mod_name}"], attr)
            self._originals[name] = fn
            wrapper = self._wrap(name, fn, *hooks.get(name, (None, None)))
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)

    def finish(self) -> None:
        arith = sys.modules["twoclass.arith"]
        self.counters["arith.sieve_entries"] = len(arith._spf)
        info = self._originals["forms.class_group_summary"].cache_info()
        self.counters["forms.class_group_summary.cache_hits"] = info.hits
        self.counters["forms.class_group_summary.cache_misses"] = info.misses

    def layers(self) -> dict:
        """{boundary: [calls, total ns, self ns]} plus the counters."""
        child_ns: dict[int, int] = defaultdict(int)
        for _sid, parent, _name, t0, t1 in self.spans:
            child_ns[parent] += t1 - t0
        agg = {name: [0, 0, 0] for name in BOUNDARIES}
        for sid, _parent, index, t0, t1 in self.spans:
            row = agg[BOUNDARIES[index]]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child_ns.get(sid, 0)
        return {"boundaries": agg, "counters": dict(self.counters)}

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for sid, parent, index, t0, t1 in self.spans:
                fh.write(f"{sid}\t{parent}\t{BOUNDARIES[index]}\t{t0}\t{t1}\n")
