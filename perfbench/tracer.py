"""Spans around the public functions of every hbl layer, recorded from outside.

`Tracer.install()` replaces each public module-level function of the layer
modules, at every binding inside the ``hbl`` package that refers to it, by a
wrapper that records one span: name, layer, start, end and the span that was
open when it started.  Spans stay in memory; `Tracer.metrics()` reduces them
to the per-layer metrics of BENCHMARK.json.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

from mpmath import mp

LAYERS = ("numerics", "model", "mop", "kernel", "rh", "painleve", "scaling", "cli")

# Leaf helpers called once per matrix entry.  A span each would multiply the
# run time several-fold and bury the layers that call them; their time is
# counted as self time of the caller.
UNTRACED = frozenset({"numerics.mag", "numerics.to_ext"})

# Spans whose arguments are keyed to count distinct calls.
KEYED = frozenset({"mop.solve_mop", "rh.assemble_rh_expansion"})
LU_CALLS = ("numerics.solve_linear", "numerics.lu_det")
VERIFY = (
    "rh.verify_five_term_recurrence",
    "rh.verify_backward_recurrence",
    "rh.forward_transfer",
    "rh.backward_transfer",
    "rh.involution_check",
)
STUDIES = (
    "scaling.double_scaling_study",
    "scaling.small_separation_study",
    "scaling.large_separation_decay",
)
WRITERS = ("cli.write_json", "cli.write_csv")


def _public_functions(layer: str, module):
    """(span name, function) for each public function defined in ``module``."""
    for attr, obj in vars(module).items():
        if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        name = f"{layer}.{attr}"
        if name not in UNTRACED:
            yield name, obj


class Tracer:
    """In-memory span recorder for one pass of one process."""

    def __init__(self):
        # (name, layer, start, end, parent index, note)
        self.spans: list = []
        self._open: list = []

    # -- recording ---------------------------------------------------------

    def _note(self, name, args, kwargs):
        if name in LU_CALLS:
            return (args[0].rows, mp.prec)
        if name in KEYED:
            return (args, tuple(sorted(kwargs.items())), mp.prec)
        return None

    def wrap(self, name: str, layer: str, fn):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = open_[-1] if open_ else -1
            spans.append(None)
            open_.append(index)
            note = self._note(name, args, kwargs)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[index] = (name, layer, start, end, parent, note)
            if name == "painleve.solve_hastings_mcleod":
                spans[index] = (name, layer, start, end, parent, len(result.grid))
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function at each of its bindings in ``hbl``."""
        wrappers = {}  # id of the original (kept alive by its wrapper) -> wrapper
        for layer in LAYERS:
            for name, fn in _public_functions(layer, sys.modules[f"hbl.{layer}"]):
                wrappers[id(fn)] = self.wrap(name, layer, fn)
        banded = sys.modules["hbl.painleve"].solve_banded
        wrappers[id(banded)] = self.wrap("painleve.solve_banded", "painleve", banded)
        evaluator = sys.modules["hbl.kernel"].YEvaluator
        evaluator.value = self.wrap("kernel.YEvaluator.value", "kernel", evaluator.value)
        for modname, module in list(sys.modules.items()):
            if modname != "hbl" and not modname.startswith("hbl."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    setattr(module, attr, wrappers[id(obj)])
                elif isinstance(obj, dict):  # e.g. the CLI's handler table
                    for key, val in list(obj.items()):
                        if id(val) in wrappers:
                            obj[key] = wrappers[id(val)]

    # -- reduction ---------------------------------------------------------

    def span_table(self) -> list:
        """Every span as [name, start, end, parent index], times in seconds
        from the first span's start."""
        if not self.spans:
            return []
        t0 = self.spans[0][2]
        return [[name, start - t0, end - t0, parent]
                for name, _, start, end, parent, _ in self.spans]

    def metrics(self) -> dict:
        """Per-layer metrics (values only) of the recorded spans.

        A span's self time is its duration minus the durations of its direct
        child spans.  Counts come from the number of spans and their notes.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        foreign_time = [0.0] * len(spans)
        # A child starts after its parent, so it has the larger index: one
        # pass in reverse index order accumulates bottom-up.
        for i in range(len(spans) - 1, -1, -1):
            name, layer, start, end, parent, _ = spans[i]
            if parent < 0:
                continue
            dur = end - start
            child_time[parent] += dur
            if spans[parent][1] != layer:
                foreign_time[parent] += dur
            else:
                foreign_time[parent] += foreign_time[i]

        calls: dict = {}
        self_s: dict = {}
        total_s: dict = {}
        notes: dict = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        own_layer: dict = {}
        for i, (name, layer, start, end, parent, note) in enumerate(spans):
            dur = end - start
            own = dur - child_time[i]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            total_s[name] = total_s.get(name, 0.0) + dur
            own_layer[name] = own_layer.get(name, 0.0) + dur - foreign_time[i]
            layer_self[layer] += own
            if note is not None:
                notes.setdefault(name, []).append(note)

        lu_under_mop: dict = {}
        for name, _, _, _, parent, _ in spans:
            if name == "numerics.solve_linear":
                while parent >= 0 and spans[parent][0] != "mop.solve_mop":
                    parent = spans[parent][4]
                if parent >= 0:
                    lu_under_mop[parent] = lu_under_mop.get(parent, 0) + 1
        escalations = sum(c - 1 for c in lu_under_mop.values() if c > 1)

        point_ms = sorted(
            (end - start) * 1e3
            for name, _, start, end, _, _ in spans
            if name == "kernel.correlation_kernel"
        )

        def pct(q):
            if not point_ms:
                return 0.0
            if len(point_ms) == 1:
                return point_ms[0]
            return statistics.quantiles(point_ms, n=100, method="inclusive")[q - 1]

        lu_sizes = [n for name in LU_CALLS for n, _ in notes.get(name, [])]
        out = {
            "numerics.solve_linear.calls": calls.get("numerics.solve_linear", 0),
            "numerics.solve_linear.self_s": self_s.get("numerics.solve_linear", 0.0),
            "numerics.solve_linear.bits_max": max(
                (bits for _, bits in notes.get("numerics.solve_linear", [])), default=0
            ),
            "numerics.lu_madds": sum(n**3 for n in lu_sizes) // 3,
            "numerics.faddeeva.calls": calls.get("numerics.faddeeva", 0),
            "numerics.faddeeva.self_s": self_s.get("numerics.faddeeva", 0.0),
            "numerics.lu_det.calls": calls.get("numerics.lu_det", 0),
            "numerics.lu_det.self_s": self_s.get("numerics.lu_det", 0.0),
            "mop.solve_mop.calls": calls.get("mop.solve_mop", 0),
            "mop.solve_mop.distinct": len(set(notes.get("mop.solve_mop", []))),
            # Build and orthogonality check: time under solve_mop outside
            # other layers, so the LU solves are excluded.
            "mop.solve_mop.self_s": own_layer.get("mop.solve_mop", 0.0),
            "mop.escalations": escalations,
            "mop.q_moment.calls": calls.get("mop.q_moment", 0),
            "mop.q_moment.self_s": self_s.get("mop.q_moment", 0.0),
            "kernel.correlation_kernel.calls": calls.get("kernel.correlation_kernel", 0),
            "kernel.point_ms.p50": pct(50),
            "kernel.point_ms.p90": pct(90),
            "kernel.cauchy_transform.calls": calls.get("kernel.cauchy_transform", 0),
            "kernel.cauchy_transform.self_s": self_s.get("kernel.cauchy_transform", 0.0),
            "kernel.YEvaluator.value.self_s": self_s.get("kernel.YEvaluator.value", 0.0),
            "rh.assemble_rh_expansion.calls": calls.get("rh.assemble_rh_expansion", 0),
            "rh.assemble_rh_expansion.distinct": len(
                set(notes.get("rh.assemble_rh_expansion", []))
            ),
            "rh.assemble_rh_expansion.total_s": total_s.get("rh.assemble_rh_expansion", 0.0),
            "rh.verify.self_s": sum(self_s.get(name, 0.0) for name in VERIFY),
            "painleve.solve_hastings_mcleod.total_s": total_s.get(
                "painleve.solve_hastings_mcleod", 0.0
            ),
            "painleve.newton_steps": calls.get("painleve.solve_banded", 0),
            "painleve.grid_points": sum(notes.get("painleve.solve_hastings_mcleod", [])),
            "scaling.study.self_s": sum(self_s.get(name, 0.0) for name in STUDIES),
            "cli.write_s": sum(total_s.get(name, 0.0) for name in WRITERS),
            "trace.spans": len(spans),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        return out
