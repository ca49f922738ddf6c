"""Per-layer tracing of randperiodic, installed from outside the package.

The tracer replaces the callables through which one module of the package
calls the next with thin wrappers.  Each wrapper records a span (layer,
start, end, parent span) and the work counts of that boundary.  Spans stay
in memory until :meth:`Tracer.metrics` reduces them when the run ends.

A layer's self time is the duration of its spans minus the time their child
spans cover; its busy time is the duration of its outermost spans, so a
layer calling itself is not counted twice.

Boundaries are looked up by name.  A boundary that a refactor removed is
reported through ``missing`` and its layer's metrics come out as ``None``;
the traced run keeps going.
"""

from __future__ import annotations

import importlib
import math
import os
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("noise", "model", "stepper", "pullback", "analysis", "cli")

# (layer, module, class or None, attribute).  Names bound with ``from x
# import y`` are patched in the importing module, because that is the name
# the caller looks up at call time.
BOUNDARIES = (
    ("noise", "noise", "NoiseLattice", "increments"),
    ("model", "model", "PolyTrigDrift", "__call__"),
    ("model", "model", "PolyTrigDrift", "jacobian"),
    ("stepper", "pullback", None, "_bem_step_batch"),
    ("stepper", "pullback", None, "_em_step_batch"),
    ("pullback", "pullback", None, "_drive"),
    ("pullback", "analysis", None, "_drive"),
    ("analysis", "cli", None, "strong_error"),
    ("analysis", "cli", None, "periodic_measure"),
    ("analysis", "cli", None, "measure_convergence_study"),
    ("analysis", "cli", None, "bootstrap_noise_floor"),
    ("cli", "cli", None, "main"),
)

# name -> (unit, better); the per-layer metrics of a traced run.
METRICS = {
    "noise.calls": ("count", "lower"),
    "noise.words": ("count", "lower"),
    "noise.unique_frac": ("ratio", "higher"),
    "noise.busy_s": ("s", "lower"),
    "noise.words_per_s": ("1/s", "higher"),
    "model.drift_calls": ("count", "lower"),
    "model.drift_rows": ("count", "lower"),
    "model.jacobian_calls": ("count", "lower"),
    "model.busy_s": ("s", "lower"),
    "stepper.calls": ("count", "lower"),
    "stepper.path_steps": ("count", "lower"),
    "stepper.mean_batch": ("paths", "higher"),
    "stepper.busy_s": ("s", "lower"),
    "stepper.self_s": ("s", "lower"),
    "stepper.us_per_call": ("us", "lower"),
    "stepper.newton_per_step": ("iter/step", "lower"),
    "stepper.fallbacks": ("count", "lower"),
    "pullback.drive_calls": ("count", "lower"),
    "pullback.path_steps": ("count", "lower"),
    "pullback.busy_s": ("s", "lower"),
    "pullback.self_s": ("s", "lower"),
    "pullback.path_steps_per_s": ("1/s", "higher"),
    "analysis.busy_s": ("s", "lower"),
    "analysis.self_s": ("s", "lower"),
    "cli.busy_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.out_bytes": ("B", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

# Metrics that must repeat exactly between two traced runs of one input.
COUNT_METRICS = tuple(
    name for name, (unit, _) in METRICS.items() if unit == "count" or name == "cli.out_bytes"
)


def _label(mod_name, cls_name, attr):
    return ".".join(p for p in (mod_name, cls_name, attr) if p)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Spans and counters for one traced run; see the module docstring."""

    def __init__(self) -> None:
        self._layer = array("b")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._noise_ranges: dict[tuple, list[tuple[int, int]]] = defaultdict(list)

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every boundary found on ``package``.  Call before any model
        is built: ``ModelSpec`` keeps the bound ``drift.jacobian``."""
        for layer, mod_name, cls_name, attr in BOUNDARIES:
            try:
                owner = importlib.import_module(f"{package.__name__}.{mod_name}")
            except ImportError:
                owner = None
            if cls_name is not None:
                owner = getattr(owner, cls_name, None)
            fn = None
            if owner is not None:
                # a class's own dict, so that ``type.__call__`` is not taken
                # for a removed ``__call__``
                fn = vars(owner).get(attr) if cls_name else getattr(owner, attr, None)
            if fn is None:
                self.missing.append(_label(mod_name, cls_name, attr))
                continue
            hook = getattr(self, "_count_" + attr.strip("_"))
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(LAYERS.index(layer), fn, hook))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrap(self, layer_id, fn, hook):
        clock = time.perf_counter
        stack = self._stack
        layer, parent, start, end = self._layer, self._parent, self._start, self._end

        def traced(*args, **kwargs):
            idx = len(start)
            layer.append(layer_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            hook(args, kwargs, out)
            return out

        return traced

    # -- counters, one per boundary ----------------------------------------

    def _count_increments(self, args, kwargs, out):
        lat = args[0]
        d = lat.dimension
        count = int(_arg(args, kwargs, 2, "count"))
        w0 = (int(_arg(args, kwargs, 1, "start")) + lat.origin) * d
        self.counts["noise.calls"] += 1
        self.counts["noise.words"] += count * d
        self._noise_ranges[(lat.seed, lat.base_step, d)].append((w0, w0 + count * d))

    def _count_call(self, args, kwargs, out):
        shape = np.shape(_arg(args, kwargs, 2, "x"))
        self.counts["model.drift_calls"] += 1
        self.counts["model.drift_rows"] += shape[0] if len(shape) > 1 else 1

    def _count_jacobian(self, args, kwargs, out):
        self.counts["model.jacobian_calls"] += 1

    def _count_bem_step_batch(self, args, kwargs, out):
        m = _arg(args, kwargs, 4, "x_prev").shape[0]
        self.counts["stepper.calls"] += 1
        self.counts["stepper.path_steps"] += m
        self.counts["stepper.path_steps_bem"] += m
        self.counts["stepper.newton_iters"] += int(out[1].sum())
        self.counts["stepper.fallbacks"] += int(out[3].sum())

    def _count_em_step_batch(self, args, kwargs, out):
        self.counts["stepper.calls"] += 1
        self.counts["stepper.path_steps"] += _arg(args, kwargs, 3, "x_prev").shape[0]

    def _count_drive(self, args, kwargs, out):
        steps = _arg(args, kwargs, 3, "x0").shape[0] * _arg(args, kwargs, 1, "grid").count
        self.counts["pullback.drive_calls"] += 1
        self.counts["pullback.path_steps"] += steps
        if _arg(args, kwargs, 2, "scheme") == "bem":
            self.counts["pullback.path_steps_bem"] += steps

    def _count_nothing(self, args, kwargs, out):
        pass

    # the analysis layer is measured by time alone
    _count_strong_error = _count_periodic_measure = _count_nothing
    _count_measure_convergence_study = _count_bootstrap_noise_floor = _count_nothing

    def _count_main(self, args, kwargs, out):
        argv = list(_arg(args, kwargs, 0, "argv"))
        out_dir = argv[argv.index("--out") + 1] if "--out" in argv else "."
        self.counts["cli.out_bytes"] += sum(
            e.stat().st_size for e in os.scandir(out_dir) if e.is_file()
        )

    # -- reduction ----------------------------------------------------------

    def _unique_noise_words(self) -> int:
        total = 0
        for ranges in self._noise_ranges.values():
            hi = -math.inf
            for a, b in sorted(ranges):
                total += max(0, b - max(a, hi))
                hi = max(hi, b)
        return total

    def layer_times(self) -> dict[str, tuple[float, float]]:
        """``{layer: (busy_s, self_s)}`` from the recorded spans."""
        layer = np.frombuffer(self._layer, dtype=np.int8).astype(np.int64)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        dur = np.asarray(self._end) - np.asarray(self._start)
        covered = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_t = dur - covered
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -1)
        outer = parent_layer != layer
        out = {}
        for i, name in enumerate(LAYERS):
            mine = layer == i
            out[name] = (float(dur[mine & outer].sum()), float(self_t[mine].sum()))
        return out

    def metrics(self) -> dict[str, float | None]:
        """Per-layer metrics of everything traced so far (no overhead term).
        A rate or mean over zero work reads 0."""
        c = self.counts
        times = self.layer_times()
        busy = {name: b for name, (b, _) in times.items()}
        own = {name: s for name, (_, s) in times.items()}
        values = {
            "noise.calls": c["noise.calls"],
            "noise.words": c["noise.words"],
            "noise.unique_frac": _ratio(self._unique_noise_words(), c["noise.words"]),
            "noise.busy_s": busy["noise"],
            "noise.words_per_s": _ratio(c["noise.words"], busy["noise"]),
            "model.drift_calls": c["model.drift_calls"],
            "model.drift_rows": c["model.drift_rows"],
            "model.jacobian_calls": c["model.jacobian_calls"],
            "model.busy_s": busy["model"],
            "stepper.calls": c["stepper.calls"],
            "stepper.path_steps": c["stepper.path_steps"],
            "stepper.mean_batch": _ratio(c["stepper.path_steps"], c["stepper.calls"]),
            "stepper.busy_s": busy["stepper"],
            "stepper.self_s": own["stepper"],
            "stepper.us_per_call": 1e6 * _ratio(busy["stepper"], c["stepper.calls"]),
            "stepper.newton_per_step": _ratio(c["stepper.newton_iters"],
                                              c["stepper.path_steps_bem"]),
            "stepper.fallbacks": c["stepper.fallbacks"],
            "pullback.drive_calls": c["pullback.drive_calls"],
            "pullback.path_steps": c["pullback.path_steps"],
            "pullback.busy_s": busy["pullback"],
            "pullback.self_s": own["pullback"],
            "pullback.path_steps_per_s": _ratio(c["pullback.path_steps"], busy["pullback"]),
            "analysis.busy_s": busy["analysis"],
            "analysis.self_s": own["analysis"],
            "cli.busy_s": busy["cli"],
            "cli.self_s": own["cli"],
            "cli.out_bytes": c["cli.out_bytes"],
        }
        absent = {b[0] for b in BOUNDARIES if _label(*b[1:]) in self.missing}
        return {k: None if k.split(".")[0] in absent else v for k, v in values.items()}
