"""The benchmark's per-layer tracer finds every boundary it patches.

``perfbench/tracer.py`` wraps package callables by name.  A boundary that a
refactor renames is skipped silently and its layer's metrics read ``None``,
so this test fails first.  The tracer also reads some arguments by position,
so those positions are pinned here too, and its cross-layer count of
implicit path-steps is checked on tiny runs of every engine entry point.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import randperiodic
from randperiodic import analysis, noise, pullback
from randperiodic.model import InitialCondition, builtin_benchmark, model_from_config
from randperiodic.noise import GridSpec, NoiseLattice, derive_seeds

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _boundaries():
    return _tracer_module().BOUNDARIES


def test_every_traced_boundary_exists():
    boundaries = _boundaries()
    assert boundaries
    missing = []
    for _, mod_name, cls_name, attr in boundaries:
        owner = importlib.import_module(f"randperiodic.{mod_name}")
        if cls_name is not None:
            # the class's own dict, as the tracer looks it up
            owner = getattr(owner, cls_name, None)
            found = owner is not None and attr in vars(owner)
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(".".join(p for p in (mod_name, cls_name, attr) if p))
    assert not missing, f"trace points missing from the package: {missing}"


def _params(fn):
    return list(inspect.signature(fn).parameters)


def test_traced_arguments_keep_their_positions():
    # the tracer counts `_drive` path-steps from x0 and grid, and stepper
    # path-steps from x_prev, taken from the positional arguments
    assert analysis._drive is pullback._drive
    assert _params(pullback._drive)[:4] == ["model", "grid", "scheme", "x0"]
    assert _params(pullback._bem_step_batch)[4] == "x_prev"
    assert _params(pullback._em_step_batch)[3] == "x_prev"
    # a tracer of the batched reader counts len(seeds) * count * d words
    assert analysis._read_increments is noise._read_increments
    assert _params(noise._read_increments)[:3] == ["seeds", "start", "count"]


H = 2.0**-4

# Scalar cubic drift, so that implicit steps take several Newton iterations.
CUBIC = {
    "lambda": [10.0],
    "drift": {"poly_coeffs": [0, -1, 0, -2], "trig_amp": 1.5, "trig_freq": 1},
    "g": {"amp": 0.5},
    "tau": 1.0,
    "constants": {"C_f": 0.5, "sigma": 0.5},
}

TINY_RUNS = {
    "simulate": lambda m: pullback.simulate(
        m, pullback.make_grid(m, NoiseLattice(3, H / 2), H, -1.0, 0.5), "bem",
        InitialCondition(value=[0.2]), NoiseLattice(3, H / 2)),
    "pinned": lambda m: pullback.pullback_pinned_path(m, NoiseLattice(3, H), H, r_max=1.0),
    "strong_error": lambda m: analysis.strong_error(
        m, h_ref=2.0**-6, h_list=[2.0**-3, 2.0**-4, 2.0**-5], pullback_periods=2,
        num_paths=5, scheme=("bem", "em")),
    "moment_estimate": lambda m: analysis.moment_estimate(
        m, GridSpec(start_index=-16, step_mult=2, count=24, period_steps=16, base_step=H / 2),
        "bem", InitialCondition(value=[0.1]), num_paths=5),
    "periodic_measure": lambda m: analysis.periodic_measure(
        m, derive_seeds(2, 5), H, pullback_periods=2, t_list=[0.0, 0.5]),
    "measure_convergence_study": lambda m: analysis.measure_convergence_study(
        m, derive_seeds(0, 5), [2.0**-3, H], 0.25, 2),
}


@pytest.mark.parametrize("model", ["builtin", "cubic"])
@pytest.mark.parametrize("run", sorted(TINY_RUNS))
def test_implicit_path_steps_agree_across_layers(monkeypatch, run, model):
    # the benchmark's `stepper.path_steps_bem == pullback.path_steps_bem`
    # check: every row of every implicit `_drive` call goes through a step
    # kernel once per grid step; blocks of 3 split the 5 paths unevenly.
    # The builtin's steps take the affine window kernel and the cubic's the
    # Newton window, which the tracer does not wrap, so their path-steps are
    # counted here.
    monkeypatch.setattr(analysis, "DEFAULT_BLOCK_SIZE", 3)
    window_steps, newton_steps = [], []
    window, newton = pullback._affine_steps, pullback._newton_steps

    def counting_window(x, gdw, *rest):
        window_steps.append(gdw.shape[0] * gdw.shape[1])
        return window(x, gdw, *rest)

    def counting_newton(model, h, t_next, z, *rest):
        newton_steps.append(z.shape[1] * len(t_next))
        return newton(model, h, t_next, z, *rest)

    monkeypatch.setattr(pullback, "_affine_steps", counting_window)
    monkeypatch.setattr(pullback, "_newton_steps", counting_newton)
    tracer = _tracer_module().Tracer()
    tracer.install(randperiodic)
    try:
        m = builtin_benchmark() if model == "builtin" else model_from_config(CUBIC)
        TINY_RUNS[run](m)
    finally:
        tracer.uninstall()
    assert not tracer.missing
    assert tracer.counts["pullback.path_steps_bem"] > 0
    assert tracer.counts["stepper.path_steps_bem"] == 0
    if model == "cubic":
        assert not window_steps
        assert sum(newton_steps) == tracer.counts["pullback.path_steps_bem"]
    else:
        assert not newton_steps
        assert sum(window_steps) == tracer.counts["pullback.path_steps_bem"]
