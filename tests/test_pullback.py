"""Tests for path construction, pull-back, and periodicity checks."""

import math
import pickle
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randperiodic import analysis, pullback
from randperiodic.model import (
    InitialCondition, PolyTrigDrift, builtin_benchmark, model_from_config,
    with_diffusion_amplitude,
)
from randperiodic.noise import AlignmentError, GridSpec, NoiseLattice
from randperiodic.pullback import (
    ENVELOPE_TARGET,
    SolverSummary,
    coalescence,
    default_pullback_periods,
    make_grid,
    pullback_pinned_path,
    random_periodic_path,
    simulate,
    verify_shift_periodicity,
)

A = 10.0 * math.pi
H = 2.0**-7

# Scalar cubic drift with a periodic forcing (3-5 Newton iterations per step).
CUBIC_MODEL = {
    "lambda": [10.0],
    "drift": {"poly_coeffs": [0, -1, 0, -2], "trig_amp": 1.5, "trig_freq": 1},
    "g": {"amp": 0.5},
    "tau": 1.0,
    "constants": {"C_f": 0.5, "sigma": 0.5},
}


def cubic_model(eigenvalues):
    """Coordinatewise cubic drift ``-x**3 + sin(4*pi*t)`` on ``A = diag(eigenvalues)``."""
    return model_from_config({
        "lambda": list(eigenvalues),
        "drift": {"poly_coeffs": [0, 0, 0, -1], "trig_amp": 1.0, "trig_freq": 2},
        "g": {"amp": 0.3},
        "tau": 1.0,
        "constants": {"C_f": 0.5},
    })


def analytic_limit(t):
    """Noise-free periodic solution of x' = -a x + sin(2*pi*t), a = 10*pi."""
    return (A * np.sin(2 * np.pi * t) - 2 * np.pi * np.cos(2 * np.pi * t)) / (
        A**2 + 4 * np.pi**2
    )


class TestMakeGrid:
    def test_fields(self):
        m = builtin_benchmark()
        lat = NoiseLattice(seed=0, base_step=2.0**-9)
        grid = make_grid(m, lat, h=2.0**-7, t_start=-2.0, t_end=1.0)
        assert grid.step_mult == 4
        assert grid.start_index == -256
        assert grid.count == 384
        assert grid.period_steps == 128
        assert grid.h == 2.0**-7

    def test_misalignment_raises(self):
        m = builtin_benchmark()
        lat = NoiseLattice(seed=0, base_step=2.0**-9)
        with pytest.raises(AlignmentError):
            make_grid(m, lat, h=0.003, t_start=0.0, t_end=1.0)  # h not on lattice
        with pytest.raises(AlignmentError):
            make_grid(m, lat, h=3.0 * 2.0**-9, t_start=0.0, t_end=1.0)  # period/h
        with pytest.raises(AlignmentError):
            make_grid(m, lat, h=2.0**-7, t_start=0.003, t_end=1.0)  # t_start/h
        with pytest.raises(ValueError):
            make_grid(m, lat, h=2.0**-7, t_start=0.5, t_end=0.5)
        with pytest.raises(AlignmentError, match=r"\(t_end - t_start\) / h = inf is not finite"):
            make_grid(m, lat, h=2.0**-7, t_start=0.0, t_end=math.inf)
        with pytest.raises(AlignmentError, match="= inf is not finite for time inf"):
            make_grid(m, lat, h=2.0**-7, t_start=0.0, t_end=1.0).node_index(math.inf)


class TestSimulate:
    def test_deterministic_and_finite(self):
        m = builtin_benchmark()
        lat = NoiseLattice(seed=5, base_step=H)
        grid = make_grid(m, lat, H, 0.0, 2.0)
        a = simulate(m, grid, "bem", InitialCondition(value=[0.3]), lat)
        b = simulate(m, grid, "bem", InitialCondition(value=[0.3]), lat)
        assert np.array_equal(a.states, b.states)
        assert a.states.shape == (257, 1)
        assert np.all(np.isfinite(a.states))
        assert not a.diverged
        assert a.solver_stats.max_residual <= 1e-12 * 2.0

    def test_unknown_scheme_rejected(self):
        m = builtin_benchmark()
        lat = NoiseLattice(seed=5, base_step=H)
        grid = make_grid(m, lat, H, 0.0, 1.0)
        with pytest.raises(ValueError, match="unknown scheme"):
            simulate(m, grid, "rk4", InitialCondition(value=[0.0]), lat)

    def test_lattice_grid_mismatch_rejected(self):
        m = builtin_benchmark()
        lat = NoiseLattice(seed=5, base_step=H)
        grid = make_grid(m, lat, H, 0.0, 1.0)
        other = NoiseLattice(seed=5, base_step=H / 2)
        with pytest.raises(AlignmentError):
            simulate(m, grid, "bem", InitialCondition(value=[0.0]), other)

    @pytest.mark.parametrize("scheme", pullback.SCHEMES)
    def test_non_finite_start_rejected(self, scheme):
        # rejected before any step, so a non-finite row in the engine is
        # always a path that diverged
        m = builtin_benchmark()
        lat = NoiseLattice(seed=5, base_step=H)
        grid = make_grid(m, lat, H, 0.0, 1.0)
        with pytest.raises(ValueError, match="finite"):
            simulate(m, grid, scheme, InitialCondition(value=[math.nan]), lat)

    def test_two_starts_contract_geometrically(self):
        # The drift is x-independent, so two runs on shared noise contract
        # by exactly 1 / (1 + h*lambda_1) per step.
        m = builtin_benchmark()
        lat = NoiseLattice(seed=11, base_step=H)
        grid = make_grid(m, lat, H, 0.0, 1.0)
        a = simulate(m, grid, "bem", InitialCondition(value=[1.0]), lat)
        b = simulate(m, grid, "bem", InitialCondition(value=[-1.0]), lat)
        gap = np.abs(a.states[:, 0] - b.states[:, 0])
        factor = 1.0 + H * A
        expect = 2.0 * factor ** -np.arange(grid.count + 1)
        keep = expect > 1e-250
        assert np.allclose(gap[keep], expect[keep], rtol=1e-9)

    def test_em_divergence_flagged(self):
        # |1 - h*lambda| = |1 - 10*pi/8| > 1: the explicit scheme blows up
        m = builtin_benchmark()
        h = 2.0**-3
        lat = NoiseLattice(seed=2, base_step=h)
        grid = make_grid(m, lat, h, 0.0, 5.0)
        path = simulate(m, grid, "em", InitialCondition(value=[1.0]), lat)
        assert path.diverged
        assert path.diverged_at is not None
        assert np.all(np.isnan(path.states[path.diverged_at :]))
        assert np.all(np.isfinite(path.states[: path.diverged_at]))

    def test_bem_stable_where_em_diverges(self):
        m = builtin_benchmark()
        h = 2.0**-3
        lat = NoiseLattice(seed=2, base_step=h)
        grid = make_grid(m, lat, h, 0.0, 5.0)
        path = simulate(m, grid, "bem", InitialCondition(value=[1.0]), lat)
        assert not path.diverged
        assert float(np.max(np.abs(path.states))) <= 1.0 + 1.0

    def test_semi_flow_property(self):
        # Running [0, 2] in one go equals running [0, 1] and restarting from
        # its terminal state, bit for bit.
        m = builtin_benchmark()
        lat = NoiseLattice(seed=23, base_step=H)
        full = simulate(m, make_grid(m, lat, H, 0.0, 2.0), "bem",
                        InitialCondition(value=[0.7]), lat)
        first = simulate(m, make_grid(m, lat, H, 0.0, 1.0), "bem",
                         InitialCondition(value=[0.7]), lat)
        second = simulate(m, make_grid(m, lat, H, 1.0, 2.0), "bem",
                          InitialCondition(value=first.states[-1]), lat)
        assert np.array_equal(full.states[:129], first.states)
        assert np.array_equal(full.states[128:], second.states)

    def test_state_at(self):
        m = builtin_benchmark()
        lat = NoiseLattice(seed=23, base_step=H)
        grid = make_grid(m, lat, H, 0.0, 1.0)
        path = simulate(m, grid, "bem", InitialCondition(value=[0.0]), lat)
        assert np.array_equal(path.state_at(0.5), path.states[64])
        with pytest.raises(AlignmentError):
            path.state_at(0.51)


class TestRandomPeriodicPath:
    def test_noise_free_limit(self):
        # sigma = 0: the pull-back must land on the analytic periodic orbit
        # within the one-step bias, uniformly over one period.
        m = with_diffusion_amplitude(builtin_benchmark(), 0.0)
        h = 2.0**-8
        lat = NoiseLattice(seed=0, base_step=h)
        path = random_periodic_path(m, lat, h, horizon=(0.0, 1.0))
        err = np.abs(path.states[:, 0] - analytic_limit(path.times))
        assert float(err.max()) <= 5.0 * h

    def test_start_independence(self):
        # Two different starting states give the same path on the horizon.
        m = builtin_benchmark()
        lat = NoiseLattice(seed=31, base_step=H)
        a = random_periodic_path(m, lat, H, pullback_periods=4,
                                 init=InitialCondition(value=[5.0]))
        b = random_periodic_path(m, lat, H, pullback_periods=4,
                                 init=InitialCondition(value=[-5.0]))
        assert float(np.max(np.abs(a.states - b.states))) < 1e-12

    def test_horizon_slicing_is_consistent(self):
        m = builtin_benchmark()
        lat = NoiseLattice(seed=31, base_step=H)
        full = random_periodic_path(m, lat, H, pullback_periods=3, horizon=(0.0, 1.0))
        part = random_periodic_path(m, lat, H, pullback_periods=3, horizon=(0.25, 0.75))
        assert part.grid.t_start == 0.25
        assert part.grid.t_end == 0.75
        assert np.array_equal(part.state_at(0.5), full.state_at(0.5))
        assert np.array_equal(part.states, full.states[32:97])

    def test_divergence_counts_from_the_horizon(self):
        # the explicit scheme blows up at h = 2^-3 (as in
        # test_em_divergence_flagged); a horizon reports the crossing from its
        # own first node, and one that starts after it is NaN throughout
        m = builtin_benchmark()
        h = 2.0**-3
        lat = NoiseLattice(seed=0, base_step=h)

        def path(t0, scheme="em"):
            return random_periodic_path(m, lat, h, pullback_periods=5, horizon=(t0, 0.0),
                                        scheme=scheme)

        full = path(-5.0)
        assert full.diverged_at == 31  # t = -1.125
        after = path(-0.5)  # first node 36 of the full run
        assert after.diverged is True and after.diverged_at == 0
        assert np.all(np.isnan(after.states))
        inside = path(-3.0)  # first node 16
        assert inside.diverged is True and inside.diverged_at == full.diverged_at - 16
        assert np.array_equal(inside.states, full.states[16:], equal_nan=True)
        bem = path(-3.0, "bem")
        assert bem.diverged is False and bem.diverged_at is None

    def test_bad_horizon_rejected(self):
        m = builtin_benchmark()
        lat = NoiseLattice(seed=0, base_step=H)
        with pytest.raises(ValueError):
            random_periodic_path(m, lat, H, pullback_periods=2, horizon=(0.5, 0.5))
        with pytest.raises(ValueError):
            random_periodic_path(m, lat, H, pullback_periods=2, horizon=(-3.0, 1.0))


class TestDefaultPullbackPeriods:
    def test_benchmark_is_fast_mixing(self):
        assert default_pullback_periods(builtin_benchmark(), 2.0**-7) == 1

    def test_matches_envelope_formula(self):
        m = builtin_benchmark()
        h = 2.0**-7
        rho = 1.0 + 2.0 * h * (m.lambda_min - m.constants["C_f"])
        steps = 2.0 * math.log(1.0 / ENVELOPE_TARGET) / math.log(rho)
        expect = max(1, math.ceil(steps / (m.period / h)))
        assert default_pullback_periods(m, h) == expect

    def test_slow_mixing_needs_more_periods(self):
        from randperiodic.model import ConstantDiffusion, ModelSpec, PolyTrigDrift

        slow = ModelSpec(
            eigenvalues=np.array([1.0]),
            drift=PolyTrigDrift(poly_coeffs=(), trig_amp=1.0, trig_freq=1, period=1.0),
            diffusion=ConstantDiffusion(0.1),
            period=1.0,
            constants={"C_f": 0.9, "sigma": 0.1},
        )
        k = default_pullback_periods(slow, 2.0**-4)
        rho = 1.0 + 2.0 * 2.0**-4 * 0.1
        steps = 2.0 * math.log(1e8) / math.log(rho)
        assert k == math.ceil(steps / 16.0)
        assert k > 100

    @pytest.mark.parametrize("h", [0.0, -0.5, math.nan, math.inf])
    def test_step_is_checked_before_any_ratio(self, h):
        # rejected before any ratio or logarithm is formed from the step
        m = builtin_benchmark()
        lat = NoiseLattice(seed=0, base_step=0.25)
        message = f"step size h must be positive and finite, got {h!r}"
        for call in (lambda: default_pullback_periods(m, h),
                     lambda: random_periodic_path(m, lat, h),
                     lambda: pullback_pinned_path(m, lat, h, r_max=1.0)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()


class TestCoalescence:
    def test_distances_stay_under_envelope(self):
        m = builtin_benchmark()
        h = 0.05
        lat = NoiseLattice(seed=7, base_step=h)
        grid = make_grid(m, lat, h, 0.0, 2.0)
        rep = coalescence(m, grid, InitialCondition(value=[0.2]),
                          InitialCondition(value=[-0.3]), lat)
        assert rep.distances[0] == pytest.approx(0.5)
        assert np.all(rep.distances <= rep.envelope * (1.0 + 1e-9))
        assert rep.first_below is not None
        assert rep.distances[rep.first_below] < rep.threshold
        assert float(grid.times()[rep.first_below]) <= 2.0

    def test_requires_declared_constant(self):
        m = builtin_benchmark()
        lat = NoiseLattice(seed=7, base_step=H)
        grid = make_grid(m, lat, H, 0.0, 1.0)
        bare = with_diffusion_amplitude(m, 0.05)
        bare.constants.pop("C_f")
        with pytest.raises(ValueError, match="C_f"):
            coalescence(bare, grid, InitialCondition(value=[0.0]),
                        InitialCondition(value=[1.0]), lat)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -1.0])
    def test_threshold_must_be_finite_and_positive(self, threshold):
        m = builtin_benchmark()
        lat = NoiseLattice(seed=7, base_step=H)
        grid = make_grid(m, lat, H, 0.0, 1.0)
        with pytest.raises(ValueError, match="threshold"):
            coalescence(m, grid, InitialCondition(value=[0.0]),
                        InitialCondition(value=[1.0]), lat, threshold=threshold)


class TestShiftPeriodicity:
    def test_discrepancy_is_exactly_zero(self):
        # The shifted and restarted runs see bitwise-identical inputs at
        # every node, so the discrepancy is exactly 0.0, not merely small.
        m = builtin_benchmark()
        lat = NoiseLattice(seed=13, base_step=H)
        rep = verify_shift_periodicity(m, lat, H, pullback_periods=5)
        assert rep.max_discrepancy == 0.0
        assert rep.pullback_periods == 5
        assert rep.path_shifted.states.shape == rep.path_reference.states.shape

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_discrepancy_is_exactly_zero_for_monotone_drifts(self, data):
        # f(t, x) = c0 + c1*x + c3*x**3 + a*sin(2*pi*k*t) with c3 < 0 is
        # one-sided Lipschitz; the identity holds bit for bit, not to a
        # tolerance, for any such model and starting state
        d = data.draw(st.sampled_from([1, 2]), label="d")
        eig = sorted(data.draw(st.lists(st.floats(2.0, 15.0), min_size=d, max_size=d),
                               label="eigenvalues"))
        coeffs = [data.draw(st.floats(-1.0, 1.0), label="c0"),
                  data.draw(st.floats(-1.0, 1.0), label="c1"), 0.0,
                  data.draw(st.floats(-3.0, -0.1), label="c3")]
        model = model_from_config({
            "lambda": eig,
            "drift": {"poly_coeffs": coeffs, "trig_amp": data.draw(st.floats(-2.0, 2.0)),
                      "trig_freq": data.draw(st.integers(1, 3))},
            "g": {"amp": data.draw(st.floats(0.05, 1.0), label="g")},
            "tau": 1.0,
        })
        start = data.draw(st.lists(st.floats(-2.0, 2.0).filter(bool), min_size=d, max_size=d),
                          label="start")
        h = 2.0**-4
        lat = NoiseLattice(seed=data.draw(st.integers(0, 2**32)), base_step=h, dimension=d)
        rep = verify_shift_periodicity(model, lat, h, pullback_periods=data.draw(st.integers(2, 3)),
                                       init=InitialCondition(value=start))
        assert rep.max_discrepancy == 0.0

    def test_depth_validation(self):
        m = builtin_benchmark()
        lat = NoiseLattice(seed=13, base_step=H)
        with pytest.raises(ValueError):
            verify_shift_periodicity(m, lat, H, pullback_periods=1)


class TestPinnedPullback:
    def test_noise_free_convergence(self):
        m = with_diffusion_amplitude(builtin_benchmark(), 0.0)
        h = 2.0**-6
        lat = NoiseLattice(seed=3, base_step=h)
        pinned = pullback_pinned_path(m, lat, h, r_max=2.0)
        assert pinned.values.shape == (129, 1)
        assert pinned.diverged_depths.size == 0
        # values converge to the analytic limit at time 0 within the bias
        assert abs(pinned.values[-1, 0] - analytic_limit(0.0)) <= 5.0 * h
        # ... and successive depths stabilize far below the bias scale
        tail = pinned.values[-16:, 0]
        assert float(tail.max() - tail.min()) < 1e-12

    def test_depth_below_one_step_raises(self):
        lat = NoiseLattice(seed=3, base_step=H)
        with pytest.raises(ValueError, match="^r_max must be at least one step, got 0.0$"):
            pullback_pinned_path(builtin_benchmark(), lat, H, r_max=0.0)

    def test_agrees_with_periodic_path_at_whole_periods(self):
        # Depth k*tau reproduces the pull-back construction bit for bit.
        m = builtin_benchmark()
        lat = NoiseLattice(seed=17, base_step=H)
        pinned = pullback_pinned_path(m, lat, H, r_max=3.0)
        path = random_periodic_path(m, lat, H, pullback_periods=3, horizon=(0.0, 1.0))
        assert np.array_equal(pinned.values[-1], path.states[0])


    def test_lattice_dimension_mismatch_raises(self):
        m = cubic_model([8.0, 12.0])
        lat = NoiseLattice(seed=0, base_step=2.0**-5)
        with pytest.raises(ValueError, match="lattice dimension 1 does not match model dimension 2"):
            pullback_pinned_path(m, lat, 2.0**-5, r_max=0.5)

    @pytest.mark.parametrize(
        "model, seed, h, r_max, init, scheme",
        [
            (builtin_benchmark(), 5, 2.0**-3, 6.0, None, "bem"),
            (builtin_benchmark(), 5, 2.0**-3, 6.0, None, "em"),
            (model_from_config(CUBIC_MODEL), 1, 2.0**-5, 1.5, None, "bem"),
            (model_from_config(CUBIC_MODEL), 1, 2.0**-5, 1.5, None, "em"),
            (builtin_benchmark(), 2, 2.0**-5, 1.5, InitialCondition(value=[0.7]), "bem"),
            (builtin_benchmark(), 2, 2.0**-5, 1.5, InitialCondition(value=[0.7]), "em"),
            (cubic_model([8.0, 12.0]), 3, 2.0**-5, 1.0, InitialCondition(value=[0.4, -1.1]), "bem"),
            (cubic_model([8.0, 12.0]), 3, 2.0**-5, 1.0, InitialCondition(value=[0.4, -1.1]), "em"),
        ],
        ids=["builtin-bem", "builtin-em", "cubic-bem", "cubic-em", "init-bem", "init-em",
             "d2-bem", "d2-em"],
    )
    def test_matches_one_run_per_depth(self, model, seed, h, r_max, init, scheme):
        # The batch equals, bit for bit, a separate pull-back from each depth.
        lat = NoiseLattice(seed=seed, base_step=h, dimension=model.dimension)
        start = init if init is not None else InitialCondition(value=np.zeros(model.dimension))
        values = [start.resolve(seed, model.dimension)]
        diverged = []
        iters, resid, fb = 0, 0.0, False
        for i in range(1, round(r_max / h) + 1):
            path = simulate(model, make_grid(model, lat, h, -i * h, 0.0), scheme, start, lat)
            values.append(path.states[-1])
            if path.diverged:
                diverged.append(i)
            iters = max(iters, path.solver_stats.max_newton_iters)
            resid = max(resid, path.solver_stats.max_residual)
            fb = fb or path.solver_stats.any_fallback
        pinned = pullback_pinned_path(model, lat, h, r_max, init=init, scheme=scheme)
        assert np.array_equal(pinned.values, np.array(values), equal_nan=True)
        assert np.array_equal(pinned.diverged_depths, np.array(diverged, dtype=np.int64))
        assert pinned.solver_stats == SolverSummary(iters, resid, fb)
        if model.name == "builtin" and scheme == "em" and h == 2.0**-3:
            # |1 - h*lambda| > 1: the deeper runs blow up
            assert pinned.diverged_depths.size > 0
            assert np.all(np.isnan(pinned.values[pinned.diverged_depths]))

    def test_steps_only_live_rows(self, monkeypatch):
        # the run of depth r joins the batch when the grid reaches -r, so N
        # steps advance 1 + 2 + ... + N rows and no row waits in the batch.
        # Each step's rows are counted at whichever kernel takes it: the
        # affine window kernel (the builtin's) or the per-step kernel.
        rows = []
        step, window = pullback._bem_step_batch, pullback._affine_steps

        def counting_step(model, t_prev, t_next, h, x_prev, *rest):
            rows.append(x_prev.shape[0])
            return step(model, t_prev, t_next, h, x_prev, *rest)

        def counting_window(z, inc, *rest):
            rows.extend([z.shape[1]] * inc.shape[0])
            return window(z, inc, *rest)

        monkeypatch.setattr(pullback, "_bem_step_batch", counting_step)
        monkeypatch.setattr(pullback, "_affine_steps", counting_window)
        n = 24
        pullback_pinned_path(builtin_benchmark(), NoiseLattice(seed=6, base_step=H), H,
                             r_max=n * H)
        assert len(rows) == n
        assert sum(rows) == n * (n + 1) // 2


@pytest.mark.parametrize("run", ["simulate", "pinned"])
def test_one_lattice_is_read_once(monkeypatch, run):
    # a single-lattice run reads its increments in one call, however
    # many rows of the batch share them
    calls = []
    original = NoiseLattice.increments

    def counting(self, start, count):
        calls.append((self, start, count))
        return original(self, start, count)

    monkeypatch.setattr(NoiseLattice, "increments", counting)
    m = builtin_benchmark()
    lat = NoiseLattice(seed=4, base_step=H / 2)
    if run == "simulate":
        simulate(m, make_grid(m, lat, H, -1.5, 0.0), "bem",
                 InitialCondition(value=[0.0]), lat)
    else:
        pullback_pinned_path(m, lat, H, r_max=1.5)
    # 1.5 time units before 0, at spacing H / 2
    assert calls == [(lat, round(-3.0 / H), round(3.0 / H))]


class _CoefficientCalls:
    """Records every time at which a run evaluates the diffusion or the
    forcing of a :class:`PolyTrigDrift`."""

    def __init__(self, monkeypatch):
        self.diffusion, self.forcing = [], []
        forcing = PolyTrigDrift._forcing

        def counted_forcing(drift, t):
            self.forcing.append(t)
            return forcing(drift, t)

        monkeypatch.setattr(PolyTrigDrift, "_forcing", counted_forcing)

    def model(self, kind):
        """The builtin drift, or the cubic one, with a counted diffusion."""
        base = builtin_benchmark() if kind == "affine" else model_from_config(CUBIC_MODEL)

        def diffusion(t):
            self.diffusion.append(t)
            return 0.05 + 0.01 * math.cos(2.0 * math.pi * t)

        return replace(base, diffusion=diffusion)

    def check(self, steps, forcing=True):
        """At most one evaluation of each coefficient per residue of each
        step size in ``steps`` (powers of 2 on a period of 1)."""
        for calls in (self.diffusion, self.forcing) if forcing else (self.diffusion,):
            assert calls
            assert len(calls) <= sum(round(1.0 / h) for h in steps)
            for t, k in Counter(calls).items():
                assert 0.0 <= t < 1.0
                assert k <= sum(1 for h in steps if t / h == round(t / h))
        self.diffusion.clear()
        self.forcing.clear()


@pytest.mark.parametrize("scheme", ["bem", "em"])
def test_runs_evaluate_each_coefficient_once_per_residue(monkeypatch, scheme):
    # each run tabulates its coefficients once, over the residues a mod n,
    # however many steps, chunks, pinned steps, blocks and windows it takes
    calls = _CoefficientCalls(monkeypatch)
    m = calls.model("affine")
    h = 2.0**-4
    lat = NoiseLattice(seed=3, base_step=h)
    simulate(m, make_grid(m, lat, h, -30.0, 0.0), scheme, InitialCondition(value=[0.2]), lat)
    calls.check([h])
    pullback_pinned_path(m, lat, h, r_max=2.5, scheme=scheme)
    calls.check([h])
    if scheme == "bem":
        verify_shift_periodicity(m, lat, h, pullback_periods=3)
        calls.check([h])
    monkeypatch.setattr(analysis, "DEFAULT_BLOCK_SIZE", 3)
    monkeypatch.setattr(analysis, "_WINDOW_WORDS", 40)
    steps = [2.0**-5, 2.0**-3, 2.0**-4]
    analysis.strong_error(m, h_ref=steps[0], h_list=steps[1:], pullback_periods=2,
                          num_paths=7, scheme=scheme)
    calls.check(steps)


@pytest.mark.parametrize("scheme", ["bem", "em"])
def test_plans_never_change(monkeypatch, scheme):
    # a plan is built whole: no step, chunk, pinned step, block or window
    # rebinds or rewrites its rows after __init__
    names = ("times", "g", "forcing", "affine_forcing")
    plans = []

    class Recorded(pullback._StepPlan):
        def __init__(self, *args):
            super().__init__(*args)
            rows = [getattr(self, name) for name in names]
            plans.append((self, rows, [pickle.dumps(row) for row in rows]))

    monkeypatch.setattr(pullback, "_StepPlan", Recorded)
    monkeypatch.setattr(analysis, "_StepPlan", Recorded)
    m = builtin_benchmark()
    h = 2.0**-4
    lat = NoiseLattice(seed=3, base_step=h)
    simulate(m, make_grid(m, lat, h, -30.0, 0.0), scheme, InitialCondition(value=[0.2]), lat)
    pullback_pinned_path(m, lat, h, r_max=2.5, scheme=scheme)
    monkeypatch.setattr(analysis, "DEFAULT_BLOCK_SIZE", 3)
    monkeypatch.setattr(analysis, "_WINDOW_WORDS", 40)
    analysis.strong_error(m, h_ref=2.0**-5, h_list=[2.0**-3, 2.0**-4], pullback_periods=2,
                          num_paths=7, scheme=scheme)
    assert len(plans) == 5  # the simulation, the pinned run, one per grid of the study
    for plan, rows, values in plans:
        assert all(getattr(plan, name) is row for name, row in zip(names, rows))
        assert [pickle.dumps(getattr(plan, name)) for name in names] == values


def test_newton_runs_read_the_diffusion_from_the_plan(monkeypatch):
    # the implicit scheme on a cubic drift evaluates the drift, and so its
    # forcing, in every Newton iteration; the diffusion only once per residue
    calls = _CoefficientCalls(monkeypatch)
    m = calls.model("cubic")
    h = 2.0**-4
    lat = NoiseLattice(seed=3, base_step=h)
    simulate(m, make_grid(m, lat, h, -3.0, 0.0), "bem", InitialCondition(value=[0.2]), lat)
    calls.check([h], forcing=False)
    pullback_pinned_path(m, lat, h, r_max=1.5)
    calls.check([h], forcing=False)
    monkeypatch.setattr(analysis, "DEFAULT_BLOCK_SIZE", 3)
    analysis.periodic_measure(m, [1, 2, 3, 4, 5], h, pullback_periods=2, t_list=[0.0, 0.5])
    calls.check([h], forcing=False)
