"""Tests for the implicit solver and the two time-stepping kernels."""

import json
import math
import re
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from randperiodic import pullback, stepper
from randperiodic.analysis import strong_error
from randperiodic.model import (
    ConstantDiffusion,
    InitialCondition,
    ModelSpec,
    PolyTrigDrift,
    builtin_benchmark,
    model_from_config,
)
from randperiodic.noise import GridSpec, NoiseLattice, coarse_increments
from randperiodic.pullback import (
    SolverSummary, make_grid, pullback_pinned_path, simulate,
)
from randperiodic.stepper import (
    RESIDUAL_TOL,
    NonConvergenceError,
    NonFiniteEvaluationError,
    _bisect_scalar,
    _implicit_solve_batch,
    bem_step,
    em_step,
    implicit_solve,
)


def linear_model(lam=2.0):
    """Pure linear decay: f = 0, so the step is exactly x / (1 + h*lam)."""
    return ModelSpec(
        eigenvalues=np.array([lam]),
        drift=PolyTrigDrift(poly_coeffs=(), trig_amp=0.0, trig_freq=1, period=1.0),
        diffusion=ConstantDiffusion(0.1),
        period=1.0,
        constants={"C_f": 0.0, "sigma": 0.1},
    )


def cubic_model(lam=1.0, jacobian=True):
    """f(x) = -x^3: one-sided Lipschitz constant 0, genuinely nonlinear."""
    drift = PolyTrigDrift(poly_coeffs=(0.0, 0.0, 0.0, -1.0), trig_amp=0.0,
                          trig_freq=1, period=1.0)
    return ModelSpec(
        eigenvalues=np.array([lam]),
        drift=drift,
        diffusion=ConstantDiffusion(0.1),
        period=1.0,
        drift_jacobian=drift.jacobian if jacobian else None,
        constants={"C_f": 0.0, "sigma": 0.1},
    )


class TestImplicitSolve:
    def test_linear_closed_form(self):
        # z + h*lam*z = rhs  ->  z = rhs / (1 + h*lam) = 3 / 2 at h=0.5, lam=2
        z, stats = implicit_solve(linear_model(2.0), t=0.0, h=0.5, rhs=np.array([3.0]))
        assert z[0] == pytest.approx(1.5, abs=1e-12)
        assert stats.final_residual <= RESIDUAL_TOL * (1.0 + 3.0)
        assert not stats.fallback_used

    def test_cubic_closed_form(self):
        # z(1 + 0.5) + 0.5 z^3 = 2 has the exact root z = 1
        z, stats = implicit_solve(cubic_model(1.0), t=0.0, h=0.5, rhs=np.array([2.0]))
        assert z[0] == pytest.approx(1.0, abs=1e-10)
        assert stats.newton_iters >= 1

    def test_benchmark_forcing(self):
        # rhs = 0: z(1 + 10*pi*h) = h * sin(2*pi*t)
        m = builtin_benchmark()
        h = 0.125
        z, _ = implicit_solve(m, t=0.25, h=h, rhs=np.zeros(1))
        assert z[0] == pytest.approx(h / (1.0 + 10.0 * math.pi * h), rel=1e-12)

    def test_finite_difference_jacobian_agrees(self):
        m_fd = cubic_model(jacobian=False)
        m_an = cubic_model(jacobian=True)
        rhs = np.array([-1.7])
        z_fd, _ = implicit_solve(m_fd, t=0.0, h=0.25, rhs=rhs)
        z_an, _ = implicit_solve(m_an, t=0.0, h=0.25, rhs=rhs)
        assert z_fd[0] == pytest.approx(z_an[0], abs=1e-10)

    def test_residual_invariant(self):
        # |G(z) - rhs| <= tol * (1 + |rhs|) for a spread of inputs
        m = cubic_model(3.0)
        rng = np.random.default_rng(7)
        for _ in range(100):
            h = float(rng.uniform(0.001, 0.9))
            rhs = rng.normal(scale=2.0, size=1)
            z, stats = implicit_solve(m, t=0.0, h=h, rhs=rhs)
            lhs = z * (1.0 + h * 3.0) - h * m.drift(0.0, z)
            resid = abs(float(lhs[0] - rhs[0]))
            tol = RESIDUAL_TOL * (1.0 + abs(float(rhs[0])))
            assert resid <= tol
            assert stats.final_residual <= tol

    def test_contraction_in_rhs(self):
        # |z1 - z2| <= |y1 - y2| / (1 + h*(lam - C_f)) is the monotonicity
        # modulus; verify over random pairs at two step sizes.
        m = cubic_model(2.0)
        rng = np.random.default_rng(42)
        for h in (0.5, 0.01):
            for _ in range(100):
                y1, y2 = rng.normal(scale=3.0, size=2)
                z1, _ = implicit_solve(m, 0.0, h, np.array([y1]))
                z2, _ = implicit_solve(m, 0.0, h, np.array([y2]))
                bound = abs(y1 - y2) / (1.0 + h * 2.0) + 1e-9
                assert abs(float(z1[0] - z2[0])) <= bound

    def test_root_independent_of_guess(self):
        m = cubic_model(1.0)
        rhs = np.array([2.0])
        z_default, _ = implicit_solve(m, 0.0, 0.5, rhs)
        z_far, _ = implicit_solve(m, 0.0, 0.5, rhs, x0=np.array([50.0]))
        assert z_far[0] == pytest.approx(z_default[0], abs=1e-9)

    def test_multidimensional_decouples_coordinatewise(self):
        # A diagonal model with a coordinatewise drift must agree with two
        # independent scalar solves.
        drift = PolyTrigDrift(poly_coeffs=(0.0, 0.0, 0.0, -1.0), trig_amp=0.0,
                              trig_freq=1, period=1.0)
        m2 = ModelSpec(
            eigenvalues=np.array([1.0, 3.0]), drift=drift,
            diffusion=ConstantDiffusion(0.1), period=1.0,
            drift_jacobian=drift.jacobian, constants={"C_f": 0.0},
        )
        rhs = np.array([2.0, -1.2])
        z2, _ = implicit_solve(m2, 0.0, 0.5, rhs)
        za, _ = implicit_solve(cubic_model(1.0), 0.0, 0.5, rhs[:1])
        zb, _ = implicit_solve(cubic_model(3.0), 0.0, 0.5, rhs[1:])
        assert z2[0] == pytest.approx(za[0], abs=1e-12)
        assert z2[1] == pytest.approx(zb[0], abs=1e-12)

    def test_batch_matches_single_bitwise(self):
        m = cubic_model(2.0)
        rng = np.random.default_rng(3)
        rhs = rng.normal(scale=2.0, size=(17, 1))
        z_batch, _, _, _ = _implicit_solve_batch(m, 0.0, 0.25, rhs)
        for i in range(17):
            z_one, _ = implicit_solve(m, 0.0, 0.25, rhs[i])
            assert np.array_equal(z_batch[i], z_one)

    def test_bisection_fallback_recovers_root(self, monkeypatch):
        # One Newton iteration from a hopeless guess cannot converge; the
        # scalar bisection fallback must still deliver the root.
        monkeypatch.setattr(stepper, "_MAX_NEWTON_ITERS", 1)
        z, stats = implicit_solve(cubic_model(1.0), 0.0, 0.5, np.array([2.0]),
                                  x0=np.array([100.0]))
        assert z[0] == pytest.approx(1.0, abs=1e-9)
        assert stats.fallback_used

    def test_fallback_residual_above_tolerance_raises(self, monkeypatch):
        # A fallback that returns without reaching the tolerance must raise,
        # also under ``python -O``.
        monkeypatch.setattr(stepper, "_bisect_scalar", lambda *args: (1.0, 1e-3))
        monkeypatch.setattr(stepper, "_MAX_NEWTON_ITERS", 1)
        with pytest.raises(NonConvergenceError, match=r"t=0\.25 .*worst residual 1\.000e-03"):
            implicit_solve(cubic_model(1.0), 0.25, 0.5, np.array([2.0]),
                           x0=np.array([100.0]))

    def test_nonconvergence_raises_for_vector_models(self, monkeypatch):
        drift = PolyTrigDrift(poly_coeffs=(0.0, 0.0, 0.0, -1.0), trig_amp=0.0,
                              trig_freq=1, period=1.0)
        m2 = ModelSpec(
            eigenvalues=np.array([1.0, 1.0]), drift=drift,
            diffusion=ConstantDiffusion(0.1), period=1.0,
            drift_jacobian=drift.jacobian,
        )
        monkeypatch.setattr(stepper, "_MAX_NEWTON_ITERS", 1)
        with pytest.raises(NonConvergenceError):
            implicit_solve(m2, 0.0, 0.5, np.array([2.0, 2.0]),
                           x0=np.array([1e6, 1e6]))

    def test_non_finite_drift_raises(self):
        def bad_drift(t, x):
            return np.full_like(x, np.nan)

        m = ModelSpec(
            eigenvalues=np.array([1.0]), drift=bad_drift,
            diffusion=ConstantDiffusion(0.1), period=1.0,
        )
        with pytest.raises(NonFiniteEvaluationError):
            implicit_solve(m, 0.0, 0.5, np.array([1.0]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rhs_raises(self, value):
        # an infinite rhs makes its own tolerance inf, and inf <= inf would
        # pass the guess as the root
        message = r"^implicit step right-hand side has non-finite values at t=0\.25$"
        with pytest.raises(NonFiniteEvaluationError, match=message):
            implicit_solve(cubic_model(1.0), 0.25, 2**-5, np.array([value]), x0=np.array([0.3]))
        with pytest.raises(NonFiniteEvaluationError, match=message):
            _implicit_solve_batch(cubic_model(1.0, jacobian=False), 0.25, 2**-5,
                                  np.array([[1.0], [value]]))

    def test_drift_of_the_wrong_shape_raises(self):
        m = ModelSpec(
            eigenvalues=np.array([1.0]), drift=lambda t, x: np.zeros(x.shape + (2,)),
            diffusion=ConstantDiffusion(0.1), period=1.0,
        )
        with pytest.raises(ValueError, match=r"^drift returned shape \(1, 1, 2\), "
                                              r"expected \(1, 1\)$"):
            implicit_solve(m, 0.0, 0.5, np.array([1.0]))

    def test_step_size_bounds(self):
        m = linear_model()
        for h in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                implicit_solve(m, 0.0, h, np.array([1.0]))

    def test_states_whose_squares_overflow_are_solved(self):
        # at d = 2 the squares of a state of 3e160 overflow; a norm of inf
        # made the tolerance inf, and inf <= inf passed the guess as the root
        m = ModelSpec(
            eigenvalues=np.array([1.0, 2.0]), drift=lambda t, x: -0.5 * x,
            diffusion=ConstantDiffusion(0.1), period=1.0,
            drift_jacobian=lambda t, x: np.broadcast_to(-0.5 * np.eye(2), x.shape + (2,)),
        )
        rhs = np.array([3e160, -2e160])
        a = np.array([[3e160, -2e160], [1e308, -1e308], [3.0, 4.0], [1e-170, 2e-170],
                      [1e200, np.inf], [1.5e308, 1.5e308]])
        with np.errstate(over="ignore"):
            z, stats = implicit_solve(m, 0.0, 0.5, rhs, x0=rhs)
            norms, plain = stepper._row_norm(a), np.linalg.norm(a, axis=-1)
        assert np.allclose(z, rhs / np.array([1.75, 2.25]), rtol=1e-12, atol=0.0)
        assert stats.newton_iters >= 1 and math.isfinite(stats.final_residual)
        # only rows of finite entries whose plain norm is inf are normed again
        q = 2e160 / 3e160
        assert norms[:2].tolist() == [3e160 * math.sqrt(1.0 + q * q), 1e308 * math.sqrt(2.0)]
        assert _same_bits(norms[2:], plain[2:])

    def test_states_whose_squares_overflow_raise_no_warning(self):
        # the rescaled norm handles such a row, so its plain norm's overflow
        # is no fault to warn of
        m = ModelSpec(
            eigenvalues=np.array([1.0, 2.0]), drift=lambda t, x: -0.5 * x,
            diffusion=ConstantDiffusion(0.1), period=1.0,
            drift_jacobian=lambda t, x: np.broadcast_to(-0.5 * np.eye(2), x.shape + (2,)),
        )
        rhs = np.array([3e160, -2e160])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z, _ = implicit_solve(m, 0.0, 0.5, rhs, x0=rhs)
        assert np.allclose(z, [3e160 / 1.75, -2e160 / 2.25], rtol=1e-12, atol=0.0)


class TestBisectScalar:
    def test_finds_root_of_monotone_function(self):
        # G(z) = 1.5 z + 0.5 z^3 = 2 has the exact root z = 1
        m = cubic_model(1.0)
        tol = RESIDUAL_TOL * (1.0 + 2.0)
        root, resid = _bisect_scalar(m, 0.0, 0.5, 1.5, 2.0, 0.0, tol, 200)
        assert root == pytest.approx(1.0, abs=1e-9)
        assert resid <= tol


def stiff_forcing_model():
    """A cubic whose forcing, 1e5*sin(2 pi t), dwarfs its state: at h = 0.5
    the residual's rounding floor, about u*|h*f|, lies above the tolerance
    RESIDUAL_TOL*(1 + |rhs|) of a right-hand side of order one."""
    drift = PolyTrigDrift(poly_coeffs=(-0.4, 1.2, 0.0, -1.0), trig_amp=1e5, trig_freq=1,
                          period=1.0)
    return ModelSpec(eigenvalues=np.array([3.0]), drift=drift,
                     diffusion=ConstantDiffusion(0.5), period=1.0,
                     drift_jacobian=drift.jacobian)


def _g(model, t, h, y, z):
    """``G(z) - y`` evaluated as the solve evaluates it."""
    return z * (1.0 + h * model.eigenvalues[0]) - h * float(model.drift(t, np.array([[z]]))[0, 0]) - y


def _brackets_root(model, t, h, y, z):
    """``G - y`` changes sign strictly between ``z`` and its neighbour
    towards the root."""
    g = _g(model, t, h, y, z)
    g_next = _g(model, t, h, y, math.nextafter(z, -math.inf if g > 0.0 else math.inf))
    return g < 0.0 < g_next or g_next < 0.0 < g


STIFF_RHS = np.random.default_rng(0).standard_normal((50, 1))


class TestLastBitRoots:
    @pytest.mark.parametrize("t", [0.125, 0.25])
    def test_solve_accepts_a_root_between_adjacent_doubles(self, t):
        m, h = stiff_forcing_model(), 0.5
        z, iters, rn, fallback = _implicit_solve_batch(m, t, h, STIFF_RHS)
        tol = RESIDUAL_TOL * (1.0 + np.abs(STIFF_RHS[:, 0]))
        above = rn > tol
        print(f"t={t}: {int(fallback.sum())} rows fell back, {int(above.sum())} above "
              f"tolerance, largest residual {rn.max():.3e}")
        assert above.any() and fallback[above].all()
        for i in range(len(z)):
            y, zi = float(STIFF_RHS[i, 0]), float(z[i, 0])
            assert rn[i] == abs(_g(m, t, h, y, zi))
            assert rn[i] <= tol[i] or _brackets_root(m, t, h, y, zi)

    def test_bisection_returns_the_better_end(self):
        m, t, h = stiff_forcing_model(), 0.125, 0.5
        y = float(STIFF_RHS[0, 0])
        tol = RESIDUAL_TOL * (1.0 + abs(y))
        z, res = _bisect_scalar(m, t, h, 1.0 + h * 3.0, y, 0.0, tol, 200)
        assert res > tol and res == abs(_g(m, t, h, y, z))
        g = _g(m, t, h, y, z)
        other = math.nextafter(z, -math.inf if g > 0.0 else math.inf)
        assert _brackets_root(m, t, h, y, z)
        assert abs(_g(m, t, h, y, other)) >= res

    def test_bem_step_matches_the_batch(self):
        m, h = stiff_forcing_model(), 0.5
        x_prev = np.zeros((50, 1))
        want = _implicit_solve_batch(m, 0.125, h, STIFF_RHS, x_prev)
        for i in range(50):
            # g = 0.5, so rhs = 0 + 0.5*(2*rhs) exactly
            z, stats = bem_step(m, 0.125, h, x_prev[i], 2.0 * STIFF_RHS[i])
            assert z[0] == want[0][i, 0]
            assert (stats.newton_iters, stats.final_residual, stats.fallback_used) == (
                want[1][i], want[2][i], want[3][i])

    def test_newton_window_matches_step_by_step(self):
        m = stiff_forcing_model()
        # steps of 0.25, to t = 0.25 and 0.75 among others, where |h*f| is 2.5e4
        grid = GridSpec(start_index=0, step_mult=1, count=8, period_steps=4, base_step=0.25)
        dw = np.random.default_rng(7).standard_normal((50, 8, 1))
        x0 = np.zeros((50, 1))
        want = _reference_drive(m, grid, x0, dw)
        assert want[1].any_fallback and want[1].max_residual > 7e-12
        _check_same_run(pullback._drive(m, grid, "bem", x0, dw), want)


class TestBemStep:
    def test_linear_with_noise(self):
        # x1 = (x0 + g*dW) / (1 + h*lam), diffusion read at t_next - h
        m = linear_model(2.0)
        x1, stats = bem_step(m, t_next=0.5, h=0.5, x_prev=np.array([1.0]),
                             dW=np.array([0.3]))
        expect = (1.0 + 0.1 * 0.3) / (1.0 + 0.5 * 2.0)
        assert x1[0] == pytest.approx(expect, rel=1e-12)
        assert stats.final_residual <= RESIDUAL_TOL * 2.1

    def test_time_reduction_is_exact(self):
        m = builtin_benchmark()
        x = np.array([0.4])
        dw = np.array([-0.02])
        a = bem_step(m, t_next=0.25, h=0.125, x_prev=x, dW=dw)[0]
        b = bem_step(m, t_next=7.25, h=0.125, x_prev=x, dW=dw)[0]
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_increment_raises(self, value):
        # the Newton solve of a cubic and the closed form of the linear model
        for m, what in ((cubic_model(1.0), "implicit step right-hand side has non-finite values"),
                        (linear_model(2.0), "affine implicit step is non-finite")):
            with pytest.raises(NonFiniteEvaluationError, match=rf"^{what} at t=0\.5$"):
                bem_step(m, t_next=2.5, h=0.25, x_prev=np.array([0.2]), dW=np.array([value]))

    def test_benchmark_drift_time(self):
        # With x0 = 0 and no noise the step solves z(1+h*a) = h*sin(2*pi*t_next)
        m = builtin_benchmark()
        h = 0.25
        x1, _ = bem_step(m, t_next=0.25, h=h, x_prev=np.zeros(1), dW=np.zeros(1))
        assert x1[0] == pytest.approx(h / (1.0 + 10.0 * math.pi * h), rel=1e-12)


class TestEmStep:
    def test_explicit_formula(self):
        m = builtin_benchmark()
        x0, dw, h, t = np.array([0.2]), np.array([0.1]), 0.125, 0.375
        x1 = em_step(m, t_prev=t, h=h, x_prev=x0, dW=dw)
        expect = x0 + h * (-10.0 * math.pi * x0 + math.sin(2 * math.pi * t)) + 0.05 * dw
        assert x1[0] == pytest.approx(expect[0], rel=1e-12)

    def test_non_finite_drift_raises(self):
        def bad_drift(t, x):
            return np.full_like(x, np.inf)

        m = ModelSpec(
            eigenvalues=np.array([1.0]), drift=bad_drift,
            diffusion=ConstantDiffusion(0.0), period=1.0,
        )
        with pytest.raises(NonFiniteEvaluationError):
            em_step(m, 0.0, 0.5, np.array([1.0]), np.zeros(1))


# -- the closed-form step of affine drifts ------------------------------------

EPS = np.finfo(float).eps
# Either solver rounds each step within a few ulp of the largest term of the
# step equation; 8 ulp leaves room for both.
ULPS = 8.0


def affine_model(eigenvalues, coeffs, newton=False):
    """``f = p0 + p1*x + 0.7*sin(2*pi*t)`` on ``A = diag(eigenvalues)``.

    With ``newton`` the same drift is wrapped in a plain function, which
    the closed form does not recognize, so the solver runs Newton on it
    (with the drift's own analytic Jacobian).
    """
    drift = PolyTrigDrift(poly_coeffs=tuple(coeffs), trig_amp=0.7, trig_freq=1, period=1.0)
    return ModelSpec(
        eigenvalues=np.asarray(eigenvalues, dtype=float),
        drift=(lambda t, x: drift(t, x)) if newton else drift,
        diffusion=ConstantDiffusion(0.3),
        period=1.0,
        drift_jacobian=drift.jacobian,
    )


def step_scale(model, h, x_prev, rhs, z):
    """Largest term of ``z*(1 + h*lam) - h*f(t, z) = rhs``, per path, over
    the closed form's divisor: the size of one ulp of the step."""
    drift = model.drift
    p = tuple(drift.poly_coeffs) + (0.0, 0.0)
    lam = model.eigenvalues
    big = np.maximum(np.abs(x_prev), np.abs(z)) * (1.0 + h * (lam + abs(p[1])))
    terms = big + np.abs(rhs) + h * (abs(p[0]) + abs(drift.trig_amp))
    return np.max(terms / (1.0 + h * (lam - p[1])), axis=1)


AFFINE_CASES = {
    "builtin-like": ([10.0 * math.pi], ()),
    "p0": ([4.0], (0.8,)),
    "p0-p1": ([3.0], (-0.4, 1.2)),
    "d2": ([2.0, 7.5], (0.25, -1.5)),
    "trailing-zeros": ([5.0], (0.0, -0.6, 0.0, 0.0)),
}


@pytest.mark.parametrize("case", sorted(AFFINE_CASES))
def test_affine_step_matches_newton(case):
    eigenvalues, coeffs = AFFINE_CASES[case]
    closed = affine_model(eigenvalues, coeffs)
    newton = affine_model(eigenvalues, coeffs, newton=True)
    d = len(eigenvalues)
    rng = np.random.default_rng(11)
    for _ in range(40):
        h = float(rng.uniform(1e-3, 0.9))
        t_next = float(rng.uniform(0.0, 1.0))
        x_prev = rng.normal(scale=2.0, size=(9, d))
        dw = rng.normal(scale=math.sqrt(h), size=(9, d))
        z, iters, rn, fb = stepper._bem_step_batch(
            closed, t_next - h, t_next, h, x_prev, dw)
        z_n, iters_n, _, fb_n = stepper._bem_step_batch(
            newton, t_next - h, t_next, h, x_prev, dw)
        rhs = x_prev + 0.3 * dw
        scale = step_scale(closed, h, x_prev, rhs, z)
        assert np.all(np.abs(z - z_n).max(axis=1) <= ULPS * EPS * scale)
        assert np.array_equal(iters, np.ones(9)) and np.array_equal(iters, iters_n)
        assert not fb.any() and not fb_n.any()
        tol = RESIDUAL_TOL * (1.0 + np.linalg.norm(rhs, axis=1))
        assert np.all(rn <= tol)


def test_affine_single_step_api_takes_the_closed_form():
    m = affine_model([3.0], (-0.4, 1.2))
    m_n = affine_model([3.0], (-0.4, 1.2), newton=True)
    x1, stats = bem_step(m, t_next=0.375, h=0.25, x_prev=np.array([0.6]), dW=np.array([0.1]))
    x1_n, _ = bem_step(m_n, t_next=0.375, h=0.25, x_prev=np.array([0.6]),
                       dW=np.array([0.1]))
    assert x1[0] == pytest.approx(x1_n[0], abs=ULPS * EPS)
    assert stats.newton_iters == 1 and not stats.fallback_used
    z, stats = implicit_solve(m, t=0.375, h=0.25, rhs=np.array([0.63]))
    assert stats.newton_iters == 1 and not stats.fallback_used
    assert stats.final_residual <= RESIDUAL_TOL * 1.63
    expect = (0.63 + 0.25 * (-0.4 + 0.7 * math.sin(0.75 * math.pi))) / (1.0 + 0.25 * (3.0 - 1.2))
    assert z[0] == pytest.approx(expect, rel=4 * EPS)


def test_affine_step_checks_its_residual(monkeypatch):
    m = affine_model([3.0], (-0.4, 1.2))
    rhs = np.random.default_rng(2).normal(size=(50, 1))
    # no division is proven within 1e-30 of its right-hand side, so the
    # step is Newton's on the drift's values and Jacobian, as on a drift
    # that has no closed form
    with monkeypatch.context() as patch:
        patch.setattr(stepper, "RESIDUAL_TOL", 1e-30)
        assert stepper._affine_plan(m, 0.5) is None
        got = _implicit_solve_batch(m, 0.25, 0.5, rhs)
        want = _implicit_solve_batch(_subclass_twin(m), 0.25, 0.5, rhs)
    assert all(_same_bits(a, b) for a, b in zip(got, want))
    rhs[7, 0] = np.nan
    with pytest.raises(NonFiniteEvaluationError, match="non-finite at t=0.25"):
        _implicit_solve_batch(m, 0.25, 0.5, rhs)


def builtin_affine(newton=False):
    """The builtin model, or the same model with its drift wrapped for Newton."""
    m = builtin_benchmark()
    if not newton:
        return m
    drift = m.drift
    return replace(m, drift=lambda t, x: drift(t, x))


def _run_scale(model, h, states, dw):
    """One ulp of any step of a whole run: the largest state, increment and
    forcing term seen, over the smallest divisor."""
    p = tuple(model.drift.poly_coeffs) + (0.0, 0.0)
    lam = model.eigenvalues
    big = np.max(np.abs(states)) * (2.0 + h * (lam.max() + abs(p[1])))
    terms = big + 0.3 * np.max(np.abs(dw)) + h * (abs(p[0]) + abs(model.drift.trig_amp))
    return terms / (1.0 + h * (lam.min() - p[1]))


def _check_stats(summary, scale):
    assert summary.max_newton_iters == 1
    assert not summary.any_fallback
    assert summary.max_residual <= RESIDUAL_TOL * (1.0 + scale)


RUN_CASES = {
    "p0-p1": ([3.0], (-0.4, 1.2), [0.9]),
    "d2": ([2.0, 7.5], (0.25, -1.5), [0.5, -1.2]),
    "trailing-zeros": ([5.0], (0.0, -0.6, 0.0, 0.0), [-0.3]),
}


@pytest.mark.parametrize("case", sorted(RUN_CASES))
def test_affine_runs_match_newton(case):
    # whole runs: each step adds at most ULPS ulp of the run's scale, and
    # the contraction of the implicit step never amplifies earlier errors
    eigenvalues, coeffs, init_value = RUN_CASES[case]
    closed = affine_model(eigenvalues, coeffs)
    newton = affine_model(eigenvalues, coeffs, newton=True)
    init = InitialCondition(value=init_value)
    h = 2.0**-5
    lat = NoiseLattice(seed=4, base_step=h / 2, dimension=closed.dimension)
    grid = make_grid(closed, lat, h, -2.0, 0.5)
    dw = coarse_increments(lat, grid, grid.start_index, grid.count)

    path = simulate(closed, grid, "bem", init, lat)
    path_n = simulate(newton, grid, "bem", init, lat)
    scale = _run_scale(closed, h, path_n.states, dw)
    assert np.max(np.abs(path.states - path_n.states)) <= grid.count * ULPS * EPS * scale
    _check_stats(path.solver_stats, scale)

    pinned = pullback_pinned_path(closed, lat, h, r_max=1.5, init=init)
    pinned_n = pullback_pinned_path(newton, lat, h, r_max=1.5, init=init)
    steps = round(1.5 / h)
    assert np.max(np.abs(pinned.values - pinned_n.values)) <= steps * ULPS * EPS * scale
    _check_stats(pinned.solver_stats, scale)


def test_affine_builtin_runs_match_newton():
    # the builtin model from a nonzero start.  Every term of a step is
    # below 1 here (|x| <= 0.4, 0.05*|dW| and h*|sin| below 0.1), so a run
    # moves by at most ULPS ulp of 1 per step, and an rms row of the order
    # study (both schemes) by at most the pathwise move of its two runs.
    init = InitialCondition(value=[0.4])
    kwargs = dict(h_ref=2.0**-8, h_list=[2.0**-4, 2.0**-5, 2.0**-6], pullback_periods=2,
                  num_paths=6, t_eval=0.25, seed=2, scheme=("bem", "em"), init=init)
    tables = strong_error(builtin_affine(), **kwargs)
    tables_n = strong_error(builtin_affine(newton=True), **kwargs)
    atol = 2 * (2 * 256) * ULPS * EPS
    for table, table_n in zip(tables, tables_n):
        for row, row_n in zip(table.rows, table_n.rows):
            assert row.rms_error == pytest.approx(row_n.rms_error, abs=atol)
            assert row.sup_rms_error == pytest.approx(row_n.sup_rms_error, abs=atol)
        _check_stats(table.solver_stats, 1.0)

    lat = NoiseLattice(seed=5, base_step=2.0**-6)
    grid = make_grid(builtin_affine(), lat, 2.0**-6, -1.0, 0.5)
    path = simulate(builtin_affine(), grid, "bem", init, lat)
    path_n = simulate(builtin_affine(newton=True), grid, "bem", init, lat)
    assert np.max(np.abs(path.states - path_n.states)) <= grid.count * ULPS * EPS
    _check_stats(path.solver_stats, 1.0)

    pinned = pullback_pinned_path(builtin_affine(), lat, 2.0**-6, r_max=1.0, init=init)
    pinned_n = pullback_pinned_path(builtin_affine(newton=True), lat, 2.0**-6, r_max=1.0,
                                    init=init)
    assert np.max(np.abs(pinned.values - pinned_n.values)) <= 64 * ULPS * EPS
    _check_stats(pinned.solver_stats, 1.0)


class _CountCalls:
    """Counts the calls of ``PolyTrigDrift.__call__`` and ``jacobian``."""

    def __init__(self, monkeypatch):
        self.drift = self.jacobian = 0
        call, jac = PolyTrigDrift.__call__, PolyTrigDrift.jacobian

        def counted_call(drift, t, x):
            self.drift += 1
            return call(drift, t, x)

        def counted_jacobian(drift, t, x):
            self.jacobian += 1
            return jac(drift, t, x)

        monkeypatch.setattr(PolyTrigDrift, "__call__", counted_call)
        monkeypatch.setattr(PolyTrigDrift, "jacobian", counted_jacobian)


def test_builtin_step_never_calls_the_drift(monkeypatch):
    counts = _CountCalls(monkeypatch)
    m = builtin_benchmark()  # built after patching: it binds drift.jacobian
    x1, stats = bem_step(m, t_next=0.25, h=0.125, x_prev=np.array([0.3]), dW=np.array([0.2]))
    assert (counts.drift, counts.jacobian) == (0, 0)
    assert stats.newton_iters == 1


def test_cubic_model_still_runs_newton(monkeypatch):
    # perfbench/child.CUBIC_MODEL
    counts = _CountCalls(monkeypatch)
    m = model_from_config({
        "lambda": [10.0],
        "drift": {"poly_coeffs": [0, -1, 0, -2], "trig_amp": 1.5, "trig_freq": 1},
        "g": {"amp": 0.5},
        "tau": 1.0,
        "constants": {"C_f": 0.5, "sigma": 0.5},
    })
    _, stats = bem_step(m, t_next=0.25, h=0.125, x_prev=np.array([2.0]), dW=np.array([0.2]))
    assert counts.drift > 0 and counts.jacobian > 0
    assert stats.newton_iters >= 2


@dataclass(frozen=True)
class _SubDrift(PolyTrigDrift):
    """A subclass may change how the drift evaluates, so it runs Newton."""


def _subclass_twin(model):
    """``model`` with its drift as a :class:`_SubDrift` of the same fields,
    and the same ``drift_jacobian``: every implicit step of it runs Newton,
    on the values and Jacobian of ``model``."""
    d = model.drift
    return replace(model, drift=_SubDrift(d.poly_coeffs, d.trig_amp, d.trig_freq, d.period))


def test_other_drifts_run_newton(monkeypatch):
    counts = _CountCalls(monkeypatch)
    # a quadratic term, however small, is not affine
    m = affine_model([3.0], (0.1, -0.2, -1e-9))
    _, stats = implicit_solve(m, t=0.25, h=0.5, rhs=np.array([1.0]))
    assert counts.drift > 0 and counts.jacobian > 0

    counts.drift = counts.jacobian = 0
    drift = _SubDrift(poly_coeffs=(0.3, -0.5), trig_amp=0.7, trig_freq=1, period=1.0)
    m = ModelSpec(eigenvalues=np.array([3.0]), drift=drift, diffusion=ConstantDiffusion(0.3),
                  period=1.0, drift_jacobian=drift.jacobian)
    z, _ = implicit_solve(m, t=0.25, h=0.5, rhs=np.array([1.0]))
    assert counts.drift > 0 and counts.jacobian > 0
    assert z[0] == pytest.approx((1.0 + 0.5 * (0.3 + 0.7)) / (1.0 + 0.5 * 3.5), rel=1e-12)

    # 1 + h*(lambda - p1) = 1 + 0.5*(1 - 5) = -1: the closed form stands aside
    counts.drift = counts.jacobian = 0
    m = affine_model([1.0], (0.2, 5.0))
    z, stats = implicit_solve(m, t=0.25, h=0.5, rhs=np.array([1.0]))
    assert counts.drift > 0 and counts.jacobian > 0
    assert z[0] == pytest.approx((1.0 + 0.5 * (0.2 + 0.7)) / -1.0, rel=1e-12)
    assert not stats.fallback_used


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", sorted(AFFINE_CASES))
def test_affine_step_is_one_division(case):
    # the closed form written out: (rhs + h*(p0 + F(t))) / (1 + h*(lambda - p1))
    eigenvalues, coeffs = AFFINE_CASES[case]
    m = affine_model(eigenvalues, coeffs)
    p = tuple(coeffs) + (0.0, 0.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        h, t = float(rng.uniform(1e-3, 0.9)), float(rng.uniform(0.0, 1.0))
        rhs = rng.normal(scale=2.0, size=(7, len(eigenvalues)))
        b = rhs + h * (p[0] + m.drift._forcing(t))
        z = _implicit_solve_batch(m, t, h, rhs)[0]
        assert _same_bits(z, b / (1.0 + h * (m.eigenvalues - p[1])))


def test_affine_step_keeps_signed_zeros():
    # p0 = -0.0 and F(0) = -0.0 make the forcing term -0.0, so a right-hand
    # side of -0.0 must stay -0.0
    drift = PolyTrigDrift(poly_coeffs=(-0.0, 0.5), trig_amp=0.7, trig_freq=-1, period=1.0)
    m = ModelSpec(eigenvalues=np.array([3.0]), drift=drift, diffusion=ConstantDiffusion(0.3),
                  period=1.0)
    z = _implicit_solve_batch(m, 0.0, 0.25, np.array([[-0.0], [0.0]]))[0]
    assert _same_bits(z, np.array([[-0.0], [0.0]]))


# -- affine windows, against one step at a time -------------------------------

CHUNK = pullback._STEP_CHUNK


def _reference_drive(model, grid, x0, dw):
    """The implicit scheme of ``_drive`` as one ``_bem_step_batch`` call per
    step: what every affine window must reproduce bit for bit."""
    n, h = grid.period_steps, grid.h
    states = [x0]
    x = x0.copy()
    max_iters, max_resid, any_fb = 0, 0.0, False
    for i in range(grid.count):
        a = grid.start_index + i
        x, iters, rn, fb = stepper._bem_step_batch(
            model, (a % n) * h, ((a + 1) % n) * h, h, x, dw[:, i])
        max_iters = max(max_iters, int(iters.max()))
        max_resid = max(max_resid, float(rn.max()))
        any_fb = any_fb or bool(fb.any())
        states.append(x)
    return np.stack(states, axis=1), SolverSummary(max_iters, max_resid, any_fb)


def _reference_drive_em(model, grid, x0, dw):
    """The explicit scheme of ``_drive`` as one ``_em_step_batch`` call per
    step over the paths still below the divergence threshold."""
    n, h = grid.period_steps, grid.h
    states = [x0]
    x = x0.copy()
    active = np.isfinite(x0).all(axis=1)
    for i in range(grid.count):
        if active.any():
            x[active] = stepper._em_step_batch(
                model, ((grid.start_index + i) % n) * h, h, x[active], dw[active, i])
        norms = np.linalg.norm(x, axis=1)
        bad = active & (~np.isfinite(norms) | (norms > pullback.DIVERGENCE_THRESHOLD))
        x[bad] = np.nan
        active &= ~bad
        states.append(x.copy())
    return np.stack(states, axis=1), SolverSummary()


def _crossings(states):
    """Each path's first node whose state is not finite, or -1."""
    bad = ~np.isfinite(states).all(axis=-1)
    return np.where(bad.any(axis=1), bad.argmax(axis=1), -1)


class _KernelCalls:
    """Path-steps taken by ``_drive`` at the affine window, at the Newton
    window and at the per-step kernel; the reference loop calls none of them
    through ``pullback``."""

    def __init__(self, monkeypatch):
        self.window = self.newton = self.step = 0
        window, newton = pullback._affine_steps, pullback._newton_steps
        step = pullback._bem_step_batch

        def counted_window(x, gdw, *rest):
            self.window += gdw.shape[0] * gdw.shape[1]
            return window(x, gdw, *rest)

        def counted_newton(model, h, t_next, z, *rest):
            self.newton += z.shape[1] * len(t_next)
            return newton(model, h, t_next, z, *rest)

        def counted_step(model, t_prev, t_next, h, x_prev, *rest):
            self.step += x_prev.shape[0]
            return step(model, t_prev, t_next, h, x_prev, *rest)

        monkeypatch.setattr(pullback, "_affine_steps", counted_window)
        monkeypatch.setattr(pullback, "_newton_steps", counted_newton)
        monkeypatch.setattr(pullback, "_bem_step_batch", counted_step)


def _window_inputs(d, count, seed, paths=5):
    """A grid of ``count`` steps of 2**-5 that starts 37 steps before 0 and
    crosses period boundaries, nonzero starting states and increments."""
    h = 2.0**-5
    grid = GridSpec(start_index=-37, step_mult=1, count=count, period_steps=32, base_step=h)
    rng = np.random.default_rng(seed)
    x0 = rng.normal(scale=2.0, size=(paths, d))
    dw = rng.normal(scale=math.sqrt(h), size=(paths, count, d))
    return grid, x0, dw


def _check_same_run(got, want):
    assert _same_bits(got[0], want[0])
    assert got[1] == want[1]


@pytest.mark.parametrize("count", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17])
@pytest.mark.parametrize("case", sorted(AFFINE_CASES))
def test_affine_window_matches_step_by_step(monkeypatch, case, count):
    eigenvalues, coeffs = AFFINE_CASES[case]
    # a diffusion that varies in time pins the node each increment is weighted at
    m = replace(affine_model(eigenvalues, coeffs),
                diffusion=lambda t: 0.3 + 0.2 * math.cos(2.0 * math.pi * t))
    grid, x0, dw = _window_inputs(m.dimension, count, seed=count)
    # two paths on one noise realization share a broadcast row
    shared = np.broadcast_to(dw[:1], (3,) + dw.shape[1:])
    calls = _KernelCalls(monkeypatch)
    for x_start, incs in ((x0, dw), (x0[:3], shared)):
        want = _reference_drive(m, grid, x_start, incs)
        _check_same_run(pullback._drive(m, grid, "bem", x_start, incs), want)
    assert calls.step == 0 and calls.window == (5 + 3) * count


@pytest.mark.parametrize("kind", ["quadratic", "subclass", "negative-divisor"])
def test_other_drifts_keep_the_per_step_kernel(monkeypatch, kind):
    if kind == "quadratic":
        m = affine_model([3.0], (0.1, -0.2, -1e-9))
    elif kind == "subclass":
        drift = _SubDrift(poly_coeffs=(0.3, -0.5), trig_amp=0.7, trig_freq=1, period=1.0)
        m = ModelSpec(eigenvalues=np.array([3.0]), drift=drift,
                      diffusion=ConstantDiffusion(0.3), period=1.0,
                      drift_jacobian=drift.jacobian)
    else:
        # 1 + h*(lambda - p1) = 1 + (1 - 40)/32 < 0
        m = affine_model([1.0], (0.2, 40.0))
    count = 3
    grid, x0, dw = _window_inputs(1, count, seed=1)
    calls = _KernelCalls(monkeypatch)
    _check_same_run(pullback._drive(m, grid, "bem", x0, dw), _reference_drive(m, grid, x0, dw))
    assert calls.window == 0 and calls.step == 0 and calls.newton == 5 * count


def _raised(exc_type, run):
    with pytest.raises(exc_type) as info:
        run()
    return str(info.value)


def test_affine_window_names_the_first_step_over_tolerance(monkeypatch):
    # below a tolerance of 1e-30 the run takes Newton: every step before
    # `bad` solves 0 exactly; at `bad` Newton cannot bring 50 random
    # right-hand sides at d = 2 within 1e-30, and the run raises the error
    # of one step at a time of a drift without a closed form
    drift = PolyTrigDrift(poly_coeffs=(0.0, -0.5), trig_amp=0.0, trig_freq=1, period=1.0)
    m = ModelSpec(eigenvalues=np.array([3.0, 5.0]), drift=drift,
                  diffusion=ConstantDiffusion(0.3), period=1.0)
    count, bad = 2 * CHUNK + 10, CHUNK + 5
    grid, _, _ = _window_inputs(2, count, seed=0)
    x0, dw = np.zeros((50, 2)), np.zeros((50, count, 2))
    dw[:, bad:] = np.random.default_rng(2).normal(size=(50, count - bad, 2))
    monkeypatch.setattr(stepper, "RESIDUAL_TOL", 1e-30)
    assert not pullback._StepPlan(m, grid).affine
    got = _raised(NonConvergenceError, lambda: pullback._drive(m, grid, "bem", x0, dw))
    want = _raised(NonConvergenceError,
                   lambda: _reference_drive(_subclass_twin(m), grid, x0, dw))
    assert got == want
    t_bad = ((grid.start_index + bad + 1) % grid.period_steps) * grid.h
    assert got.startswith("implicit solve did not converge for ")
    assert f" path(s) at t={t_bad} (" in got


@pytest.mark.parametrize("where", ["x0", "dw"])
@pytest.mark.parametrize("d", [1, 2])
def test_affine_window_reports_non_finite_steps(where, d):
    m = affine_model([3.0, 5.0][:d], (0.25, -1.5))
    count = 2 * CHUNK + 10
    grid, x0, dw = _window_inputs(d, count, seed=4)
    bad = 0 if where == "x0" else CHUNK + 5
    if where == "x0":
        x0[3, d - 1] = np.nan
    else:
        dw[3, bad, 0] = np.nan
    got = _raised(NonFiniteEvaluationError, lambda: pullback._drive(m, grid, "bem", x0, dw))
    want = _raised(NonFiniteEvaluationError, lambda: _reference_drive(m, grid, x0, dw))
    assert got == want
    t_bad = ((grid.start_index + bad + 1) % grid.period_steps) * grid.h
    assert got == f"affine implicit step is non-finite at t={t_bad}"


# -- the proven residual bound of the closed-form step ------------------------

def _window(x, gdw):
    """A window's ``(z, inc)`` for the states ``x`` and the increments
    ``gdw[:, j]`` of each step ``j``: ``z[0]`` holds ``x``, and ``inc`` is
    step-major."""
    z = np.empty((gdw.shape[1] + 1,) + x.shape)
    z[0] = x
    return z, np.ascontiguousarray(gdw.swapaxes(0, 1))


def _measured_residual(z, gdw, forcing, divisor):
    """The largest residual norm ``|z_{j+1}*divisor - b_j|`` of a window,
    measured, and ``|rhs|`` at its largest."""
    rhs = z[:-1] + np.ascontiguousarray(gdw.swapaxes(0, 1))
    r = z[1:] * divisor - (rhs + np.asarray(forcing)[:, None, None])
    return float(stepper._row_norm(r).max()), float(stepper._row_norm(rhs).max())


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_proven_bound_covers_the_measured_residual(data):
    # random affine models, states and increments at d = 1 and 2, inside the
    # bound's precondition: the reported bound lies between the measured
    # residual and the tolerance, and the states are those of one division
    # per step
    d = data.draw(st.sampled_from([1, 2]), label="d")
    floats = lambda lo, hi: st.floats(lo, hi, allow_nan=False)  # noqa: E731
    h = data.draw(floats(1e-3, 0.9), label="h")
    lam = np.sort([data.draw(floats(0.1, 60.0), label="lambda") for _ in range(d)])
    p0 = data.draw(floats(-5.0, 5.0), label="p0")
    p1 = data.draw(floats(-5.0, float(lam.min()) + 0.9 / h), label="p1")
    drift = PolyTrigDrift(poly_coeffs=(p0, p1), trig_amp=data.draw(floats(-3.0, 3.0)),
                          trig_freq=data.draw(st.integers(-3, 3)), period=1.0)
    m = ModelSpec(eigenvalues=lam, drift=drift, diffusion=ConstantDiffusion(0.3), period=1.0)
    affine = stepper._affine_plan(m, h)
    assume(affine is not None)
    _, divisor, _ = affine
    steps, paths = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 30))
    # squares of the computed norms at d = 2 stay finite
    scale = 10.0 ** data.draw(st.integers(-150, 140) | st.integers(-3, 3), label="scale")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    x = rng.normal(scale=scale, size=(paths, d))
    gdw = rng.normal(scale=scale * math.sqrt(h), size=(paths, steps, d))
    t_next = rng.uniform(0.0, 1.0, size=steps).tolist()
    forcing = [h * (p0 + drift._forcing(t)) for t in t_next]
    bound = stepper._affine_bound(divisor, max(abs(f) for f in forcing))
    assert bound is not None
    z, inc = _window(x, gdw)
    reported = stepper._affine_steps(z, inc, forcing, divisor, t_next, bound)
    z_divided = np.empty_like(z)
    z_divided[0] = x
    for j, f in enumerate(forcing):
        z_divided[j + 1] = (z_divided[j] + gdw[:, j] + f) / divisor
    assert _same_bits(z, z_divided)
    measured, rhs_max = _measured_residual(z_divided, gdw, forcing, divisor)
    assert measured <= reported <= RESIDUAL_TOL * (1.0 + rhs_max)


@pytest.mark.parametrize("d", [1, 2])
def test_proven_bound_covers_subnormal_steps(d):
    # quotients and products below the normal range round by an absolute
    # amount, which the bound's floor covers
    m = affine_model([3.0, 7.5][:d], (0.0, 1.2))
    _, divisor, _ = stepper._affine_plan(m, 0.5)
    rng = np.random.default_rng(d)
    x = rng.normal(scale=1e-310, size=(40, d))
    gdw = rng.normal(scale=1e-312, size=(40, 3, d))
    forcing = [0.0, -0.0, 0.0]
    bound = stepper._affine_bound(divisor, 0.0)
    z, inc = _window(x, gdw)
    reported = stepper._affine_steps(z, inc, forcing, divisor, [0.1, 0.2, 0.3], bound)
    measured, rhs_max = _measured_residual(z, gdw, forcing, divisor)
    assert measured <= reported <= RESIDUAL_TOL * (1.0 + rhs_max)
    # the floor is needed: 2u|b| alone lies below what is measured at d = 1
    assert (measured > 2.0**-52 * float(np.abs(z[1:] * divisor).max())) == (d == 1)


def _large_forcing_model(d):
    """An affine drift whose forcing, 1e6*sin(2 pi t), leaves no room for
    the proven bound at h = 0.5 or 0.25, on d = 1 or 2 coordinates."""
    drift = PolyTrigDrift(poly_coeffs=(-0.4, 1.2), trig_amp=1e6, trig_freq=1, period=1.0)
    return ModelSpec(eigenvalues=np.array([3.0, 5.0][:d]), drift=drift,
                     diffusion=ConstantDiffusion(0.3), period=1.0,
                     drift_jacobian=drift.jacobian)


def test_forcing_outside_the_bound_takes_newton(monkeypatch):
    # h*(|p0| + |trig_amp|) = 5e5 has no bound, so the plan is None and
    # every step runs Newton, at t = 0 where h*|p0 + F| is 0.2 too
    counts = _CountCalls(monkeypatch)
    m = _large_forcing_model(1)  # built after patching: it binds drift.jacobian
    assert stepper._affine_plan(m, 0.5) is None
    _, divisor, _ = stepper._affine_plan(affine_model([3.0], (-0.4, 1.2)), 0.5)
    assert stepper._affine_bound(divisor, 0.5 * (1e6 + 0.4)) is None
    z, _ = implicit_solve(m, t=0.0, h=0.5, rhs=np.array([0.7]))
    assert counts.drift > 0 and counts.jacobian > 0
    assert z[0] == pytest.approx((0.7 + 0.5 * -0.4) / (1.0 + 0.5 * (3.0 - 1.2)), rel=1e-12)


def test_tolerance_below_the_bound_takes_newton(monkeypatch):
    counts = _CountCalls(monkeypatch)
    m = affine_model([3.0], (-0.4, 1.2))
    _, divisor, _ = stepper._affine_plan(m, 0.5)
    assert stepper._affine_bound(divisor, 1.0) is not None
    monkeypatch.setattr(stepper, "RESIDUAL_TOL", 1e-30)
    assert stepper._affine_bound(divisor, 1.0) is None
    assert stepper._affine_plan(m, 0.5) is None
    implicit_solve(m, t=0.25, h=0.5, rhs=np.array([0.7]))
    assert counts.drift > 0 and counts.jacobian > 0


@pytest.mark.parametrize("d", [1, 2])
def test_affine_drift_without_a_bound_steps_as_newton(d):
    # a forcing of 1e6 has no proven bound, so the single-step solve,
    # bem_step and a run over t = 0.25 step by Newton with the bits, or the
    # error, of a drift that has no closed form.  At d = 1 bisection brings
    # every row within the tolerance or between two adjacent doubles around
    # the root; at d = 2 the solve does not converge
    m, h, t = _large_forcing_model(d), 0.5, 0.25
    twin = _subclass_twin(m)
    rhs = np.random.default_rng(2).normal(size=(50, d))
    zero = np.zeros(d)
    grid = GridSpec(start_index=0, step_mult=1, count=4, period_steps=4, base_step=0.25)
    dw = np.random.default_rng(3).normal(size=(50, 4, d))
    calls = {
        "solve": lambda model: _implicit_solve_batch(model, t, h, rhs),
        "implicit_solve": lambda model: implicit_solve(model, t, h, rhs[0]),
        # g*0 is 0, so the step solves for rhs[1] from the guess rhs[1]
        "bem_step": lambda model: bem_step(model, t, h, rhs[1], zero),
        "drive": lambda model: pullback._drive(model, grid, "bem", rhs, dw),
    }
    for name, call in calls.items():
        if d == 2:
            got = _raised(NonConvergenceError, lambda: call(m))
            assert got == _raised(NonConvergenceError, lambda: call(twin)), name
            continue
        for a, b in zip(call(m), call(twin), strict=True):
            assert _same_bits(a, b) if isinstance(a, np.ndarray) else a == b, name
    if d == 1:
        _check_same_run(calls["drive"](m), _reference_drive(twin, grid, rhs, dw))
        z, _, rn, fallback = calls["solve"](m)
        assert fallback.any()
        for i in np.flatnonzero(fallback):
            y, zi = float(rhs[i, 0]), float(z[i, 0])
            assert rn[i] <= RESIDUAL_TOL * (1.0 + abs(y)) or _brackets_root(m, t, h, y, zi)


def _forced_model(p0, amp, freq, n, h):
    """A scalar affine model whose forcing is ``amp*sin(2 pi freq t)`` on a
    period of ``n`` steps of ``h``."""
    drift = PolyTrigDrift(poly_coeffs=(p0, 1.2), trig_amp=amp, trig_freq=freq, period=n * h)
    return ModelSpec(eigenvalues=np.array([3.0]), drift=drift, diffusion=ConstantDiffusion(0.3),
                     period=n * h, drift_jacobian=drift.jacobian)


@settings(max_examples=150, deadline=None)
@given(p0=st.floats(-1e200, 1e200) | st.floats(-10.0, 10.0),
       amp=st.floats(-1e200, 1e200) | st.floats(-1e5, 1e5),
       freq=st.integers(-4, 4), n=st.integers(1, 40), h=st.floats(1e-4, 0.99),
       start=st.integers(-100, 100), count=st.integers(1, 90))
def test_plan_forcing_lies_within_the_period_bound(p0, amp, freq, n, h, start, count):
    # every h*(p0 + F(t_a)) a plan tabulates, for any residues, is at most
    # the h*(|p0| + |trig_amp|) that _affine_plan proves its bound for
    m = _forced_model(p0, amp, freq, n, h)
    plan = pullback._StepPlan(m, GridSpec(start_index=start, step_mult=1, count=count,
                                          period_steps=n, base_step=h))
    terms = plan.affine_forcing if plan.affine else [h * (p0 + f) for f in plan.forcing]
    assert plan.affine == (stepper._affine_plan(m, h) is not None)
    assert max(abs(f) for f in terms) <= h * (abs(p0) + abs(amp))


def _threshold_amplitudes(p0, n, h):
    """The largest forcing amplitude whose plan at ``h`` divides, and the
    next double above it, whose plan runs Newton."""
    lo, hi = 0.0, 1e9
    while math.nextafter(lo, hi) != hi:
        mid = 0.5 * (lo + hi)
        if stepper._affine_plan(_forced_model(p0, mid, 1, n, h), h) is None:
            hi = mid
        else:
            lo = mid
    return lo, hi


@pytest.mark.parametrize("side", [0, 1])
def test_one_decision_for_every_grid_and_step(monkeypatch, side):
    # just below the threshold every plan divides, and just above it every
    # plan runs Newton: a one-step grid where |F| is small, a grid shorter
    # than a period and a grid over two periods decide alike, and each
    # simulation gives the bytes of bem_step taken step by step, which
    # divides (no drift call) or runs Newton (drift calls) at every step
    n, h, p0 = 16, 2.0**-4, -0.4
    amp = _threshold_amplitudes(p0, n, h)[side]
    counts = _CountCalls(monkeypatch)
    m = _forced_model(p0, amp, 1, n, h)  # built after patching: it binds drift.jacobian
    lat = NoiseLattice(seed=3, base_step=h)
    init = InitialCondition(value=[0.4])
    for t_start, t_end in ((7 * h, 8 * h), (3 * h, 9 * h), (-1.0, 1.0)):
        grid = make_grid(m, lat, h, t_start, t_end)
        assert pullback._StepPlan(m, grid).affine == (side == 0)
        path = simulate(m, grid, "bem", init, lat)
        dw = coarse_increments(lat, grid, grid.start_index, grid.count)
        xs = [init.value]
        for i in range(grid.count):
            counts.drift = 0
            t_next = (grid.start_index + i + 1) * h
            xs.append(bem_step(m, t_next, h, xs[-1], dw[i])[0])
            assert (counts.drift > 0) == (side == 1)
        assert _same_bits(path.states, np.array(xs))


def test_builtin_plans_take_the_proven_closed_form():
    # the builtin model's runs, the benchmark's order and pull-back
    # workloads among them, have the proven bound at every step size from
    # 2**-2 to 2**-12, so they never measure a residual
    m = builtin_benchmark()
    for k in range(2, 13):
        n = 2**k
        plan = pullback._StepPlan(m, GridSpec(start_index=-n, step_mult=1, count=2 * n,
                                              period_steps=n, base_step=1.0 / n))
        assert plan.affine and plan.bound is not None


@pytest.mark.parametrize("bad", ["nan", "inf", "overflow"])
@pytest.mark.parametrize("d", [1, 2])
def test_proven_window_names_the_first_non_finite_step(bad, d):
    # a non-finite step raises, naming the first step whose result is not
    # finite
    m = affine_model([3.0, 5.0][:d], (0.25, -1.5))
    h, steps = 2.0**-5, 9
    _, divisor, _ = stepper._affine_plan(m, h)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(30, d))
    gdw = rng.normal(scale=math.sqrt(h), size=(30, steps, d))
    gdw[4, 6, 0] = {"nan": np.nan, "inf": np.inf, "overflow": 1.7e308}[bad]
    gdw[4, 7, 0] = 1.7e308  # x + 1.7e308 + 1.7e308 overflows at step 7
    t_next = [(j + 1) * h for j in range(steps)]
    forcing = [h * (0.25 + m.drift._forcing(t)) for t in t_next]
    bound = stepper._affine_bound(divisor, max(abs(f) for f in forcing))
    assert bound is not None
    first = 6 if bad != "overflow" else 7
    message = f"affine implicit step is non-finite at t={t_next[first]}"
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFiniteEvaluationError, match=f"^{re.escape(message)}$"):
        stepper._affine_steps(*_window(x, gdw), forcing, divisor, t_next, bound)


# -- the step plan, against coefficients evaluated at every step -------------

def _plan_model(kind, n, trig_freq):
    """A drift of ``kind`` with forcing frequency ``trig_freq`` on a period of
    ``n`` steps of 0.25, and a diffusion that is neither even nor odd about
    any node, so that reading it one node off changes its value."""
    tau = n * 0.25
    coeffs = {"affine": (0.25, -1.5), "cubic": (0.0, -1.0, 0.0, -2.0)}[kind]
    drift = PolyTrigDrift(poly_coeffs=coeffs, trig_amp=0.7, trig_freq=trig_freq, period=tau)
    return ModelSpec(
        eigenvalues=np.array([3.0]), drift=drift, period=tau, drift_jacobian=drift.jacobian,
        diffusion=lambda t: 0.3 + 0.2 * math.cos(2.0 * math.pi * t / tau)
        + 0.1 * math.sin(4.0 * math.pi * t / tau),
    )


PLAN_CASES = [(kind, n, freq) for kind in ("affine", "cubic") for n in (3, 4) for freq in (2, -1)]


@pytest.mark.parametrize("chunk", [1, 7, CHUNK])
@pytest.mark.parametrize("kind,n,trig_freq", PLAN_CASES)
def test_plan_tables_index_the_right_times(monkeypatch, kind, n, trig_freq, chunk):
    # periods of 3 and 4 steps wrap the tables inside a chunk, and the grid
    # starts mid-period at a negative index; the plan of the whole grid also
    # serves a window of it, as a study's windows use their run's plan
    m = _plan_model(kind, n, trig_freq)
    count = CHUNK + 9
    grid = GridSpec(start_index=-4 * n - 2, step_mult=1, count=count, period_steps=n,
                    base_step=0.25)
    rng = np.random.default_rng(n)
    x0 = rng.normal(size=(5, 1))
    dw = rng.normal(scale=0.5, size=(5, count, 1))
    monkeypatch.setattr(pullback, "_STEP_CHUNK", chunk)
    plan = pullback._StepPlan(m, grid)
    window = grid._steps(5, 17)
    for scheme, reference in (("bem", _reference_drive), ("em", _reference_drive_em)):
        want = reference(m, grid, x0, dw)
        _check_same_run(pullback._drive(m, grid, scheme, x0, dw), want)
        _check_same_run(pullback._drive(m, grid, scheme, x0, dw, plan), want)
        _check_same_run(pullback._drive(m, window, scheme, x0, dw[:, 5:22], plan),
                        reference(m, window, x0, dw[:, 5:22]))


@pytest.mark.parametrize("scheme", ["bem", "em"])
@pytest.mark.parametrize("kind,n,trig_freq", PLAN_CASES)
def test_pinned_plan_matches_one_run_per_depth(kind, n, trig_freq, scheme):
    m = _plan_model(kind, n, trig_freq)
    h, steps = 0.25, 4 * n + 2  # the deepest run starts mid-period
    lat = NoiseLattice(seed=n, base_step=h)
    start = InitialCondition(value=[0.6])
    values = [start.resolve(n, 1)]
    for i in range(1, steps + 1):
        values.append(simulate(m, make_grid(m, lat, h, -i * h, 0.0), scheme, start,
                               lat).states[-1])
    pinned = pullback_pinned_path(m, lat, h, steps * h, init=start, scheme=scheme)
    assert _same_bits(pinned.values, np.array(values))


def test_plan_refuses_nodes_it_does_not_hold():
    # a grid shorter than a period tabulates only its own nodes
    m = _plan_model("affine", 4, 2)
    plan = pullback._StepPlan(m, GridSpec(start_index=-3, step_mult=1, count=2,
                                          period_steps=4, base_step=0.25))
    for a in (-3, 1):  # and one period later
        k = plan.offset(a, 3)
        assert plan.times[k : k + 3] == [0.25, 0.5, 0.75]
    with pytest.raises(ValueError, match="nodes -3 to 0 are not in the step plan"):
        plan.offset(-3, 4)


# -- chunks of the per-step kernels, against one step at a time --------------

def _newton_cubic_model(d):
    """The cubic drift of ``NEWTON_CUBIC`` at d = 1 or 2, with a diffusion
    that varies in time."""
    m = model_from_config(dict(NEWTON_CUBIC, **{"lambda": [10.0] if d == 1 else [2.0, 6.5]}))
    return replace(m, diffusion=lambda t: 0.3 + 0.2 * math.cos(2.0 * math.pi * t))


@pytest.mark.parametrize("d", [1, 2])
def test_chunks_are_invisible_to_newton(monkeypatch, d):
    m = _newton_cubic_model(d)
    count = 2 * CHUNK + 10
    grid, x0, dw = _window_inputs(d, count, seed=d)
    calls = _KernelCalls(monkeypatch)
    want = _reference_drive(m, grid, x0, dw)
    for chunk in (1, 7, CHUNK):
        monkeypatch.setattr(pullback, "_STEP_CHUNK", chunk)
        _check_same_run(pullback._drive(m, grid, "bem", x0, dw), want)
    assert calls.window == 0 and calls.step == 0 and calls.newton == 3 * 5 * count


# -- the Newton window's own loop and its fallbacks, against one step at a time

def _solves(monkeypatch):
    """The rows of every per-step implicit solve from now on."""
    rows = []
    solve = stepper._implicit_solve_batch

    def counted(model, t, h, rhs, *rest):
        rows.append(len(rhs))
        return solve(model, t, h, rhs, *rest)

    monkeypatch.setattr(stepper, "_implicit_solve_batch", counted)
    return rows


NEWTON_KINDS = ["exact", "subclass", "fd", "custom", "d2"]


def _newton_window_model(kind):
    """The cubic of ``_newton_cubic_model``: its own drift and Jacobian at
    d = 1, which the Newton window solves in its own loop, or one it hands
    to the per-step solve: a subclass of the drift, a finite-difference or a
    custom Jacobian, or d = 2."""
    m = _newton_cubic_model(2 if kind == "d2" else 1)
    if kind == "subclass":
        f = m.drift
        drift = _SubDrift(poly_coeffs=f.poly_coeffs, trig_amp=f.trig_amp,
                          trig_freq=f.trig_freq, period=f.period)
        return replace(m, drift=drift, drift_jacobian=drift.jacobian)
    if kind == "fd":
        return replace(m, drift_jacobian=None)
    if kind == "custom":
        return replace(m, drift_jacobian=lambda t, x, jac=m.drift_jacobian: jac(t, x))
    return m


def _spiked_newton_inputs(paths, count):
    """Scalar inputs whose rows take one to three iterations a step, and
    whose spiked rows (every one at width 1) jump far at one step in each of
    the first two chunks."""
    grid, x0, dw = _window_inputs(1, count, seed=paths, paths=paths)
    dw *= np.where(np.arange(paths) % 3 == 0, 0.01, 1.0)[:, None, None]
    spiked = (np.arange(paths) % 97 == 5) | (paths == 1)
    dw[spiked, 3] = 40.0
    dw[spiked, CHUNK + 1] = -40.0
    return grid, x0, dw


@pytest.mark.parametrize("paths", [1, 20, 21, 1280])
def test_newton_window_matches_step_by_step(monkeypatch, paths):
    # capped at three iterations, rows converge, damp and fall back to
    # bisection side by side, in the window's own loop
    monkeypatch.setattr(stepper, "_MAX_NEWTON_ITERS", 3)
    m = _newton_window_model("exact")
    grid, x0, dw = _spiked_newton_inputs(paths, CHUNK + 10)
    want = _reference_drive(m, grid, x0, dw)
    assert want[1].max_newton_iters == 3 and want[1].any_fallback
    solves = _solves(monkeypatch)
    _check_same_run(pullback._drive(m, grid, "bem", x0, dw), want)
    assert not solves
    if paths <= 21:
        # the spiked rows damp: without halvings the run is another one
        monkeypatch.setattr(stepper, "_MAX_DAMPING_HALVINGS", 0)
        undamped = pullback._drive(m, grid, "bem", x0, dw)
        assert not _same_bits(undamped[0], want[0])
        _check_same_run(undamped, _reference_drive(m, grid, x0, dw))


@pytest.mark.parametrize("kind", NEWTON_KINDS[1:])
def test_newton_window_hands_other_drifts_to_the_per_step_solve(monkeypatch, kind):
    m = _newton_window_model(kind)
    count = CHUNK + 10
    grid, x0, dw = _window_inputs(m.dimension, count, seed=5, paths=21)
    want = _reference_drive(m, grid, x0, dw)
    solves = _solves(monkeypatch)
    _check_same_run(pullback._drive(m, grid, "bem", x0, dw), want)
    assert solves == [21] * count


@pytest.mark.parametrize("kind", NEWTON_KINDS)
def test_newton_window_reports_a_non_finite_drift(kind):
    m = _newton_window_model(kind)
    grid, x0, dw = _window_inputs(m.dimension, 5, seed=3, paths=21)
    x0[7, 0] = 1e103  # a finite state at which the cubic overflows
    with np.errstate(over="ignore", invalid="ignore"):
        got = _raised(NonFiniteEvaluationError, lambda: pullback._drive(m, grid, "bem", x0, dw))
        want = _raised(NonFiniteEvaluationError, lambda: _reference_drive(m, grid, x0, dw))
    assert got == want
    t_first = ((grid.start_index + 1) % grid.period_steps) * grid.h
    assert got == f"drift returned non-finite values at t={t_first}"


@pytest.mark.parametrize("kind", NEWTON_KINDS)
def test_newton_window_names_a_non_finite_right_hand_side(kind):
    # an infinite right-hand side would pass its own infinite tolerance and
    # hold the state, and a NaN one would be left above tolerance
    m = _newton_window_model(kind)
    count, bad = CHUNK + 10, CHUNK + 5
    for value in (np.nan, np.inf, -np.inf):
        grid, x0, dw = _window_inputs(m.dimension, count, seed=6, paths=21)
        dw[7, bad, 0] = value
        got = _raised(NonFiniteEvaluationError, lambda: pullback._drive(m, grid, "bem", x0, dw))
        want = _raised(NonFiniteEvaluationError, lambda: _reference_drive(m, grid, x0, dw))
        t_bad = ((grid.start_index + bad + 1) % grid.period_steps) * grid.h
        assert got == want == f"implicit step right-hand side has non-finite values at t={t_bad}"


def test_newton_window_names_a_failed_fallback():
    # the negative divisor multiplies one row by about -4.6 a step, until at
    # step 131, in the second chunk, its root overflows the drift and the
    # bisection fallback fails
    m = affine_model([1.0], (0.2, 40.0))
    grid, x0, dw = _window_inputs(1, 2 * CHUNK + 10, seed=4, paths=21)
    x0[3] = 1e220
    with np.errstate(over="ignore", invalid="ignore"):
        got = _raised(NonConvergenceError, lambda: pullback._drive(m, grid, "bem", x0, dw))
        want = _raised(NonConvergenceError, lambda: _reference_drive(m, grid, x0, dw))
    assert got == want
    t_bad = ((grid.start_index + 132) % grid.period_steps) * grid.h
    assert got.startswith(f"bisection exhausted 200 iterations at t={t_bad} ")


def _diverging_em_inputs(d, count):
    """Explicit-scheme inputs whose paths cross the divergence threshold at
    chosen nodes, and one path that diverged before the grid."""
    grid, x0, dw = _window_inputs(d, count, seed=7, paths=7)
    x0[0, 0] = np.nan
    dw[1, 0] = 1e15  # crosses at node 1
    dw[2, 7] = 1e15  # at node 8, the first step of the second chunk of 7
    dw[3, CHUNK] = 1e15  # at node CHUNK + 1, the first step of the second default chunk
    dw[4, count - 1, 0] = np.nan  # non-finite at the last node
    x0[5] = 8.0  # the cubic drift blows up by itself from here
    return grid, x0, dw


@pytest.mark.parametrize("model", ["cubic-d1", "cubic-d2", "builtin"])
def test_chunks_are_invisible_to_the_explicit_scheme(monkeypatch, model):
    m = builtin_benchmark() if model == "builtin" else _newton_cubic_model(int(model[-1]))
    count = 2 * CHUNK + 10
    grid, x0, dw = _diverging_em_inputs(m.dimension, count)
    want = _reference_drive_em(m, grid, x0, dw)
    # path 0 is NaN from its first node, as it diverged before the grid
    crossed = _crossings(want[0])
    assert crossed[:5].tolist() == [0, 1, 8, CHUNK + 1, count]
    assert (crossed[5] > 0) == model.startswith("cubic")
    # and one path alone, the one crossing at the first step of a chunk
    want_one = _reference_drive_em(m, grid, x0[3:4], dw[3:4])
    for chunk in (1, 7, CHUNK):
        monkeypatch.setattr(pullback, "_STEP_CHUNK", chunk)
        _check_same_run(pullback._drive(m, grid, "em", x0, dw), want)
        _check_same_run(pullback._drive(m, grid, "em", x0[3:4], dw[3:4]), want_one)



# -- the explicit window of affine drifts, against one step at a time ---------

class _ExplicitCalls:
    """Path-steps taken by ``_drive`` at the explicit window and at the
    per-step explicit kernel."""

    def __init__(self, monkeypatch):
        self.window = self.step = 0
        window, step = pullback._em_steps, pullback._em_step_batch

        def counted_window(model, h, t_prev, x, gdw, *rest):
            self.window += gdw.shape[0] * gdw.shape[1]
            return window(model, h, t_prev, x, gdw, *rest)

        def counted_step(model, t_prev, h, x_prev, *rest):
            self.step += x_prev.shape[0]
            return step(model, t_prev, h, x_prev, *rest)

        monkeypatch.setattr(pullback, "_em_steps", counted_window)
        monkeypatch.setattr(pullback, "_em_step_batch", counted_step)


def _explicit_window_inputs(d, count, paths):
    """Explicit-scheme inputs with paths that diverged before the grid and
    paths that cross the divergence threshold at chosen nodes."""
    grid, x0, dw = _window_inputs(d, count, seed=11, paths=paths)
    x0[0] = np.nan  # diverged before the grid
    x0[1, 0] = np.nan  # held as it is, a finite second coordinate included
    x0[2] = 1e14  # finite above the threshold: stepped once, NaN from node 1
    # crossings at the first and last node of chunks of 7 and of CHUNK steps,
    # and at the grid's last node
    for p, node in zip(range(3, 10), (1, 7, 8, CHUNK, CHUNK + 1, count, 20)):
        dw[p, node - 1, 0] = 1e15 if p < 9 else np.nan
    return grid, x0, dw


@pytest.mark.parametrize("paths", [10, 60])
@pytest.mark.parametrize("case", sorted(AFFINE_CASES))
def test_explicit_window_matches_step_by_step(monkeypatch, case, paths):
    eigenvalues, coeffs = AFFINE_CASES[case]
    m = replace(affine_model(eigenvalues, coeffs),
                diffusion=lambda t: 0.3 + 0.2 * math.cos(2.0 * math.pi * t))
    count = 2 * CHUNK + 10
    grid, x0, dw = _explicit_window_inputs(m.dimension, count, paths)
    # the other paths share the noise of the path crossing at node CHUNK
    shared = np.broadcast_to(dw[6:7], (paths - 2,) + dw.shape[1:])
    runs = ((x0, dw), (x0[2:], shared))
    wants = [_reference_drive_em(m, grid, x_start, incs) for x_start, incs in runs]
    assert _crossings(wants[0][0])[:10].tolist() == [0, 0, 1, 1, 7, 8, CHUNK, CHUNK + 1, count, 20]
    assert np.isfinite(wants[0][0][1, :, 1:]).all()
    calls = _ExplicitCalls(monkeypatch)
    for chunk in (1, 7, CHUNK):
        monkeypatch.setattr(pullback, "_STEP_CHUNK", chunk)
        for (x_start, incs), want in zip(runs, wants):
            _check_same_run(pullback._drive(m, grid, "em", x_start, incs), want)
    assert calls.step == 0 and calls.window == 3 * (2 * paths - 2) * count


@pytest.mark.parametrize("paths", [3, 60])
def test_explicit_window_raises_on_a_non_finite_drift(paths):
    # p1 = 1e308: the drift overflows at any state above 2 in size and is 0
    # at 0, where the paths stay until an increment moves them
    drift = PolyTrigDrift(poly_coeffs=(0.0, 1e308), trig_amp=0.0, trig_freq=1, period=1.0)
    m = ModelSpec(eigenvalues=np.array([3.0]), drift=drift, diffusion=ConstantDiffusion(0.5),
                  period=1.0)
    count = 2 * CHUNK + 10
    grid, _, _ = _window_inputs(1, count, seed=0)
    x0, dw = np.zeros((paths, 1)), np.zeros((paths, count, 1))
    dw[0, 3] = 1e14  # above the threshold at node 4: the drift there is not evaluated
    dw[1, CHUNK + 5] = 10.0  # 5 at node CHUNK + 6, a live state with an infinite drift
    dw[2, CHUNK + 40] = 10.0  # a later one in the same chunk
    with np.errstate(over="ignore"):
        got = _raised(NonFiniteEvaluationError, lambda: pullback._drive(m, grid, "em", x0, dw))
        want = _raised(NonFiniteEvaluationError, lambda: _reference_drive_em(m, grid, x0, dw))
    assert got == want
    t_bad = ((grid.start_index + CHUNK + 6) % grid.period_steps) * grid.h
    assert got == f"drift returned non-finite values at t={t_bad}"


# -- the explicit window of any drift, against one step at a time ------------

def _plain_drift(t, x):
    """A nonlinear drift that is a plain function, not a :class:`PolyTrigDrift`."""
    return np.sin(x) - 2.0 * x * x * x + 0.5 * math.cos(2.0 * math.pi * t)


def _any_drift_model(kind, d):
    """An explicit-scheme model whose drift is ``kind``, with a diffusion
    that varies in time."""
    if kind == "cubic":
        return _newton_cubic_model(d)
    if kind == "function":
        drift = _plain_drift
    else:
        drift = _SubDrift(poly_coeffs=(0.3, -0.5), trig_amp=0.7, trig_freq=1, period=1.0)
    return ModelSpec(eigenvalues=np.array([3.0, 7.5][:d]), drift=drift,
                     diffusion=lambda t: 0.3 + 0.2 * math.cos(2.0 * math.pi * t), period=1.0)


def _any_drift_em_inputs(d, count, paths):
    """Explicit-scheme inputs with rows of ``x0`` that are NaN, +inf and
    -inf, one finite above the threshold, one where a cubic blows up by
    itself, and crossings at chosen nodes."""
    grid, x0, dw = _window_inputs(d, count, seed=13, paths=paths)
    x0[0, 0] = np.nan
    x0[1] = np.inf
    x0[2, 0] = -np.inf  # held as it is, a finite second coordinate included
    x0[3] = 1e14
    x0[4] = 8.0
    for p, node in zip(range(5, 10), (1, 7, 8, CHUNK, count)):
        dw[p, node - 1, 0] = 1e15 if node < count else np.nan
    return grid, x0, dw


@pytest.mark.parametrize("paths", [10, 60])
@pytest.mark.parametrize("kind,d", [("function", 1), ("function", 2), ("subclass", 1),
                                    ("cubic", 1), ("cubic", 2)])
def test_explicit_window_takes_any_drift(monkeypatch, kind, d, paths):
    m = _any_drift_model(kind, d)
    count = 2 * CHUNK + 10
    grid, x0, dw = _any_drift_em_inputs(d, count, paths)
    want = _reference_drive_em(m, grid, x0, dw)
    crossed = _crossings(want[0])
    assert crossed[:4].tolist() == [0, 0, 0, 1]
    assert crossed[5:10].tolist() == [1, 7, 8, CHUNK, count]
    assert (crossed[4] > 0) == (kind != "subclass")
    assert np.isfinite(want[0][2, :, 1:]).all()
    assert (want[0][1] == np.inf).all()
    calls = _ExplicitCalls(monkeypatch)
    for chunk in (1, 7, CHUNK):
        monkeypatch.setattr(pullback, "_STEP_CHUNK", chunk)
        _check_same_run(pullback._drive(m, grid, "em", x0, dw), want)
    assert calls.step == 0 and calls.window == 3 * paths * count


@pytest.mark.parametrize("paths", [3, 60])
@pytest.mark.parametrize("kind", ["function", "subclass"])
def test_explicit_window_of_any_drift_raises_on_a_non_finite_drift(kind, paths):
    # the drift overflows at any state above 2 in size and is 0 at 0, where
    # the paths stay until an increment moves them
    drift = ((lambda t, x: 1e308 * x) if kind == "function" else
             _SubDrift(poly_coeffs=(0.0, 1e308), trig_amp=0.0, trig_freq=1, period=1.0))
    m = ModelSpec(eigenvalues=np.array([3.0]), drift=drift, diffusion=ConstantDiffusion(0.5),
                  period=1.0)
    count = 2 * CHUNK + 10
    grid, _, _ = _window_inputs(1, count, seed=0)
    x0, dw = np.zeros((paths, 1)), np.zeros((paths, count, 1))
    dw[0, 3] = 1e14  # above the threshold at node 4: the drift there is not evaluated
    dw[1, CHUNK + 40] = 10.0  # 5 at node CHUNK + 41, a live state with an infinite drift
    dw[2, CHUNK + 5] = 10.0  # an earlier one in the same chunk, on a later row
    with np.errstate(over="ignore"):
        got = _raised(NonFiniteEvaluationError, lambda: pullback._drive(m, grid, "em", x0, dw))
        want = _raised(NonFiniteEvaluationError, lambda: _reference_drive_em(m, grid, x0, dw))
    assert got == want
    t_bad = ((grid.start_index + CHUNK + 6) % grid.period_steps) * grid.h
    assert got == f"drift returned non-finite values at t={t_bad}"

    # with no live overflow, the row above the threshold does not raise
    dw[1:3] = 0.0
    with np.errstate(over="ignore"):
        states, _ = pullback._drive(m, grid, "em", x0, dw)
    assert _same_bits(states, _reference_drive_em(m, grid, x0, dw)[0])
    assert _crossings(states).tolist() == [4] + [-1] * (paths - 1)


# -- one path: the affine window's scalar loop, against the array loop -------

@pytest.mark.parametrize("chunk", [1, 7, CHUNK])
@pytest.mark.parametrize("branch", ["proven", "newton"])
def test_one_path_steps_as_row_0_of_a_batch(monkeypatch, branch, chunk):
    # one path of a scalar model steps as row 0 of 2 and of 21 paths: the
    # same bits, those of one step at a time, on Python floats where the
    # plan divides, and by Newton where a forcing of 1e5 leaves no bound
    monkeypatch.setattr(pullback, "_STEP_CHUNK", chunk)
    m = replace(affine_model([3.0], (-0.4, 1.2)),
                diffusion=lambda t: 0.3 + 0.2 * math.cos(2.0 * math.pi * t))
    if branch == "newton":
        m = replace(m, drift=replace(m.drift, trig_amp=1e5))
    grid, x0, dw = _window_inputs(1, 2 * CHUNK + 10, seed=chunk, paths=21)
    assert pullback._StepPlan(m, grid).affine == (branch == "proven")
    one = pullback._drive(m, grid, "bem", x0[:1], dw[:1])
    _check_same_run(one, _reference_drive(m, grid, x0[:1], dw[:1]))
    if branch == "proven":
        assert (one[1].max_newton_iters, one[1].any_fallback) == (1, False)
    for rows in (2, 21):
        states, _ = pullback._drive(m, grid, "bem", x0[:rows], dw[:rows])
        assert _same_bits(states[:1], one[0])


# -- the damped Newton loop, pinned bit for bit -------------------------------

# perfbench/child.CUBIC_MODEL; the d=2 cases put the same drift on A = diag(2, 6.5)
NEWTON_CUBIC = {
    "lambda": [10.0],
    "drift": {"poly_coeffs": [0, -1, 0, -2], "trig_amp": 1.5, "trig_freq": 1},
    "g": {"amp": 0.5},
    "tau": 1.0,
    "constants": {"C_f": 0.5, "sigma": 0.5},
}
# repr of each solve's (z, newton_iters, final_residual, fallback_used), as
# lists of Python floats, ints and bools, recorded before the loop was tuned.
# The recorded bits belong to the numpy, LAPACK (the d=2 solves) and libm
# (``sin`` in the forcing) builds they were recorded with, so another build
# may differ in the last bit; ``test_newton_matches_reference_loop`` makes
# the same comparison against a loop run in the same process.
NEWTON_SNAPSHOT = Path(__file__).with_name("newton_snapshot.json")


def _newton_cases():
    """Name -> ``(model, t, h, rhs, x0)`` of the pinned solves: analytic and
    finite-difference Jacobians at d = 1 and 2, from the default guess, from
    a nearby guess, and from a far guess on the wrong side that damps."""
    rng = np.random.default_rng(20261018)
    cases = {}
    for d, lam in ((1, [10.0]), (2, [2.0, 6.5])):
        analytic = model_from_config(dict(NEWTON_CUBIC, **{"lambda": lam}))
        for jac, m in (("analytic", analytic), ("fd", replace(analytic, drift_jacobian=None))):
            name = f"d{d}-{jac}"
            rhs = rng.normal(scale=0.8, size=(9, d))
            cases[name] = (m, 0.3125, 1 / 64, rhs, None)
            guess = rhs + rng.normal(scale=0.1, size=rhs.shape)
            cases[name + "-guess"] = (m, 0.7, 1 / 16, rhs, guess)
            big = rng.normal(scale=40.0, size=(7, d))
            cases[name + "-damped"] = (m, 0.55, 0.25, big, -0.3 * big)
    return cases


def _solve_repr(model, t, h, rhs, x0):
    z, iters, res, fallback = _implicit_solve_batch(model, t, h, rhs, x0)
    return repr((z.tolist(), iters.tolist(), res.tolist(), fallback.tolist()))


def _snapshot(name):
    return json.loads(NEWTON_SNAPSHOT.read_text(encoding="utf-8"))[name]


@pytest.mark.parametrize("name", sorted(_newton_cases()))
def test_newton_matches_snapshot(name):
    assert _solve_repr(*_newton_cases()[name]) == _snapshot(name)


class _DriftCalls:
    """Records the states passed to every ``PolyTrigDrift`` call."""

    def __init__(self, monkeypatch):
        self.states = []
        call = PolyTrigDrift.__call__

        def recorded(drift, t, x):
            self.states.append((np.shape(x), np.asarray(x).tobytes()))
            return call(drift, t, x)

        monkeypatch.setattr(PolyTrigDrift, "__call__", recorded)

    def take(self):
        states, self.states = self.states, []
        return states


def _halvings(model, rhs, iters, drift_calls):
    """Damping halvings of one solve: its drift calls less the initial
    residual, one residual per iteration and, for a finite-difference
    Jacobian, one call per column per iteration."""
    per_iter = 1 + (rhs.shape[1] if model.drift_jacobian is None else 0)
    return drift_calls - 1 - per_iter * int(iters.max())


def test_damped_cases_halve_the_step(monkeypatch):
    # the drift sees the same states, call by call, as in the reference loop,
    # so a traced run's drift rows are those of that loop
    drift = _DriftCalls(monkeypatch)
    for name, (m, t, h, rhs, x0) in _newton_cases().items():
        _, iters, _, _ = _implicit_solve_batch(m, t, h, rhs, x0)
        got = drift.take()
        _reference_repr(m, t, h, rhs, x0)
        assert got == drift.take(), name
        assert (_halvings(m, rhs, iters, len(got)) > 0) == name.endswith("-damped"), name


@pytest.mark.parametrize("jac", ["analytic", "fd"])
def test_newton_fallback_matches_snapshot(jac, monkeypatch):
    # scalar solves from hopeless guesses, the last row starting at its root
    m = model_from_config(NEWTON_CUBIC)
    rhs = np.array([[2.0], [0.01], [-3.0], [0.5]])
    x0 = np.array([[100.0], [0.01], [-50.0], [0.0]])
    x0[3] = _implicit_solve_batch(m, 0.25, 0.5, rhs)[0][3]
    if jac == "fd":
        m = replace(m, drift_jacobian=None)
    monkeypatch.setattr(stepper, "_MAX_NEWTON_ITERS", 1)
    _, iters, _, fallback = _implicit_solve_batch(m, 0.25, 0.5, rhs, x0)
    assert fallback.tolist() == [True, True, True, False]
    assert iters.tolist() == [1, 1, 1, 0]
    assert _solve_repr(m, 0.25, 0.5, rhs, x0) == _snapshot(f"fallback-{jac}")
    assert _solve_repr(m, 0.25, 0.5, rhs, x0) == _reference_repr(m, 0.25, 0.5, rhs, x0)


def _residual(model, t, denom, h, rhs, z):
    """The residual ``G(z) - rhs`` and ``f(t, z)`` as the loop was first
    written to take them, through the checked drift helper."""
    fz = stepper._drift(model, t, z)
    return z * denom - h * fz - rhs, fz


def _reference_repr(model, t, h, rhs, x0):
    """``_solve_repr`` of the Newton loop as first written: it gathers and
    scatters the active rows on every iteration, takes every residual norm
    with ``np.linalg.norm`` and the Jacobian's derivative from ``polyder``
    on each call.  It shares only the drift and bisection helpers with the
    solver."""
    P = np.polynomial.polynomial
    d = rhs.shape[1]
    idx = np.arange(d)
    tol = RESIDUAL_TOL * (1.0 + np.linalg.norm(rhs, axis=1))
    denom = 1.0 + h * model.eigenvalues
    x = np.array(x0, dtype=np.float64) if x0 is not None else rhs / denom
    r, fx = _residual(model, t, denom, h, rhs, x)
    rn = np.linalg.norm(r, axis=1)
    iters = np.zeros(rhs.shape[0], dtype=np.int64)
    fallback = np.zeros(rhs.shape[0], dtype=bool)

    def jacobian(xa):
        jf = np.zeros(xa.shape + (d,))
        jf[..., idx, idx] = P.polyval(xa, P.polyder(model.drift.poly_coeffs))
        return jf

    for _ in range(stepper._MAX_NEWTON_ITERS):
        active = rn > tol
        if not active.any():
            break
        xa, ra, rna = x[active], r[active], rn[active]
        if d == 1:
            if model.drift_jacobian is not None:
                jf = jacobian(xa)[:, 0, 0]
            else:
                eps = stepper._FD_EPSILON * (1.0 + np.abs(xa[:, 0]))
                jf = (stepper._drift(model, t, xa + eps[:, None]) - fx[active])[:, 0] / eps
            delta = (-ra[:, 0] / (denom[0] - h * jf))[:, None]
        else:
            if model.drift_jacobian is not None:
                jf = jacobian(xa)
            else:
                jf = np.empty((xa.shape[0], d, d))
                for c in range(d):
                    eps = stepper._FD_EPSILON * (1.0 + np.abs(xa[:, c]))
                    xp = xa.copy()
                    xp[:, c] += eps
                    jf[:, :, c] = (stepper._drift(model, t, xp) - fx[active]) / eps[:, None]
            jac = -h * jf
            jac[:, idx, idx] += denom
            delta = np.linalg.solve(jac, -ra[..., None])[..., 0]
        prop = xa + delta
        alpha = np.ones(xa.shape[0])
        halvings = 0
        while True:
            rp, fp = _residual(model, t, denom, h, rhs[active], prop)
            rpn = np.linalg.norm(rp, axis=1)
            rpn = np.where(np.isfinite(rpn), rpn, np.inf)
            worse = rpn >= rna
            if not worse.any() or halvings == stepper._MAX_DAMPING_HALVINGS:
                break
            alpha[worse] *= 0.5
            prop[worse] = xa[worse] + alpha[worse, None] * delta[worse]
            halvings += 1
        x[active], r[active], fx[active], rn[active] = prop, rp, fp, rpn
        iters[active] += 1

    for i in np.nonzero(rn > tol)[0]:
        x[i, 0], rn[i] = _bisect_scalar(
            model, t, h, float(denom[0]), float(rhs[i, 0]), float(x[i, 0]), float(tol[i]),
            stepper._MAX_BISECTION_ITERS,
        )
        fallback[i] = True
    return repr((x.tolist(), iters.tolist(), rn.tolist(), fallback.tolist()))


@pytest.mark.parametrize("name", sorted(_newton_cases()))
def test_newton_matches_reference_loop(name):
    # the snapshot's comparison without its build dependence: both loops run
    # here, on this numpy, LAPACK and libm
    case = _newton_cases()[name]
    assert _solve_repr(*case) == _reference_repr(*case)


def _wide_case(d, jac, m_paths):
    """``(model, t, h, rhs, x0)`` of a batch of ``m_paths`` rows whose guesses
    are, in shuffled order, the root, the root moved by 1e-9, 1e-5, 3e-3 and
    0.3 (none to about three iterations), or, with a right-hand side 50
    times larger, far on the wrong side (damps)."""
    lam = [10.0] if d == 1 else [2.0, 6.5]
    m = model_from_config(dict(NEWTON_CUBIC, **{"lambda": lam}))
    if jac == "fd":
        m = replace(m, drift_jacobian=None)
    rng = np.random.default_rng(20261019 + d)
    kind = rng.permutation(np.arange(m_paths) % 6)
    far = kind == 5
    rhs = rng.normal(scale=0.8, size=(m_paths, d))
    rhs[far] *= 50.0
    x0 = _implicit_solve_batch(m, 0.55, 0.25, rhs)[0]
    x0 += rng.normal(size=x0.shape) * np.array([0.0, 1e-9, 1e-5, 3e-3, 0.3, 0.0])[kind, None]
    x0[far] = -0.3 * rhs[far]
    return m, 0.55, 0.25, rhs, x0


@pytest.mark.parametrize("m_paths", [1, 256, 1280])
@pytest.mark.parametrize("jac", ["analytic", "fd"])
@pytest.mark.parametrize("d", [1, 2])
def test_newton_matches_reference_loop_at_width(d, jac, m_paths, monkeypatch):
    # rows converge, damp and (d = 1, capped at three iterations) fall back
    # to bisection side by side, so the working set shrinks mid-solve
    if d == 1:
        monkeypatch.setattr(stepper, "_MAX_NEWTON_ITERS", 3)
    m, _, _, rhs, _ = case = _wide_case(d, jac, m_paths)
    drift = _DriftCalls(monkeypatch)
    newton_calls = []  # the solver's drift calls before its first bisection
    bisect = stepper._bisect_scalar

    def first_bisection(*args):
        newton_calls.append(len(drift.states))
        return bisect(*args)

    monkeypatch.setattr(stepper, "_bisect_scalar", first_bisection)
    z, iters, res, fallback = _implicit_solve_batch(*case)
    states = drift.take()
    got = repr((z.tolist(), iters.tolist(), res.tolist(), fallback.tolist()))
    assert got == _reference_repr(*case)
    assert states == drift.take()
    if m_paths > 1:
        assert {0, 1, 2, 3} <= set(iters.tolist())
        assert fallback.any() == (d == 1)
        newton_calls.append(len(states))
        assert _halvings(m, rhs, iters, newton_calls[0]) > 0
