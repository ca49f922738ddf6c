"""Tests for the implicit solver and the two time-stepping kernels."""

import math

import numpy as np
import pytest

from randperiodic import stepper
from randperiodic.model import (
    ConstantDiffusion,
    ModelSpec,
    PolyTrigDrift,
    builtin_benchmark,
)
from randperiodic.stepper import (
    DEFAULT_CONFIG,
    NonConvergenceError,
    NonFiniteEvaluationError,
    SolverConfig,
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
        assert stats.final_residual <= DEFAULT_CONFIG.residual_tol * (1.0 + 3.0)
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
            tol = DEFAULT_CONFIG.residual_tol * (1.0 + abs(float(rhs[0])))
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
        z_batch, _, _, _ = _implicit_solve_batch(m, 0.0, 0.25, rhs, DEFAULT_CONFIG)
        for i in range(17):
            z_one, _ = implicit_solve(m, 0.0, 0.25, rhs[i])
            assert np.array_equal(z_batch[i], z_one)

    def test_bisection_fallback_recovers_root(self):
        # One Newton iteration from a hopeless guess cannot converge; the
        # scalar bisection fallback must still deliver the root.
        cfg = SolverConfig(max_newton_iters=1)
        z, stats = implicit_solve(cubic_model(1.0), 0.0, 0.5, np.array([2.0]),
                                  config=cfg, x0=np.array([100.0]))
        assert z[0] == pytest.approx(1.0, abs=1e-9)
        assert stats.fallback_used

    def test_fallback_residual_above_tolerance_raises(self, monkeypatch):
        # A fallback that returns without reaching the tolerance must raise,
        # also under ``python -O``.
        monkeypatch.setattr(stepper, "_bisect_scalar", lambda *args: (1.0, 1e-3))
        cfg = SolverConfig(max_newton_iters=1)
        with pytest.raises(NonConvergenceError, match=r"t=0\.25 .*worst residual 1\.000e-03"):
            implicit_solve(cubic_model(1.0), 0.25, 0.5, np.array([2.0]),
                           config=cfg, x0=np.array([100.0]))

    def test_nonconvergence_raises_for_vector_models(self):
        drift = PolyTrigDrift(poly_coeffs=(0.0, 0.0, 0.0, -1.0), trig_amp=0.0,
                              trig_freq=1, period=1.0)
        m2 = ModelSpec(
            eigenvalues=np.array([1.0, 1.0]), drift=drift,
            diffusion=ConstantDiffusion(0.1), period=1.0,
            drift_jacobian=drift.jacobian,
        )
        cfg = SolverConfig(max_newton_iters=1)
        with pytest.raises(NonConvergenceError):
            implicit_solve(m2, 0.0, 0.5, np.array([2.0, 2.0]), config=cfg,
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

    def test_step_size_bounds(self):
        m = linear_model()
        for h in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                implicit_solve(m, 0.0, h, np.array([1.0]))


class TestBisectScalar:
    def test_finds_root_of_monotone_function(self):
        # G(z) = 1.5 z + 0.5 z^3 = 2 has the exact root z = 1
        m = cubic_model(1.0)
        tol = DEFAULT_CONFIG.residual_tol * (1.0 + 2.0)
        root, resid = _bisect_scalar(m, 0.0, 0.5, 1.5, 2.0, 0.0, tol, 200)
        assert root == pytest.approx(1.0, abs=1e-9)
        assert resid <= tol


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(residual_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_newton_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(jacobian_mode="magic")


class TestBemStep:
    def test_linear_with_noise(self):
        # x1 = (x0 + g*dW) / (1 + h*lam), diffusion read at t_next - h
        m = linear_model(2.0)
        x1, stats = bem_step(m, t_next=0.5, h=0.5, x_prev=np.array([1.0]),
                             dW=np.array([0.3]))
        expect = (1.0 + 0.1 * 0.3) / (1.0 + 0.5 * 2.0)
        assert x1[0] == pytest.approx(expect, rel=1e-12)
        assert stats.final_residual <= DEFAULT_CONFIG.residual_tol * 2.1

    def test_time_reduction_is_exact(self):
        m = builtin_benchmark()
        x = np.array([0.4])
        dw = np.array([-0.02])
        a = bem_step(m, t_next=0.25, h=0.125, x_prev=x, dW=dw)[0]
        b = bem_step(m, t_next=7.25, h=0.125, x_prev=x, dW=dw)[0]
        assert np.array_equal(a, b)

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
