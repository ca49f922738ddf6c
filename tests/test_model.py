"""Tests for model containers, configuration parsing, and assumption checks."""

import dataclasses
import json
import math
import pickle

import numpy as np
import numpy.polynomial.polynomial as P
import pytest

from randperiodic.model import (
    BUILTIN_MODELS,
    ConstantDiffusion,
    InitialCondition,
    ModelSpec,
    PolyTrigDrift,
    builtin_benchmark,
    check_assumptions,
    load_model,
    model_from_config,
    with_diffusion_amplitude,
)


class TestPolyTrigDrift:
    def test_polynomial_part(self):
        drift = PolyTrigDrift(poly_coeffs=(0.0, -1.0, 0.0, -0.5), trig_amp=0.0,
                              trig_freq=1, period=1.0)
        x = np.array([2.0])
        assert drift(0.3, x) == pytest.approx([-2.0 - 0.5 * 8.0])
        batch = np.array([[1.0], [-1.0], [0.0]])
        expect = -batch - 0.5 * batch**3
        assert np.allclose(drift(0.0, batch), expect)

    def test_forcing_part(self):
        drift = PolyTrigDrift(poly_coeffs=(), trig_amp=2.0, trig_freq=3, period=0.5)
        x = np.zeros(1)
        t = 0.1
        expect = 2.0 * math.sin(2.0 * math.pi * 3 * (t / 0.5))
        assert drift(t, x) == pytest.approx([expect])

    def test_periodicity_is_exact_at_representable_phases(self):
        drift = PolyTrigDrift(poly_coeffs=(0.0, -0.25), trig_amp=1.0, trig_freq=1,
                              period=1.0)
        x = np.array([0.7])
        # dyadic phases survive the mod-period reduction bit for bit
        for t in (0.25, 0.375, 0.5, 0.8125):
            assert np.array_equal(drift(t, x), drift(t + 1.0, x))
            assert np.array_equal(drift(t, x), drift(t + 7.0, x))

    def test_jacobian_matches_polynomial_derivative(self):
        drift = PolyTrigDrift(poly_coeffs=(0.0, -1.0, 0.0, -0.5), trig_amp=1.0,
                              trig_freq=1, period=1.0)
        x = np.array([[0.5, -2.0], [1.0, 0.0]])
        jac = drift.jacobian(0.2, x)
        assert jac.shape == (2, 2, 2)
        deriv = -1.0 - 1.5 * x**2
        for i in range(2):
            assert np.allclose(np.diag(jac[i]), deriv[i])
            assert jac[i][0, 1] == 0.0 and jac[i][1, 0] == 0.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("coeffs", [(), (0.4,), (0.3, -1.25), (0.0, -1.0, 0.7),
                                        (0.1, -0.3, 0.0, -2.0)])
    def test_jacobian_is_polyder_bit_for_bit(self, coeffs, d):
        drift = PolyTrigDrift(poly_coeffs=coeffs, trig_amp=0.5, trig_freq=2, period=1.0)
        x = np.random.default_rng(d).normal(scale=2.0, size=(5, d))
        expect = np.zeros((5, d, d))
        if coeffs:
            diag = np.arange(d)
            expect[:, diag, diag] = P.polyval(x, P.polyder(coeffs))
        for _ in range(2):  # the first call fills the derivative cache, the second reads it
            jac = drift.jacobian(0.3, x)
            assert jac.shape == expect.shape and jac.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("coeffs", [(0.4,), (0.3, -1.25), (-0.0, -1.0, 0.7),
                                        (0.1, -0.3, 0.0, -2.0), (0, -1, 0, -2), (1, 2, -0.0)])
    @pytest.mark.parametrize("shape", [(), (7,), (7, 1), (3, 5, 2)])
    def test_drift_is_polyval_bit_for_bit(self, coeffs, shape):
        # Horner's rule in polyval's order, also at signed zeros, huge and
        # non-finite states, with int coefficients read as floats
        specials = [0.0, -0.0, 1e200, -1e200, math.inf, -math.inf, math.nan, 3.5]
        x = np.random.default_rng(len(shape)).normal(scale=2.0, size=shape)
        x.flat[: len(specials)] = specials[: x.size]
        drift = PolyTrigDrift(poly_coeffs=coeffs, trig_amp=0.5, trig_freq=2, period=1.0)
        with np.errstate(invalid="ignore", over="ignore"):
            expect = P.polyval(x, coeffs) + drift._forcing(0.3)
            got = drift(0.3, x)
            if shape and len(coeffs) > 1:
                d = shape[-1]
                deriv = P.polyval(x, P.polyder(coeffs))
                diag = drift.jacobian(0.3, x)[..., range(d), range(d)]
                assert diag.tobytes() == deriv.tobytes()
        assert np.shape(got) == np.shape(expect) and got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("coeffs", [(0.3, -1.25), (0.0, -1.0, 0.7), (0.1, -0.3, 0.0, -2.0),
                                        (0, -1, 0, -2), (1.1, 1e300, -3e307, 2.5e-310)])
    def test_derivative_coefficients_are_polyder_bit_for_bit(self, coeffs):
        drift = PolyTrigDrift(poly_coeffs=coeffs, trig_amp=0.0, trig_freq=1, period=1.0)
        with np.errstate(over="ignore"):
            expect = P.polyder(coeffs)
        # stored highest power first, behind a 0.0
        assert drift._deriv_coeffs[0] == 0.0
        assert np.array(drift._deriv_coeffs[:0:-1]).tobytes() == expect.tobytes()

    def test_derivative_cache_is_not_state(self):
        def make():
            return PolyTrigDrift(poly_coeffs=(0.1, -0.3, 0.0, -2.0), trig_amp=0.5,
                                 trig_freq=2, period=1.0)

        fresh, used = make(), make()
        x = np.array([[0.8], [-1.5]])
        jac = used.jacobian(0.3, x)
        assert [f.name for f in dataclasses.fields(used)] == [
            "poly_coeffs", "trig_amp", "trig_freq", "period"]
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
        for drift in (fresh, used):
            back = pickle.loads(pickle.dumps(drift))
            assert back == fresh and hash(back) == hash(fresh)
            assert back.jacobian(0.3, x).tobytes() == jac.tobytes()

    def test_finite_difference_agreement(self):
        drift = PolyTrigDrift(poly_coeffs=(0.1, -0.3, 0.0, -2.0), trig_amp=0.5,
                              trig_freq=2, period=1.0)
        x = np.array([0.8])
        eps = 1e-6
        fd = (drift(0.3, x + eps) - drift(0.3, x - eps)) / (2 * eps)
        assert drift.jacobian(0.3, x)[0, 0] == pytest.approx(fd[0], rel=1e-8)


class TestModelSpec:
    def test_builtin_benchmark_values(self):
        m = builtin_benchmark()
        assert m.dimension == 1
        assert m.lambda_min == pytest.approx(10.0 * math.pi)
        assert m.period == 1.0
        assert m.diffusion(0.37) == 0.05
        assert m.drift(0.25, np.zeros(1)) == pytest.approx([1.0])  # sin(pi/2)
        assert m.constants["C_f"] == 0.5
        assert m.constants["sigma"] == 0.05
        assert "builtin" in BUILTIN_MODELS

    def test_validation(self):
        drift = PolyTrigDrift(poly_coeffs=(), trig_amp=1.0, trig_freq=1, period=1.0)
        good = dict(drift=drift, diffusion=ConstantDiffusion(0.1), period=1.0)
        with pytest.raises(ValueError):
            ModelSpec(eigenvalues=np.array([-1.0]), **good)
        with pytest.raises(ValueError):
            ModelSpec(eigenvalues=np.array([3.0, 1.0]), **good)
        with pytest.raises(ValueError):
            ModelSpec(eigenvalues=np.array([]), **good)
        with pytest.raises(ValueError):
            ModelSpec(eigenvalues=np.array([2.0]), constants={"C_f": 2.0}, **good)
        with pytest.raises(ValueError):
            ModelSpec(eigenvalues=np.array([2.0]), period=0.0, drift=drift,
                      diffusion=ConstantDiffusion(0.1))

    @pytest.mark.parametrize("eigenvalues, period, match", [
        ([math.inf], 1.0, "eigenvalues must be positive and finite"),
        ([1.0, math.inf], 1.0, "eigenvalues must be positive and finite"),
        ([1.0], math.inf, "period must be positive and finite"),
    ])
    def test_non_finite_constants_raise(self, eigenvalues, period, match):
        drift = PolyTrigDrift(poly_coeffs=(), trig_amp=1.0, trig_freq=1, period=1.0)
        with pytest.raises(ValueError, match=match):
            ModelSpec(eigenvalues=np.array(eigenvalues), drift=drift,
                      diffusion=ConstantDiffusion(0.1), period=period)

    def test_eigenvalues_accept_scalar(self):
        m = ModelSpec(
            eigenvalues=np.array(4.0),
            drift=PolyTrigDrift(poly_coeffs=(), trig_amp=0.0, trig_freq=1, period=1.0),
            diffusion=ConstantDiffusion(0.0),
            period=1.0,
        )
        assert m.dimension == 1
        assert m.lambda_min == 4.0

    def test_with_diffusion_amplitude(self):
        m = builtin_benchmark()
        quiet = with_diffusion_amplitude(m, 0.0)
        assert quiet.diffusion(0.3) == 0.0
        assert quiet.constants["sigma"] == 0.0
        assert m.diffusion(0.3) == 0.05  # original untouched
        assert quiet.constants["C_f"] == m.constants["C_f"]


class TestInitialCondition:
    def test_value_form(self):
        init = InitialCondition(value=[0.5, -1.0])
        assert np.array_equal(init.resolve(0, 2), [0.5, -1.0])
        with pytest.raises(ValueError):
            init.resolve(0, 3)  # wrong dimension

    def test_sampler_form(self):
        def sampler(seed):
            return np.random.default_rng(seed).normal(size=2)

        init = InitialCondition(sampler=sampler)
        a = init.resolve(11, 2)
        assert np.array_equal(a, init.resolve(11, 2))
        assert not np.array_equal(a, init.resolve(12, 2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_state_raises(self, bad):
        with pytest.raises(ValueError, match="finite"):
            InitialCondition(value=[0.0, bad]).resolve(0, 2)
        with pytest.raises(ValueError, match="finite"):
            InitialCondition(sampler=lambda seed: np.array([bad, 1.0])).resolve(3, 2)

    def test_exactly_one_source(self):
        with pytest.raises(ValueError):
            InitialCondition()
        with pytest.raises(ValueError):
            InitialCondition(value=[1.0], sampler=lambda s: np.ones(1))


class TestModelFromConfig:
    CONFIG = {
        "name": "custom",
        "lambda": [2.0, 5.0],
        "drift": {"poly_coeffs": [0.0, -1.0, 0.0, -0.5], "trig_amp": 1.5, "trig_freq": 2},
        "g": {"amp": 0.2},
        "tau": 0.5,
        "constants": {"C_f": 0.0},
    }

    def test_round_trip(self):
        m = model_from_config(self.CONFIG)
        assert m.name == "custom"
        assert m.dimension == 2
        assert m.period == 0.5
        assert m.lambda_min == 2.0
        assert m.diffusion(0.1) == 0.2
        assert m.constants["C_f"] == 0.0
        assert m.constants["sigma"] == 0.2  # defaulted from |amp|
        x = np.array([1.0, -1.0])
        t = 0.125
        expect = -x - 0.5 * x**3 + 1.5 * math.sin(2 * math.pi * 2 * (t / 0.5))
        assert np.allclose(m.drift(t, x), expect)

    def test_unknown_keys_rejected(self):
        bad = dict(self.CONFIG, extra=1)
        with pytest.raises(ValueError, match="unknown model config keys"):
            model_from_config(bad)
        bad = dict(self.CONFIG, drift={"poly_coeffs": [], "steepness": 2})
        with pytest.raises(ValueError, match="unknown drift config keys"):
            model_from_config(bad)

    def test_missing_keys_rejected(self):
        for key in ("lambda", "drift", "g", "tau"):
            bad = {k: v for k, v in self.CONFIG.items() if k != key}
            with pytest.raises(ValueError, match="missing required key"):
                model_from_config(bad)

    @pytest.mark.parametrize("tau", [0.0, -0.5])
    def test_non_positive_period_raises(self, tau):
        with pytest.raises(ValueError, match=f"^tau must be positive, got {tau}$"):
            model_from_config(dict(self.CONFIG, tau=tau))

    def test_fractional_trig_freq_raises_when_forced(self):
        bad = dict(self.CONFIG, drift={"trig_amp": 1.0, "trig_freq": 1.5})
        with pytest.raises(ValueError, match=r"^trig_freq must be a whole number, got 1\.5$"):
            model_from_config(bad)
        # with no forcing the frequency is never used
        model_from_config(dict(self.CONFIG, drift={"trig_amp": 0.0, "trig_freq": 1.5}))

    def test_diffusion_keys_checked(self):
        with pytest.raises(ValueError, match=r"^unknown diffusion config keys: \['sigma'\]$"):
            model_from_config(dict(self.CONFIG, g={"amp": 0.2, "sigma": 0.1}))
        with pytest.raises(ValueError, match="^diffusion config requires key 'amp'$"):
            model_from_config(dict(self.CONFIG, g={}))

    def test_declared_sigma_kept(self):
        cfg = dict(self.CONFIG, constants={"C_f": 0.0, "sigma": 0.7})
        assert model_from_config(cfg).constants["sigma"] == 0.7

    @pytest.mark.parametrize("freq, expect", [(-1, -1.0), (0, 0.0), (1, 1.0), (3, -1.0)])
    def test_trig_freq_passes_through(self, freq, expect):
        # sin(2*pi*freq/4) a quarter period in: a zero or negative frequency
        # is kept, not rewritten to 1
        m = model_from_config(dict(self.CONFIG, drift={"trig_amp": 1.0, "trig_freq": freq}))
        assert m.drift.trig_freq == freq
        assert m.drift(0.125, np.zeros(2)) == pytest.approx([expect, expect], abs=1e-15)

    def test_trig_freq_defaults_to_one(self):
        m = model_from_config(dict(self.CONFIG, drift={"trig_amp": 1.0}))
        assert m.drift.trig_freq == 1

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("where", ["poly_coeffs", "trig_amp", "trig_freq", "g.amp",
                                       "sigma", "C_f"])
    def test_non_finite_numbers_raise(self, where, value):
        cfg = json.loads(json.dumps(self.CONFIG))
        if where == "poly_coeffs":
            cfg["drift"]["poly_coeffs"][1] = value
        elif where.startswith("trig"):
            cfg["drift"][where] = value
        elif where == "g.amp":
            cfg["g"]["amp"] = value
        else:
            cfg["constants"][where] = value
        with pytest.raises(ValueError, match="finite"):
            model_from_config(cfg)


class TestLoadModel:
    def test_sources(self, tmp_path):
        m = builtin_benchmark()
        assert load_model(m) is m
        assert load_model("builtin").name == "builtin"
        assert load_model(TestModelFromConfig.CONFIG).name == "custom"
        path = tmp_path / "model.json"
        path.write_text(json.dumps(TestModelFromConfig.CONFIG))
        assert load_model(str(path)).name == "custom"
        with pytest.raises(ValueError, match="not a builtin name or existing file"):
            load_model("no-such-model")
        with pytest.raises(ValueError):
            load_model(3.14)


class TestCheckAssumptions:
    def test_builtin_passes(self):
        report = check_assumptions(builtin_benchmark(), sample_count=400, radius=5.0, seed=0)
        assert report.passed
        assert not report.violations
        names = [c.name for c in report.checks]
        assert "one_sided_lipschitz" in names
        assert "drift_growth" in names
        assert "moment_margin" in names
        assert all(c.status == "passed" for c in report.checks)

    @pytest.mark.parametrize("radius", [math.inf, math.nan, 0.0, -1.0])
    def test_radius_must_be_positive_and_finite(self, radius):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            check_assumptions(builtin_benchmark(), sample_count=50, radius=radius)

    @pytest.mark.parametrize("count", [1, 0])
    def test_sample_count_below_two_raises(self, count):
        with pytest.raises(ValueError, match=f"^sample_count must be >= 2, got {count}$"):
            check_assumptions(builtin_benchmark(), sample_count=count)

    @pytest.mark.parametrize("count", [2.5, True, np.True_, float("inf"), "50"])
    def test_sample_count_must_be_whole(self, count):
        with pytest.raises(ValueError, match=f"sample_count must be a whole number, got "
                                             f"{count!r}"):
            check_assumptions(builtin_benchmark(), sample_count=count)

    def test_whole_float_sample_count_runs_as_int(self):
        want = check_assumptions(builtin_benchmark(), sample_count=50, seed=2)
        for count in (50.0, np.float64(50.0), np.int64(50)):
            got = check_assumptions(builtin_benchmark(), sample_count=count, seed=2)
            assert got == want and type(got.sample_count) is int

    def test_two_drift_calls_per_sample(self):
        # a d = 2 cubic that declares every constant, so every drift check
        # runs; the worst values are those of one drift call per state
        calls = []
        m = model_from_config({
            "lambda": [2.0, 6.5],
            "drift": {"poly_coeffs": [0.3, -1, 0.2, -2], "trig_amp": 1.5, "trig_freq": 1},
            "g": {"amp": 0.5},
            "tau": 1.0,
            "constants": {"C_f": 0.5, "sigma": 0.5, "C_f_hat": 10.0, "L": 10.0, "q": 2.0},
        })
        drift = m.drift

        def counted(t, x):
            calls.append(np.shape(x))
            return drift(t, x)

        report = check_assumptions(dataclasses.replace(m, drift=counted), sample_count=40, seed=7)
        assert len(calls) == 2 * 40
        assert {c.name: c.worst for c in report.checks} == {
            "eigenvalues_positive": -2.0,
            "drift_periodicity": 3.552713678800501e-15,
            "diffusion_periodicity": 0.0,
            "spectral_gap": 0.5,
            "one_sided_lipschitz": -3.7036686959676097,
            "drift_growth": -0.3545219059315116,
            "diffusion_bound": 0.5,
            "tangent_condition": 9.687975677440548,
            "polynomial_lipschitz": 8.334316977053463,
            "moment_margin": 153.0,
        }
        assert report == check_assumptions(m, sample_count=40, seed=7)

    def test_moment_margin_value(self):
        # gamma_p = (C_f + (p-1) sigma^2 / 2) * (2 + p + 2^(p+1)) with p = 4q - 2
        report = check_assumptions(builtin_benchmark(), sample_count=50, seed=0)
        margin = next(c for c in report.checks if c.name == "moment_margin")
        expect = (0.5 + 5.0 * 0.05**2 / 2.0) * (2.0 + 6.0 + 2.0**7)
        assert margin.worst == pytest.approx(expect)  # 68.85
        assert margin.bound == pytest.approx(6.0 * 10.0 * math.pi)

    def test_catches_one_sided_lipschitz_violation(self):
        # drift x -> +x has one-sided constant 1, declared bound is 0.25
        drift = PolyTrigDrift(poly_coeffs=(0.0, 1.0), trig_amp=0.0, trig_freq=1, period=1.0)
        m = ModelSpec(
            eigenvalues=np.array([2.0]), drift=drift, diffusion=ConstantDiffusion(0.1),
            period=1.0, constants={"C_f": 0.25, "sigma": 0.1},
        )
        report = check_assumptions(m, sample_count=300, seed=3)
        failed = {c.name for c in report.violations}
        assert "one_sided_lipschitz" in failed
        assert not report.passed

    def test_catches_diffusion_bound_violation(self):
        m = ModelSpec(
            eigenvalues=np.array([2.0]),
            drift=PolyTrigDrift(poly_coeffs=(), trig_amp=0.0, trig_freq=1, period=1.0),
            diffusion=ConstantDiffusion(0.5),
            period=1.0,
            constants={"C_f": 0.0, "sigma": 0.1},
        )
        report = check_assumptions(m, sample_count=50, seed=0)
        failed = {c.name for c in report.violations}
        assert "diffusion_bound" in failed

    def test_undeclared_constants_are_skipped(self):
        m = ModelSpec(
            eigenvalues=np.array([2.0]),
            drift=PolyTrigDrift(poly_coeffs=(), trig_amp=1.0, trig_freq=1, period=1.0),
            diffusion=ConstantDiffusion(0.1),
            period=1.0,
        )
        report = check_assumptions(m, sample_count=50, seed=0)
        skipped = {c.name for c in report.checks if c.status == "skipped"}
        assert "one_sided_lipschitz" in skipped
        assert "moment_margin" in skipped
        assert report.passed  # skips do not fail the report

    def test_report_lines_are_readable(self):
        report = check_assumptions(builtin_benchmark(), sample_count=50, seed=0)
        text = "\n".join(report.lines())
        assert "builtin" in text
        assert "[ok  ]" in text
