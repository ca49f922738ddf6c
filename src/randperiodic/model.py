"""Model definitions for periodically forced monotone SDEs.

The equation family is

    dX(t) = [-A X(t) + f(t, X(t))] dt + g(t) dW(t)

with ``A`` symmetric positive definite (stored through its eigenvalues, the
state expressed in the eigenbasis), ``f`` periodic in ``t`` and one-sided
Lipschitz in ``x`` with constant ``C_f`` strictly below the smallest
eigenvalue, and ``g`` a scalar periodic diffusion amplitude.  That spectral
gap ``lambda_1 - C_f > 0`` is what makes pulled-back trajectories forget
their initial condition and produces a random periodic solution.

Declared constants (``C_f``, ``sigma``, ...) are trusted by the solvers; the
:func:`check_assumptions` sampler exists to falsify wrong declarations.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .noise import _horner, _whole, _whole_seed

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PolyTrigDrift:
    """Coordinatewise polynomial drift plus a sinusoidal forcing term.

    ``f(t, x)_i = sum_k poly_coeffs[k] * x_i**k
                  + trig_amp * sin(2*pi*trig_freq*(t % period)/period)``

    ``trig_freq`` must be a whole number (any sign, or zero for no forcing)
    so the term has period ``period``.
    The time phase is reduced modulo ``period`` before evaluation, keeping the
    declared periodicity at machine precision.
    """

    poly_coeffs: tuple[float, ...]
    trig_amp: float
    trig_freq: int
    period: float

    def _forcing(self, t: float) -> float:
        if self.trig_amp == 0.0:
            return 0.0
        phase = (t % self.period) / self.period
        return self.trig_amp * math.sin(TWO_PI * self.trig_freq * phase)

    def __call__(self, t: float, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        value = _horner(x, self._coeffs) if self.poly_coeffs else np.zeros_like(x)
        value += self._forcing(t)
        return value

    # The polynomial and its derivative, as coefficients for noise._horner:
    # highest power first, behind a 0.0 so that the evaluation starts from
    # ``x*0 + c_n``, then ``c_k + r*x``, the order and bits of numpy's
    # ``polyval``.  Cached on the instance, not fields, so equality, hashing
    # and ``repr`` still see only the four fields.
    @cached_property
    def _coeffs(self) -> tuple[float, ...]:
        return (0.0,) + tuple(float(c) for c in reversed(self.poly_coeffs))

    @cached_property
    def _deriv_coeffs(self) -> tuple[float, ...] | None:
        """None when the polynomial is constant; else ``k * c_k`` for ``k`` from
        the degree down to 1, as ``numpy.polynomial.polynomial.polyder``
        forms them."""
        c = self._coeffs[:0:-1]  # lowest power first
        if len(c) < 2:
            return None
        return (0.0,) + tuple(k * c[k] for k in range(len(c) - 1, 0, -1))

    def jacobian(self, t: float, x: np.ndarray) -> np.ndarray:
        """Jacobian in ``x``; shape ``x.shape + (d,)`` with diagonal blocks."""
        x = np.asarray(x, dtype=np.float64)
        d = x.shape[-1]
        if self._deriv_coeffs is None:
            return np.zeros(x.shape + (d,))
        deriv = _horner(x, self._deriv_coeffs)
        if d == 1:
            return deriv.reshape(x.shape + (1,))
        jac = np.zeros(x.shape + (d,))
        idx = np.arange(d)
        jac[..., idx, idx] = deriv
        return jac


@dataclass(frozen=True)
class ConstantDiffusion:
    """Time-constant scalar diffusion amplitude."""

    amplitude: float

    def __call__(self, t: float) -> float:
        return self.amplitude


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Coefficients and declared constants of one SDE instance.

    Attributes:
        eigenvalues: Eigenvalues of ``A`` in ascending order, all positive.
        drift: Callable ``f(t, x)`` accepting ``x`` of shape ``(..., d)`` and
            returning the same shape (vectorized over leading axes).
        diffusion: Callable ``g(t)`` returning a scalar amplitude.
        period: Common period of ``f`` and ``g`` in ``t``.
        drift_jacobian: Optional ``(t, x) -> x.shape + (d,)`` Jacobian of the
            drift in ``x``; enables analytic Newton steps.
        constants: Declared constants, e.g. ``C_f`` (one-sided Lipschitz),
            ``sigma`` (diffusion bound), ``C_f_hat``, ``L``, ``q``, ``p``.
        name: Optional identifier used in reports.
        notes: Free-form remarks carried along with the model.
    """

    eigenvalues: np.ndarray
    drift: Callable[[float, np.ndarray], np.ndarray]
    diffusion: Callable[[float], float]
    period: float
    drift_jacobian: Callable[[float, np.ndarray], np.ndarray] | None = None
    constants: Mapping[str, float] = field(default_factory=dict)
    name: str = ""
    notes: str = ""

    def __post_init__(self) -> None:
        eig = np.atleast_1d(np.asarray(self.eigenvalues, dtype=np.float64))
        if eig.ndim != 1 or eig.size == 0:
            raise ValueError("eigenvalues must be a non-empty 1-d sequence")
        if not np.all((eig > 0.0) & np.isfinite(eig)):
            raise ValueError("all eigenvalues must be positive and finite")
        if not np.all(np.diff(eig) >= 0.0):
            raise ValueError("eigenvalues must be in ascending order")
        object.__setattr__(self, "eigenvalues", eig)
        object.__setattr__(self, "constants", dict(self.constants))
        if not 0.0 < self.period < math.inf:
            raise ValueError(f"period must be positive and finite, got {self.period}")
        c_f = self.constants.get("C_f")
        if c_f is not None and not c_f < eig[0]:
            raise ValueError(
                f"declared C_f={c_f} must lie strictly below the smallest eigenvalue {eig[0]}"
            )

    @property
    def dimension(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])


@dataclass(frozen=True)
class InitialCondition:
    """Deterministic vector or seed-keyed sampler for the starting state.

    Exactly one of ``value`` and ``sampler`` must be given.  A sampler is
    called with a 64-bit seed and must return a vector of the model dimension,
    deriving its own generator from the seed (it must not consume lattice
    increments, which keeps the starting state independent of the noise).
    """

    value: np.ndarray | None = None
    sampler: Callable[[int], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if (self.value is None) == (self.sampler is None):
            raise ValueError("exactly one of value and sampler must be set")
        if self.value is not None:
            object.__setattr__(
                self, "value", np.atleast_1d(np.asarray(self.value, dtype=np.float64))
            )

    def resolve(self, seed: int, dimension: int) -> np.ndarray:
        """Return the starting vector for one path; it must be finite."""
        if self.value is not None:
            vec = self.value
        else:
            vec = np.atleast_1d(np.asarray(self.sampler(int(seed)), dtype=np.float64))
        if vec.shape != (dimension,):
            raise ValueError(f"initial condition has shape {vec.shape}, expected ({dimension},)")
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"initial condition must be finite, got {vec}")
        return vec


def builtin_benchmark() -> ModelSpec:
    """Scalar benchmark: ``dX = [-10*pi*X + sin(2*pi*t)]dt + 0.05 dW``.

    The drift is independent of ``x``, so its one-sided Lipschitz constant
    is zero; the declared ``C_f = 1/2`` is the smallest single constant that
    also satisfies the growth condition ``<u, f(t,u)> <= C_f (1 + |u|^2)``
    (tight at ``|u| = 1``), so every contraction estimate applies with gap
    at least ``10*pi - 1/2``.  With the noise switched off the pulled-back
    solution converges to the explicit periodic limit
    ``(a*sin(2*pi*t) - 2*pi*cos(2*pi*t)) / (a**2 + 4*pi**2)`` with ``a=10*pi``.
    """
    a = 10.0 * math.pi
    drift = PolyTrigDrift(poly_coeffs=(), trig_amp=1.0, trig_freq=1, period=1.0)
    return ModelSpec(
        eigenvalues=np.array([a]),
        drift=drift,
        diffusion=ConstantDiffusion(0.05),
        period=1.0,
        drift_jacobian=drift.jacobian,
        constants={"C_f": 0.5, "sigma": 0.05, "C_f_hat": 1.0, "L": 1.0, "q": 2.0},
        name="builtin",
        notes=(
            "Constants computed from the coefficients; an alternative convention "
            "for this example lists lambda_1=10 and C_f=2."
        ),
    )


BUILTIN_MODELS: dict[str, Callable[[], ModelSpec]] = {
    "builtin": builtin_benchmark,
}


def with_diffusion_amplitude(model: ModelSpec, amplitude: float) -> ModelSpec:
    """Return a copy of ``model`` with constant diffusion ``amplitude``.

    Updates the declared ``sigma`` accordingly; handy for noise-free runs and
    for scaling studies.
    """
    constants = dict(model.constants)
    constants["sigma"] = float(abs(amplitude))
    return replace(model, diffusion=ConstantDiffusion(float(amplitude)), constants=constants)


def model_from_config(config: Mapping) -> ModelSpec:
    """Build a model from a JSON-style mapping.

    Schema::

        {
          "name": "optional string",
          "lambda": [eigenvalues ascending],
          "drift": {"poly_coeffs": [c0, c1, ...], "trig_amp": a, "trig_freq": k},
          "g": {"amp": amplitude},
          "tau": period,
          "constants": {"C_f": ..., "sigma": ..., ...}
        }

    Raises:
        ValueError: on unknown keys, missing fields, or invalid values,
            including any number that is not finite.
    """
    allowed = {"name", "lambda", "drift", "g", "tau", "constants"}
    unknown = set(config) - allowed
    if unknown:
        raise ValueError(f"unknown model config keys: {sorted(unknown)}")
    for key in ("lambda", "drift", "g", "tau"):
        if key not in config:
            raise ValueError(f"model config is missing required key {key!r}")
    tau = float(config["tau"])
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")

    drift_cfg = dict(config["drift"])
    unknown = set(drift_cfg) - {"poly_coeffs", "trig_amp", "trig_freq"}
    if unknown:
        raise ValueError(f"unknown drift config keys: {sorted(unknown)}")
    coeffs = tuple(_finite(c, "poly_coeffs entry") for c in drift_cfg.get("poly_coeffs", ()))
    trig_amp = _finite(drift_cfg.get("trig_amp", 0.0), "trig_amp")
    trig_freq_raw = drift_cfg.get("trig_freq", 1)
    _finite(trig_freq_raw, "trig_freq")
    if trig_amp != 0.0 and trig_freq_raw != int(trig_freq_raw):
        raise ValueError(f"trig_freq must be a whole number, got {trig_freq_raw!r}")
    drift = PolyTrigDrift(
        poly_coeffs=coeffs, trig_amp=trig_amp, trig_freq=int(trig_freq_raw), period=tau
    )

    g_cfg = dict(config["g"])
    unknown = set(g_cfg) - {"amp"}
    if unknown:
        raise ValueError(f"unknown diffusion config keys: {sorted(unknown)}")
    if "amp" not in g_cfg:
        raise ValueError("diffusion config requires key 'amp'")
    amp = _finite(g_cfg["amp"], "g.amp")

    constants = {
        str(k): _finite(v, f"constant {k}") for k, v in dict(config.get("constants", {})).items()
    }
    constants.setdefault("sigma", abs(amp))
    return ModelSpec(
        eigenvalues=np.asarray(config["lambda"], dtype=np.float64),
        drift=drift,
        diffusion=ConstantDiffusion(amp),
        period=tau,
        drift_jacobian=drift.jacobian,
        constants=constants,
        name=str(config.get("name", "")),
    )


def _finite(value, what: str) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {x}")
    return x


def load_model(source) -> ModelSpec:
    """Resolve a model from a spec, mapping, builtin name, or JSON file path."""
    if isinstance(source, ModelSpec):
        return source
    if isinstance(source, Mapping):
        return model_from_config(source)
    if isinstance(source, str):
        if source in BUILTIN_MODELS:
            return BUILTIN_MODELS[source]()
        if os.path.exists(source):
            with open(source, "r", encoding="utf-8") as fh:
                return model_from_config(json.load(fh))
        raise ValueError(f"unknown model {source!r}: not a builtin name or existing file")
    raise ValueError(f"cannot load a model from {type(source).__name__}")


@dataclass(frozen=True)
class AssumptionCheck:
    """Outcome of a single sampled inequality."""

    name: str
    status: str  # "passed", "violated", or "skipped"
    worst: float | None
    bound: float | None
    detail: str = ""

    def line(self) -> str:
        if self.status == "skipped":
            return f"[skip] {self.name}: {self.detail}"
        mark = "ok  " if self.status == "passed" else "FAIL"
        return f"[{mark}] {self.name}: worst {self.worst:.6g} vs bound {self.bound:.6g}"


@dataclass(frozen=True)
class AssumptionReport:
    """Collected sampled checks for one model."""

    model_name: str
    sample_count: int
    radius: float
    checks: tuple[AssumptionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.status != "violated" for c in self.checks)

    @property
    def violations(self) -> tuple[AssumptionCheck, ...]:
        return tuple(c for c in self.checks if c.status == "violated")

    def lines(self) -> list[str]:
        header = (
            f"assumption checks for {self.model_name or 'model'} "
            f"({self.sample_count} samples, radius {self.radius:g})"
        )
        return [header] + [c.line() for c in self.checks]


# Inequality comparisons allow this much floating slack.
_CHECK_SLACK = 1e-9


def check_assumptions(
    model: ModelSpec,
    sample_count: int = 1000,
    radius: float = 5.0,
    seed: int = 0,
) -> AssumptionReport:
    """Monte Carlo falsification aid for the declared model constants.

    Samples times in one period and states in a ball, then evaluates each
    structural inequality the solvers rely on, reporting the worst observed
    ratio against the declared bound.  Checks whose constants are not
    declared are reported as skipped, never silently passed.  The seed is
    taken modulo 2**64, as :class:`~randperiodic.noise.NoiseLattice` takes it.

    Raises:
        ValueError: a ``sample_count`` that is not a whole number of at least
            2 (a bool is not one), or a ``radius`` that is not positive and
            finite.
    """
    s = _whole(sample_count, "sample_count must be a whole number")
    if s < 2:
        raise ValueError(f"sample_count must be >= 2, got {sample_count}")
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"radius must be positive and finite, got {radius}")
    rng = np.random.default_rng(_whole_seed(seed))
    d = model.dimension
    tau = model.period
    consts = model.constants

    t = rng.uniform(0.0, tau, size=s)
    u = _sample_ball(rng, s, d, radius)
    u1 = _sample_ball(rng, s, d, radius)
    u2 = _sample_ball(rng, s, d, radius)

    # one drift call per sample at t and one at t + tau
    f_now = np.stack([model.drift(t[i], np.stack([u[i], u1[i], u2[i]])) for i in range(s)])
    f_u, f_u1, f_u2 = np.ascontiguousarray(f_now.swapaxes(0, 1))
    f_u_tau = np.stack([model.drift(t[i] + tau, u[i]) for i in range(s)])
    g_t = np.array([model.diffusion(t[i]) for i in range(s)], dtype=np.float64)
    g_t_tau = np.array([model.diffusion(t[i] + tau) for i in range(s)], dtype=np.float64)

    checks: list[AssumptionCheck] = []

    checks.append(
        _compare("eigenvalues_positive", -model.lambda_min, 0.0, "all eigenvalues positive")
    )

    f_scale = 1.0 + float(np.max(np.abs(f_u)))
    worst = float(np.max(np.abs(f_u_tau - f_u)))
    checks.append(_compare("drift_periodicity", worst, 1e-12 * f_scale, "f(t+tau,x) == f(t,x)"))
    worst = float(np.max(np.abs(g_t_tau - g_t)))
    checks.append(
        _compare("diffusion_periodicity", worst, 1e-12 * (1.0 + float(np.max(np.abs(g_t)))),
                 "g(t+tau) == g(t)")
    )

    c_f = consts.get("C_f")
    if c_f is None:
        checks.append(AssumptionCheck("spectral_gap", "skipped", None, None, "C_f not declared"))
        checks.append(
            AssumptionCheck("one_sided_lipschitz", "skipped", None, None, "C_f not declared")
        )
        checks.append(AssumptionCheck("drift_growth", "skipped", None, None, "C_f not declared"))
    else:
        checks.append(_compare("spectral_gap", float(c_f), model.lambda_min, "C_f < lambda_1"))
        du = u1 - u2
        df = f_u1 - f_u2
        sq = np.einsum("ij,ij->i", du, du)
        keep = sq > 1e-16
        ratio = np.einsum("ij,ij->i", du, df)[keep] / sq[keep]
        checks.append(
            _compare("one_sided_lipschitz", float(np.max(ratio)), float(c_f),
                     "<u1-u2, f(t,u1)-f(t,u2)> <= C_f |u1-u2|^2")
        )
        growth = np.einsum("ij,ij->i", u, f_u) / (1.0 + np.einsum("ij,ij->i", u, u))
        checks.append(
            _compare("drift_growth", float(np.max(growth)), float(c_f),
                     "<u, f(t,u)> <= C_f (1 + |u|^2)")
        )

    sigma = consts.get("sigma")
    if sigma is None:
        checks.append(AssumptionCheck("diffusion_bound", "skipped", None, None, "sigma not declared"))
    else:
        checks.append(
            _compare("diffusion_bound", float(np.max(np.abs(g_t))), float(sigma), "|g(t)| <= sigma")
        )

    c_f_hat = consts.get("C_f_hat")
    if c_f_hat is None:
        checks.append(
            AssumptionCheck("tangent_condition", "skipped", None, None, "C_f_hat not declared")
        )
    else:
        norm_sq = np.einsum("ij,ij->i", u, u)
        keep = norm_sq > 1e-16
        proj = (np.einsum("ij,ij->i", f_u, u)[keep] / norm_sq[keep])[:, None] * u[keep]
        tang = np.linalg.norm(f_u[keep] - proj, axis=1)
        ratio = tang / (1.0 + np.sqrt(norm_sq[keep]))
        checks.append(
            _compare("tangent_condition", float(np.max(ratio)), float(c_f_hat),
                     "|f - <f,u>u/|u|^2| <= C_f_hat (1 + |u|)")
        )

    big_l = consts.get("L")
    q = consts.get("q")
    if big_l is None or q is None:
        checks.append(
            AssumptionCheck("polynomial_lipschitz", "skipped", None, None, "L or q not declared")
        )
    else:
        du_norm = np.linalg.norm(u1 - u2, axis=1)
        keep = du_norm > 1e-12
        grow = 1.0 + np.linalg.norm(u1, axis=1) ** (q - 1.0) + np.linalg.norm(u2, axis=1) ** (q - 1.0)
        ratio = np.linalg.norm(f_u1 - f_u2, axis=1)[keep] / (grow[keep] * du_norm[keep])
        checks.append(
            _compare("polynomial_lipschitz", float(np.max(ratio)), float(big_l),
                     "|f(t,u1)-f(t,u2)| <= L (1+|u1|^(q-1)+|u2|^(q-1)) |u1-u2|")
        )

    p = consts.get("p")
    if p is None and q is not None:
        p = 4.0 * q - 2.0
    if p is None or c_f is None or sigma is None:
        checks.append(
            AssumptionCheck("moment_margin", "skipped", None, None, "needs C_f, sigma and p (or q)")
        )
    else:
        gamma_p = (c_f + (p - 1.0) * sigma**2 / 2.0) * (2.0 + p + 2.0 ** (p + 1.0))
        checks.append(
            _compare("moment_margin", float(gamma_p), float(p * model.lambda_min),
                     "gamma_p < p lambda_1")
        )

    return AssumptionReport(
        model_name=model.name, sample_count=s, radius=float(radius), checks=tuple(checks)
    )


def _compare(name: str, worst: float, bound: float, detail: str) -> AssumptionCheck:
    ok = worst <= bound + _CHECK_SLACK * (1.0 + abs(bound))
    return AssumptionCheck(name, "passed" if ok else "violated", worst, bound, detail)


def _sample_ball(rng: np.random.Generator, count: int, dimension: int, radius: float) -> np.ndarray:
    z = rng.standard_normal(size=(count, dimension))
    norm = np.linalg.norm(z, axis=1, keepdims=True)
    norm[norm == 0.0] = 1.0
    r = radius * rng.uniform(0.0, 1.0, size=(count, 1)) ** (1.0 / dimension)
    return z / norm * r
