"""Implicit and explicit one-step integrators for the monotone SDE family.

The implicit (drift-implicit backward Euler) step solves

    G(z) = z + h*A*z - h*f(t_next, z) = y,    y = x_prev + g(t_prev)*dW

for the next state ``z``.  Because ``f`` is one-sided Lipschitz with constant
``C_f`` below the smallest eigenvalue of ``A``, the map ``G`` is uniformly
monotone with modulus ``1 + h*(lambda_1 - C_f) > 1`` for every ``h > 0``:
the root exists, is unique, and solving for it is well conditioned at any
step size.  The explicit step trades that robustness for speed and is kept
as the comparison scheme; its instability at large ``h`` is an observable
outcome, not an error.

The solve is a damped Newton iteration with a bisection fallback for scalar
models.  It works on the rows still above tolerance only, kept compacted: a
row leaves the working set, and is written to the result, on the iteration
it is found converged, and the drift and its Jacobian see exactly the rows
still working.  An affine drift, a :class:`~randperiodic.model.PolyTrigDrift`
``p0 + p1*x + F(t)``, has the root in closed form, coordinate by coordinate,

    z_i = (y_i + h*(p0 + F(t_next))) / (1 + h*(lambda_i - p1)),

which is the one exact Newton step.  :func:`_affine_plan` decides once per
model and step size whether the solver takes it instead of the loop: where
every divisor is positive and :func:`_affine_bound` proves every division's
residual below the tolerance, over the forcing's whole period.  Otherwise
every step of that model and step size runs Newton unchanged.
:func:`_affine_steps` is that closed form, for one step or for a run of
steps in one loop, and reports the proven bound; the single-step solve
calls it for one step, and :func:`randperiodic.pullback._drive` once per
chunk of steps.
:func:`_em_steps` is the same kind of window for the explicit step of any
drift, with its divergence check made once per run of steps, and
:func:`_newton_steps` for the implicit step of any drift without a closed
form: it runs the damped Newton loop itself for a scalar
:class:`~randperiodic.model.PolyTrigDrift` with its own Jacobian, with the
set-up made once per run of steps, and calls the solve once per step for
any other drift.  Every window takes a buffer ``z`` of shape
``(steps + 1, M, d)`` and fills ``z[1:]`` from ``z[0]``.  The affine and
explicit windows read step ``j``'s increments at ``inc[j]`` of one
step-major array of shape ``(steps, M, d)``.  The affine window steps a
batch of one number, a single path of a scalar model, on Python floats,
with the same IEEE operations in the same order as on arrays.

All solver kernels operate on batches of states with shape ``(M, d)`` and
make per-path decisions (convergence, damping) independently, so a path's
arithmetic never depends on what else happens to be in its batch.  The
public single-path functions wrap the batch kernels with ``M = 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelSpec, PolyTrigDrift
from .noise import _horner


class NonConvergenceError(RuntimeError):
    """The implicit solve exhausted its iteration caps."""


class NonFiniteEvaluationError(RuntimeError):
    """A model coefficient returned a non-finite value."""


@dataclass(frozen=True)
class StepStats:
    """Work and accuracy record of one implicit solve.

    ``final_residual`` is the measured residual norm of a Newton solve, or,
    for a closed-form step of an affine drift, the proven bound that
    :func:`_affine_steps` reports.
    """

    newton_iters: int
    final_residual: float
    fallback_used: bool


# Relative residual tolerance of the implicit solve: a solve with right-hand
# side ``y`` accepts ``z`` once ``|G(z) - y| <= RESIDUAL_TOL * (1 + |y|)``.
RESIDUAL_TOL = 1e-12

# Caps and finite-difference step of the implicit solve.
_MAX_NEWTON_ITERS = 50
_MAX_DAMPING_HALVINGS = 30
_MAX_BISECTION_ITERS = 200
_FD_EPSILON = 1e-7


def _check_h(h: float) -> None:
    if not 0.0 < h < 1.0:
        raise ValueError(f"step size h must lie in (0, 1), got {h}")


def _drift(model: ModelSpec, t: float, x: np.ndarray) -> np.ndarray:
    fx = np.asarray(model.drift(t, x), dtype=np.float64)
    if fx.shape != x.shape:
        raise ValueError(f"drift returned shape {fx.shape}, expected {x.shape}")
    return fx


def _check_finite(values: np.ndarray, t: float, what: str = "drift returned") -> None:
    """Raise unless every one of ``values``, taken at time ``t``, is finite;
    ``what`` names them in the message (drift values by default)."""
    if not np.isfinite(values).all():
        raise NonFiniteEvaluationError(f"{what} non-finite values at t={t}")



def _implicit_solve_batch(
    model: ModelSpec,
    t: float,
    h: float,
    rhs: np.ndarray,
    x0: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Solve ``G(z) = rhs`` rowwise for ``rhs`` of shape ``(M, d)``.

    Returns ``(z, newton_iters, final_residual, fallback_used)`` with the
    last three per path.  Damped Newton with per-path step halving; for
    scalar models a bracketing bisection on the monotone ``G`` catches any
    path Newton fails on.  Newton uses the model's ``drift_jacobian`` when it
    declares one, and one-sided finite differences with step
    ``1e-7 * (1 + |x|)`` otherwise.

    Where :func:`_affine_plan` holds for the model and ``h``, every row is
    solved by one division instead (see :func:`_affine_steps`), without
    calling the drift or its Jacobian; it reports one Newton iteration per
    path, no fallback, and for every path the batch's proven residual
    bound.  Any other model or ``h`` runs the Newton loop, which first
    refuses an ``rhs`` that is not finite with
    :class:`NonFiniteEvaluationError`.
    """
    m_paths, d = rhs.shape
    affine = _affine_plan(model, h)
    if affine is not None:
        p0, divisor, bound = affine
        forcing = h * (p0 + model.drift._forcing(t))
        z = np.stack((rhs, rhs))  # the step fills z[1] from z[0]
        # x + (-0.0) is x bit for bit: rhs is one step from itself
        resid = _affine_steps(z, np.full((1, m_paths, d), -0.0), [forcing], divisor, [t], bound)
        return (z[1], np.ones(m_paths, dtype=np.int64), np.full(m_paths, resid),
                np.zeros(m_paths, dtype=bool))

    lam = model.eigenvalues
    _check_finite(rhs, t, "implicit step right-hand side has")
    tol = RESIDUAL_TOL * (1.0 + _row_norm(rhs))
    use_analytic = model.drift_jacobian is not None
    denom = 1.0 + h * lam
    x = np.array(x0, dtype=np.float64) if x0 is not None else rhs / denom

    fx = _drift(model, t, x)
    _check_finite(fx, t)
    r = x * denom - h * fx - rhs
    rn = _row_norm(r)
    iters = np.zeros(m_paths, dtype=np.int64)

    # The loop works on the rows still above tolerance, compacted: ``rows``
    # are their indices in the batch.  A row that is found converged is
    # written back to ``x``, ``rn`` and ``iters`` once and leaves the set.
    rows = np.arange(m_paths)
    xa, ra, fxa, rhsa, rna, tola = x, r, fx, rhs, rn, tol
    for k in range(_MAX_NEWTON_ITERS):
        active = rna > tola
        if not active.all():
            gone = np.flatnonzero(~active)
            done = rows[gone]
            x[done], rn[done], iters[done] = xa.take(gone, axis=0), rna[gone], k
            keep = np.flatnonzero(active)
            if not keep.size:
                break
            xa, ra, rhsa = (a.take(keep, axis=0) for a in (xa, ra, rhsa))
            rows, rna, tola = rows[keep], rna[keep], tola[keep]
            if not use_analytic:
                fxa = fxa.take(keep, axis=0)

        if use_analytic:
            jf = np.asarray(model.drift_jacobian(t, xa), dtype=np.float64)
        else:
            jf = np.empty((xa.shape[0], d, d))
            for c in range(d):
                eps = _FD_EPSILON * (1.0 + np.abs(xa[:, c]))
                xp = xa.copy()
                xp[:, c] += eps
                jf[:, :, c] = (_drift(model, t, xp) - fxa) / eps[:, None]
        if d == 1:
            delta = -ra / (denom - h * jf[:, 0])
        else:
            jac = -h * jf
            idx = np.arange(d)
            jac[:, idx, idx] += denom
            delta = np.linalg.solve(jac, -ra[..., None])[..., 0]

        # the full step, then up to _MAX_DAMPING_HALVINGS halvings of it on
        # the rows whose residual did not fall; a non-finite trial residual
        # counts as worse than any
        prop, alpha = xa + delta, None
        for halvings in range(_MAX_DAMPING_HALVINGS + 1):
            if halvings:
                if alpha is None:
                    alpha = np.ones(xa.shape[0])
                alpha[worse] *= 0.5
                prop[worse] = xa[worse] + alpha[worse, None] * delta[worse]
            fp = _drift(model, t, prop)
            rp = prop * denom - h * fp - rhsa
            rpn = _row_norm(rp)
            better = rpn < rna
            if better.all():
                break
            worse = ~better
        else:
            rpn = np.where(np.isfinite(rpn), rpn, np.inf)
        xa, ra, fxa, rna = prop, rp, fp, rpn
    else:
        x[rows], rn[rows], iters[rows] = xa, rna, _MAX_NEWTON_ITERS

    fallback = _settle(model, t, h, float(denom[0]), rhs, x, rn, tol)
    return x, iters, rn, np.zeros(m_paths, dtype=bool) if fallback is None else fallback


def _settle(
    model: ModelSpec,
    t: float,
    h: float,
    denom0: float,
    rhs: np.ndarray,
    x: np.ndarray,
    rn: np.ndarray,
    tol: np.ndarray,
) -> np.ndarray | None:
    """The end of an implicit solve to time ``t`` whose Newton loop left the
    rows of ``x``, shape ``(M, d)``, at residual norms ``rn``: each scalar
    row above its ``tol`` is solved again by :func:`_bisect_scalar`, which
    updates ``x`` and ``rn`` in place.

    A bisected row may stay above its tolerance when the residual's rounding
    floor lies above it.  Such a row is accepted, with the residual it
    reached, only if ``G(z) - y``, evaluated here, is strictly negative at
    one of its state and the adjacent double towards the root and strictly
    positive at the other: the root then lies between two neighbouring
    doubles, and the state is one of them.

    Returns the rows that fell back, or None when none did.

    Raises:
        NonConvergenceError: a row of a model with d > 1 is above its
            tolerance, or a row still is after the fallback and is not
            certified by a sign change.
    """
    if (rn <= tol).all():
        return None
    stuck = rn > tol
    certified = np.zeros_like(stuck)
    if stuck.any():
        if x.shape[1] != 1:
            worst = float(np.max(rn[stuck]))
            raise NonConvergenceError(
                f"implicit solve did not converge for {int(stuck.sum())} path(s) "
                f"at t={t} (worst residual {worst:.3e})"
            )
        for i in np.nonzero(stuck)[0]:
            y = float(rhs[i, 0])
            z, res = _bisect_scalar(
                model, t, h, denom0, y, float(x[i, 0]), float(tol[i]), _MAX_BISECTION_ITERS,
            )
            x[i, 0] = z
            rn[i] = res
            if not res <= tol[i]:
                g = _g_scalar(model, t, h, denom0, y, z)
                g_next = _g_scalar(model, t, h, denom0, y,
                                   math.nextafter(z, -math.inf if g > 0.0 else math.inf))
                certified[i] = g < 0.0 < g_next or g_next < 0.0 < g

    above = ~((rn <= tol) | certified)
    if above.any():
        raise NonConvergenceError(
            f"implicit solve left {int(above.sum())} path(s) above tolerance at t={t} "
            f"(worst residual {float(np.max(rn[above])):.3e})"
        )
    return stuck


def _affine_plan(
    model: ModelSpec, h: float
) -> tuple[float, np.ndarray, tuple[float, float, float]] | None:
    """``(p0, divisor, bound)`` of the closed-form implicit step at step size
    ``h``: the step to time ``t`` divides ``rhs + h*(p0 + F(t))`` by
    ``divisor = 1 + h*(lambda - p1)``, and ``bound`` is :func:`_affine_bound`
    for forcing terms up to ``h*(|p0| + |trig_amp|)``.

    That bound holds at every time: ``|sin| <= 1`` and rounding is
    monotone, so no computed ``|h*(p0 + F(t))|`` exceeds it.  The choice is
    made here once for the model and ``h``, so a run, a shorter grid and
    one :func:`bem_step` take the same path at every step.

    None, and every implicit step of the model at ``h`` runs Newton, unless
    the drift is a :class:`PolyTrigDrift` (not a subclass) whose polynomial
    ``p0 + p1*x + ...`` has no nonzero term above ``x``, every divisor is
    positive, and the bound exists.
    """
    drift = model.drift
    if type(drift) is not PolyTrigDrift or any(drift.poly_coeffs[2:]):
        return None
    p0, p1 = (tuple(drift.poly_coeffs) + (0.0, 0.0))[:2]
    divisor = 1.0 + h * (model.eigenvalues - p1)
    if not np.all(divisor > 0.0):
        return None
    bound = _affine_bound(divisor, h * (abs(p0) + abs(drift.trig_amp)))
    return None if bound is None else (p0, divisor, bound)


# The residual of one closed-form division.  Take ``z = fl(b/d)`` with
# ``d > 0``, and u = 2**-53.  Where no quotient or product is subnormal,
# ``fl(z*d) = b*(1 + e1)*(1 + e2)`` with ``|e1|, |e2| <= u``, the subtraction
# ``fl(z*d) - b`` is exact (Sterbenz's lemma), and so
# ``|fl(fl(z*d) - b)| <= (2u + u**2)*|b|``; subnormal roundings add at most
# ``(2 + d)*2**-1075``.  Over ``k`` coordinates the norm of a row is at most
# ``sqrt(k)`` times its largest coordinate, and for ``k > 1`` the computed
# norm, a square root of a sum of squares, exceeds the exact one by at most
# ``sqrt(k)*2**-537`` where the squares are subnormal.  _RESIDUAL_ULPS is
# 2u + u**2 with room for the other roundings of the norms and the bound.
# Rows whose squares overflow (above about 1e154) are normed with scaling
# by their largest coordinate (see _row_norm), which adds a few roundings
# of relative size u, well inside that room.
_RESIDUAL_ULPS = 2.0**-52 * (1.0 + 2.0**-40)


def _affine_bound(divisor: np.ndarray, forcing_max: float) -> tuple[float, float, float] | None:
    """``(scale, floor, limit)`` of the proven residual of closed-form steps
    whose forcing terms are at most ``forcing_max`` in size, or None.

    A step of right-hand side ``rhs`` and ``b = rhs + forcing`` whose
    quotient and product are finite, as they are wherever every ``|b_i|``
    is at most ``limit``, has residual norm at most
    ``scale * max|b_i| + floor``.  None unless that bound is at most half
    of ``RESIDUAL_TOL * (1 + |rhs|)`` for every ``rhs``: then no such step
    can miss the tolerance.
    """
    root = math.sqrt(divisor.size)
    scale = root * _RESIDUAL_ULPS
    floor = root * ((2.0 + float(divisor.max())) * 2.0**-1072
                    + (2.0**-536 if divisor.size > 1 else 0.0))
    if not 2.0 * (scale * (1.0 + forcing_max) + floor) <= RESIDUAL_TOL:
        return None
    # |z| <= |b|/min(divisor) and |z*divisor| <= |b| up to rounding: both finite
    return scale, floor, 0.5 * np.finfo(float).max * min(1.0, float(divisor.min()))


def _affine_steps(
    z: np.ndarray,
    inc: np.ndarray,
    forcing: list[float],
    divisor: np.ndarray,
    t_next: list[float],
    bound: tuple[float, float, float],
) -> float:
    """Closed-form implicit steps of an affine drift: fill ``z[1:]`` from
    ``z[0]``.

    Step ``j`` has right-hand side ``rhs_j = z[j] + inc[j]`` and solves
    ``z*(1 + h*lambda) - h*(p0 + p1*z + F(t_next[j])) = rhs_j`` by

        b_j = rhs_j + forcing[j],    z[j + 1] = b_j / divisor,

    with ``forcing[j] = h*(p0 + F(t_next[j]))``, and ``divisor`` and
    ``bound`` from :func:`_affine_plan`.  ``z`` has shape
    ``(steps + 1, M, d)`` and ``inc``, step-major, shape ``(steps, M, d)``.
    The steps run in sequence: on Python floats when the batch is one
    number, in the same IEEE ``+`` and ``/`` as the array loop that steps
    every other batch.

    A division whose quotient and product ``z[j + 1]*divisor`` are finite
    is proven within tolerance by ``bound``; the run reports the bound at
    its largest ``|b_j|``.  Only where some ``|b_j|`` exceeds the bound's
    limit are the products checked, and the first step with one that is not
    finite raises, naming its ``t_next``.

    Returns the residual bound reported for the run.

    Raises:
        NonFiniteEvaluationError: a step's result is not finite.
    """
    if z[0].size == 1:
        x, div, xs = float(z[0, 0, 0]), float(divisor[0]), []
        for w, f in zip(inc[:, 0, 0].tolist(), forcing):
            x = (x + w + f) / div
            xs.append(x)
        z[1:, 0, 0] = xs
    else:
        for j, f in enumerate(forcing):
            nxt = z[j + 1]
            np.add(z[j], inc[j], out=nxt)
            nxt += f
            nxt /= divisor
    scale, floor, limit = bound
    # b as the loops formed it: z[:-1] + inc, then the forcing
    b = z[:-1] + inc
    b += np.asarray(forcing)[:, None, None]
    big = float(np.maximum.reduce(np.abs(b, out=b), axis=None))
    if not big <= limit:  # below the limit every b, and with it every z, is finite
        with np.errstate(over="ignore"):
            finite = np.isfinite(z[1:] * divisor).all(axis=(1, 2))
        if not finite.all():
            t = t_next[int(np.argmin(finite))]
            raise NonFiniteEvaluationError(f"affine implicit step is non-finite at t={t}")
    return scale * big + floor


def _em_steps(
    model: ModelSpec,
    h: float,
    t_prev: list[float],
    z: np.ndarray,
    inc: np.ndarray,
    threshold: float,
    forcing: list[float] | None,
) -> None:
    """Explicit steps of any drift: fill ``z[1:]`` from ``z[0]``.

    Step ``j`` is :func:`_em_step_batch` from time ``t_prev[j]`` written
    out, in its order of operations: ``z[j + 1] = z[j] + h*((-lambda)*z[j]
    + f) + inc[j]`` with ``f`` the drift at ``(t_prev[j], z[j])`` and
    ``inc[j]`` the step's ``g(t_prev[j])*dW``.  A :class:`PolyTrigDrift`
    (not a subclass) is evaluated here: its polynomial by
    :func:`~randperiodic.noise._horner` (zero for an empty one) plus
    ``forcing[j] = F(t_prev[j])``, as the run's step plan tabulates it.
    Any other drift, whose ``forcing`` is None, is called once per step.
    ``z`` has shape ``(steps + 1, M, d)`` and ``inc``, step-major, shape
    ``(steps, M, d)``.

    Every row runs every step.  A row of ``z[0]`` that is not finite has
    diverged already and is held at ``z[0]``.  Every other row is NaN from
    its first node after ``z[0]`` whose norm is non-finite or above
    ``threshold``.  A step whose drift is non-finite at a state before that
    node raises, as the per-step kernel does; the earliest one names its
    ``t_prev``.

    Raises:
        NonFiniteEvaluationError: the drift is non-finite at a live state.
    """
    drift = model.drift
    exact = type(drift) is PolyTrigDrift
    if exact:
        coeffs = drift._coeffs if drift.poly_coeffs else None
    neg_lam = -model.eigenvalues
    # rows that diverge keep stepping to the end of the window, and may
    # overflow there; only their values up to the crossing are kept
    with np.errstate(over="ignore", invalid="ignore"):
        for j, t in enumerate(t_prev):
            xj, nxt = z[j], z[j + 1]
            if not exact:
                fx = _drift(model, t, xj)
            elif coeffs is None:
                fx = 0.0 + forcing[j]  # the value of every entry of zeros_like(x) + F
            else:
                fx = _horner(xj, coeffs)
                fx += forcing[j]
            np.multiply(neg_lam, xj, out=nxt)
            nxt += fx
            nxt *= h
            nxt += xj
            nxt += inc[j]

        bad = ~(_row_norm(z[1:]) <= threshold)  # (steps, rows)
        # a row of z[0] that is not finite steps to states that are not: bad too
        if bad.any():
            held = ~np.isfinite(z[0]).all(axis=1)
            z[1:, held] = z[0, held]
            bad[:, held] = False
            # a non-finite drift makes the next state non-finite, so only a
            # row's step into its first bad node can have had one
            crossed = np.flatnonzero(bad.any(axis=0))
            last = bad[:, crossed].argmax(axis=0)  # each crossing row's last live node
            for j in np.unique(last).tolist():
                _check_finite(_drift(model, t_prev[j], z[j, crossed[last == j]]), t_prev[j])
            z[1:][np.logical_or.accumulate(bad, axis=0)] = np.nan


def _newton_steps(
    model: ModelSpec,
    h: float,
    t_next: list[float],
    z: np.ndarray,
    dw: np.ndarray,
    g: list[float],
    forcing: list[float] | None,
) -> tuple[int, float, bool]:
    """Implicit steps of a drift without a closed form: fill ``z[1:]`` from
    ``z[0]``.

    Step ``j`` is :func:`_bem_step_batch` to time ``t_next[j]`` with the
    diffusion ``g[j]``: it solves ``G(z[j + 1]) = z[j] + g[j]*dw[:, j]``
    from the guess ``z[j]``.  ``z`` has shape ``(steps + 1, M, d)`` and
    ``dw``, path-major as the run reads it, shape ``(M, steps, d)``; each
    step forms its own right-hand side.  A scalar :class:`PolyTrigDrift`
    (not a subclass) of degree one or more, whose model takes the drift's
    own ``jacobian``, runs the damped Newton loop of
    :func:`_implicit_solve_batch` here on rows of the one column, with its
    set-up made once for the run of steps: ``f`` and ``f'`` by
    :func:`~randperiodic.noise._horner` plus ``forcing[j] = F(t_next[j])``,
    as the run's step plan tabulates it, in the same IEEE operations and
    order.  Any other drift calls :func:`_implicit_solve_batch` once per
    step, and needs no ``forcing``.

    Returns the run's largest Newton iteration count and residual, and
    whether any row fell back to bisection.

    Raises:
        NonFiniteEvaluationError: a step's right-hand side, or the drift at
            its guess, is not finite.
        NonConvergenceError: a step's solve failed; both name its
            ``t_next``.
    """
    drift = model.drift
    iters, resid, fallback = 0, 0.0, False
    if not (type(drift) is PolyTrigDrift and z.shape[2] == 1
            and drift._deriv_coeffs is not None and model.drift_jacobian == drift.jacobian):
        for j, t in enumerate(t_next):
            rhs = z[j] + g[j] * dw[:, j]
            z[j + 1], it, rn, fb = _implicit_solve_batch(model, t, h, rhs, z[j])
            iters, resid = max(iters, int(it.max())), max(resid, float(rn.max()))
            fallback = fallback or bool(fb.any())
        return iters, resid, fallback

    # the scalars as 0-d arrays, which numpy applies faster than floats
    coeffs, deriv = ([np.array(c) for c in cs] for cs in (drift._coeffs, drift._deriv_coeffs))
    h_, denom = np.array(h), np.array(1.0 + h * model.eigenvalues[0])
    zs, dws, f_ts = z[..., 0], dw[..., 0], np.array(forcing)
    # the work rows of every step: two sets of trial (x, r, |r|), so that a
    # trial never overwrites the iterate it starts from
    rhs, tol, rn, work, delta = np.empty((5, zs.shape[1]))
    trials = np.empty((2, 3, zs.shape[1]))
    flags, every_row = np.empty(zs.shape[1], dtype=bool), np.arange(zs.shape[1])
    for j, t in enumerate(t_next):
        x, f_t = zs[j + 1], f_ts[j, ...]  # each row of x is written once, when it leaves
        np.multiply(dws[:, j], g[j], out=rhs)
        rhs += zs[j]
        np.abs(rhs, out=tol)
        tol += 1.0
        tol *= RESIDUAL_TOL
        xa, (ra, rna) = zs[j], trials[1, 1:]
        fx = _horner(xa, coeffs, out=work)
        fx += f_t
        np.multiply(xa, denom, out=ra)
        fx *= h_
        ra -= fx
        ra -= rhs
        if not np.isfinite(ra).all():  # r is finite only where rhs and f are: name which
            _check_finite(rhs, t, "implicit step right-hand side has")
            _check_finite(fx, t)
        np.abs(ra, out=rna)
        # as in _implicit_solve_batch: the rows still above tolerance, compacted
        rows, rhsa, tola, m = every_row, rhs, tol, len(rhs)
        for k in range(_MAX_NEWTON_ITERS):
            active = np.greater(rna, tola, out=flags[:m])
            left = np.count_nonzero(active)
            if left < m:
                gone = (~active).nonzero()[0]
                done = rows[gone]
                x[done], rn[done] = xa.take(gone), rna.take(gone)
                if not left:
                    break
                keep, m = active.nonzero()[0], left
                xa, ra, rhsa, rna, tola, rows = (
                    a.take(keep) for a in (xa, ra, rhsa, rna, tola, rows))
            jf = _horner(xa, deriv, out=work[:m])
            jf *= h_
            np.subtract(denom, jf, out=jf)
            step = np.negative(ra, out=delta[:m])
            step /= jf
            prop, rp, rpn = trials[k % 2, :, :m]
            np.add(xa, step, out=prop)
            alpha = None
            for halvings in range(_MAX_DAMPING_HALVINGS + 1):
                if halvings:
                    if alpha is None:
                        alpha = np.ones(m)
                    alpha[worse] *= 0.5
                    prop[worse] = xa[worse] + alpha[worse] * step[worse]
                fp = _horner(prop, coeffs, out=work[:m])
                fp += f_t
                np.multiply(prop, denom, out=rp)
                fp *= h_
                rp -= fp
                rp -= rhsa
                np.abs(rp, out=rpn)
                better = np.less(rpn, rna, out=flags[:m])
                if np.count_nonzero(better) == m:
                    break
                worse = ~better
            else:
                rpn[~np.isfinite(rpn)] = np.inf
            xa, ra, rna = prop, rp, rpn
        else:
            # only rows still above tolerance are left to settle: a row
            # leaves the loop early at or below its tolerance, as no |r| is
            # NaN (a non-finite trial residual is inf)
            k = _MAX_NEWTON_ITERS
            x[rows], rn[rows] = xa, rna
            if _settle(model, t, h, float(denom), rhs[:, None], z[j + 1], rn, tol) is not None:
                fallback = True
        iters, resid = max(iters, k), max(resid, float(rn.max()))
    return iters, resid, fallback


def _row_norm(a: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis of ``a``; ``abs`` for one column.

    ``abs`` has the bits of the 1-column norm ``sqrt(a*a)`` wherever the
    square neither overflows nor underflows (``1.5e-154 < |a| < 1.3e154``).
    A row of finite entries whose sum of squares overflows is normed again
    with its entries scaled by the largest ``|entry|``; every other row
    keeps the bits of the plain norm, taken without an overflow warning.
    """
    if a.shape[-1] == 1:
        return np.abs(a[..., 0])
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(a, axis=-1)
    over = np.isinf(norm)
    if over.any():
        over &= np.isfinite(a).all(axis=-1)
        big = np.abs(a[over]).max(axis=-1, keepdims=True)
        norm[over] = big[:, 0] * np.linalg.norm(a[over] / big, axis=-1)
    return norm


def _g_scalar(model: ModelSpec, t: float, h: float, denom0: float, y: float, z: float) -> float:
    """``G(z) - y = z*(1 + h*lambda) - h*f(t, z) - y`` of a scalar model,
    with ``denom0 = 1 + h*lambda``."""
    fz = _drift(model, t, np.array([[z]]))[0, 0]
    return z * denom0 - h * float(fz) - y


def _bisect_scalar(
    model: ModelSpec,
    t: float,
    h: float,
    denom0: float,
    y: float,
    z0: float,
    tol: float,
    max_iters: int,
) -> tuple[float, float]:
    """Root of ``G(z) - y`` for a scalar model by bracketing bisection from
    ``z0``; relies on ``G`` being increasing.

    Returns ``(z, |G(z) - y|)`` for the first midpoint within ``tol``.  Once
    no double lies strictly between the bracket's ends, it returns the end
    of smaller residual instead, which may be above ``tol``: the root lies
    between those two doubles.

    Raises:
        NonConvergenceError: no bracket is found, or ``max_iters`` halvings
            end with neither.
    """

    def gval(z: float) -> float:
        return _g_scalar(model, t, h, denom0, y, z)

    g0 = gval(z0)
    lo = hi = z0
    glo = ghi = g0
    step = 1.0 + abs(g0)
    for _ in range(200):
        if glo <= 0.0:
            break
        lo -= step
        glo = gval(lo)
        step *= 2.0
    step = 1.0 + abs(g0)
    for _ in range(200):
        if ghi >= 0.0:
            break
        hi += step
        ghi = gval(hi)
        step *= 2.0
    if glo > 0.0 or ghi < 0.0:
        raise NonConvergenceError(f"could not bracket the implicit-step root at t={t}")

    mid, gm = z0, g0
    for _ in range(max_iters):
        mid = 0.5 * (lo + hi)
        gm = gval(mid)
        if abs(gm) <= tol:
            return mid, abs(gm)
        if gm > 0.0:
            hi, ghi = mid, gm
        else:
            lo, glo = mid, gm
        if math.nextafter(lo, hi) == hi:
            return (lo, abs(glo)) if abs(glo) <= abs(ghi) else (hi, abs(ghi))
    raise NonConvergenceError(
        f"bisection exhausted {max_iters} iterations at t={t} (residual {abs(gm):.3e})"
    )


def implicit_solve(
    model: ModelSpec,
    t: float,
    h: float,
    rhs: np.ndarray,
    x0: np.ndarray | None = None,
) -> tuple[np.ndarray, StepStats]:
    """Solve ``z + h*A*z - h*f(t, z) = rhs`` for one state vector.

    Args:
        model: Model supplying ``A`` (eigenvalues) and the drift.
        t: Drift evaluation time.
        h: Step size in ``(0, 1)``.
        rhs: Right-hand side vector of shape ``(d,)``.
        x0: Optional initial guess (defaults to the linear-part solution).

    Returns:
        The solution vector and per-solve :class:`StepStats`.

    Raises:
        NonConvergenceError: iteration caps exhausted.
        NonFiniteEvaluationError: ``rhs`` or the drift is not finite.
    """
    _check_h(h)
    rhs = np.atleast_1d(np.asarray(rhs, dtype=np.float64))
    guess = None if x0 is None else np.atleast_1d(np.asarray(x0, dtype=np.float64))[None, :]
    z, iters, rn, fb = _implicit_solve_batch(model, t, h, rhs[None, :], guess)
    return z[0], StepStats(int(iters[0]), float(rn[0]), bool(fb[0]))


def bem_step(
    model: ModelSpec,
    t_next: float,
    h: float,
    x_prev: np.ndarray,
    dW: np.ndarray,
) -> tuple[np.ndarray, StepStats]:
    """One drift-implicit step to time ``t_next``.

    The drift is evaluated implicitly at ``t_next`` and the diffusion
    explicitly at ``t_next - h``; both times are reduced modulo the model
    period before evaluating the coefficients.

    Raises:
        NonConvergenceError: iteration caps exhausted.
        NonFiniteEvaluationError: the right-hand side ``x_prev + g*dW`` or
            the drift is not finite; names ``t_next``.
    """
    _check_h(h)
    tau = model.period
    x_prev = np.atleast_1d(np.asarray(x_prev, dtype=np.float64))
    dW = np.atleast_1d(np.asarray(dW, dtype=np.float64))
    z, iters, rn, fb = _bem_step_batch(
        model, (t_next - h) % tau, t_next % tau, h, x_prev[None, :], dW[None, :]
    )
    return z[0], StepStats(int(iters[0]), float(rn[0]), bool(fb[0]))


def _bem_step_batch(
    model: ModelSpec,
    t_prev: float,
    t_next: float,
    h: float,
    x_prev: np.ndarray,
    dW: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batch implicit step; times must already be reduced to ``[0, tau)``."""
    rhs = x_prev + float(model.diffusion(t_prev)) * dW
    return _implicit_solve_batch(model, t_next, h, rhs, x_prev)


def em_step(
    model: ModelSpec,
    t_prev: float,
    h: float,
    x_prev: np.ndarray,
    dW: np.ndarray,
) -> np.ndarray:
    """One explicit step from time ``t_prev``; never damps divergence.

    Raises:
        NonFiniteEvaluationError: the drift produced non-finite values at a
            finite state.
    """
    _check_h(h)
    x_prev = np.atleast_1d(np.asarray(x_prev, dtype=np.float64))
    dW = np.atleast_1d(np.asarray(dW, dtype=np.float64))
    return _em_step_batch(model, t_prev % model.period, h, x_prev[None, :], dW[None, :])[0]


def _em_step_batch(
    model: ModelSpec, t_prev: float, h: float, x_prev: np.ndarray, dW: np.ndarray
) -> np.ndarray:
    fx = _drift(model, t_prev, x_prev)
    _check_finite(fx, t_prev)
    return x_prev + h * (-model.eigenvalues * x_prev + fx) + float(model.diffusion(t_prev)) * dW
