"""Path simulation and pull-back constructions of random periodic solutions.

A random periodic solution is reached by *pull-back*: start the scheme far in
the past at ``-k * tau`` and integrate forward on a fixed realization of the
noise.  The spectral gap makes any two starting states contract against each
other at a known geometric envelope, so after enough whole periods the
trajectory on the window of interest no longer depends on the starting state;
what remains is the random periodic path of that noise realization.

Time never accumulates through floating-point addition here.  Grid nodes are
integer indices, coefficient times are computed from ``(index mod n) * h``
with ``n`` steps per period, and period shifts of the noise are integer
offsets into the lattice.  Two runs that the shift identity says should agree
therefore see bitwise-identical inputs at every step and produce
bitwise-identical trajectories.

Every run goes through one path-batch engine, :func:`_drive`, which returns
the state of every path at every grid node; callers index the nodes they
need.  Its coefficients come from the run's step plan, :class:`_StepPlan`,
which evaluates the diffusion and the forcing once per residue ``a mod n``
when the run starts, and never changes after; a run that calls
:func:`_drive` many times (a study's blocks and windows, the pinned
pull-back's steps) builds one plan and passes it to each call.
:func:`_drive` is one loop over chunks of ``_STEP_CHUNK`` steps for both
schemes, with no loop over steps: each chunk is one window call that fills
the chunk's states from its first, in the per-step kernel's order of
operations.  The explicit scheme on any drift and the implicit scheme on an
affine one read the chunk's increments laid out once step-major; the
implicit scheme on any other drift takes the Newton window, which forms
each step's increment as it goes.  No bit depends on the chunk length.  A
path of the explicit scheme that diverges is NaN from its crossing node on,
and that NaN is the only record of it.  Nothing here writes a file; the CLI
writes trajectories as CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import InitialCondition, ModelSpec, PolyTrigDrift
from .noise import (
    _ALIGN_TOL, AlignmentError, GridSpec, NoiseLattice, _check_alignment, _whole,
    coarse_increments, shift,
)
# _bem_step_batch and _em_step_batch are unused here: perfbench/tracer.py wraps
# them under this module's name
from .stepper import (
    _affine_bound, _affine_plan, _affine_steps, _bem_step_batch, _em_step_batch, _em_steps,
    _newton_steps,
)

DIVERGENCE_THRESHOLD = 1e12

# Steps per chunk of :func:`_drive`, for every scheme.  Each of a chunk's few
# buffers holds paths x chunk x d numbers.  Timed in-process on a 2-core Xeon,
# on the order study (256 paths, 0.12-0.17 s) and on the pinned pull-back with
# its shift check (9-16 ms; a pinned step is a call of one step, so only the
# shift check's two 3840-step runs take whole chunks), 64 to 512 steps run
# equally fast within the host's noise, and 32 is slower on the pinned
# pull-back.
_STEP_CHUNK = 128

# Contraction envelope below which the default pull-back depth has forgotten
# its starting state.
ENVELOPE_TARGET = 1e-8

SCHEMES = ("bem", "em")


@dataclass(frozen=True)
class SolverSummary:
    """Aggregate implicit-solver statistics over a whole run.

    ``max_residual`` is the largest residual norm of any solve; for the
    closed-form steps of an affine drift it is the proven bound that
    :func:`~randperiodic.stepper._affine_steps` reports.
    """

    max_newton_iters: int = 0
    max_residual: float = 0.0
    any_fallback: bool = False


def _merge_stats(*parts: SolverSummary) -> SolverSummary:
    """One summary covering every run behind ``parts``."""
    return SolverSummary(
        max((s.max_newton_iters for s in parts), default=0),
        max((s.max_residual for s in parts), default=0.0),
        any(s.any_fallback for s in parts),
    )


@dataclass(frozen=True, eq=False)
class PathResult:
    """One simulated trajectory on a grid.

    ``states`` has shape ``(grid.count + 1, d)`` with ``states[0]`` equal to
    the initial condition.  All entries are finite unless ``scheme == "em"``
    and the path diverged, in which case entries from ``diverged_at`` on are
    NaN.  ``diverged`` and ``diverged_at`` are read from ``states``.
    """

    grid: GridSpec
    states: np.ndarray
    scheme: str
    seed: int
    solver_stats: SolverSummary

    @property
    def times(self) -> np.ndarray:
        return self.grid.times()

    @property
    def diverged_at(self) -> int | None:
        """The first node whose state is not finite, or None."""
        bad = np.flatnonzero(~np.isfinite(self.states).all(axis=1))
        return int(bad[0]) if bad.size else None

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None

    def state_at(self, t: float) -> np.ndarray:
        """State at grid time ``t`` (must be a node)."""
        return self.states[self.grid.node_index(t)]


def make_grid(
    model: ModelSpec, lattice: NoiseLattice, h: float, t_start: float, t_end: float
) -> GridSpec:
    """Build a grid with step ``h`` covering ``[t_start, t_end]``.

    All three ratios ``h / base_step``, ``period / h`` and ``t_start / h``
    must be whole numbers; violations raise :class:`AlignmentError` naming
    the failing ratio.  A step ``h`` that is not positive and finite raises
    ValueError before any ratio is formed.
    """
    return _grid_on(model, lattice.base_step, h, t_start, t_end)


def _grid_on(
    model: ModelSpec, base_step: float, h: float, t_start: float, t_end: float
) -> GridSpec:
    """:func:`make_grid` for lattices of spacing ``base_step`` not yet built."""
    _check_step(h)
    mult = _int_ratio(h, base_step, "h / lattice base_step")
    n = _int_ratio(model.period, h, "period / h")
    start = _int_ratio(t_start, h, "t_start / h")
    count = _int_ratio(t_end - t_start, h, "(t_end - t_start) / h")
    if count < 1:
        raise ValueError(f"t_end must lie at least one step after t_start, got [{t_start}, {t_end}]")
    return GridSpec(
        start_index=start, step_mult=mult, count=count, period_steps=n, base_step=base_step,
    )


def _check_step(h: float) -> None:
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"step size h must be positive and finite, got {h!r}")


def _int_ratio(num: float, den: float, what: str) -> int:
    ratio = num / den
    if not math.isfinite(ratio):
        raise AlignmentError(f"{what} = {ratio!r} is not finite")
    r = round(ratio)
    if abs(ratio - r) > _ALIGN_TOL * max(1.0, abs(ratio)):
        raise AlignmentError(f"{what} = {ratio!r} is not a whole number")
    return int(r)


def _validate_run(model: ModelSpec, grid: GridSpec, lattice: NoiseLattice) -> None:
    if lattice.dimension != model.dimension:
        raise ValueError(
            f"lattice dimension {lattice.dimension} does not match model dimension {model.dimension}"
        )
    _check_alignment(lattice, grid)
    _check_period(model, grid)


def _check_period(model: ModelSpec, grid: GridSpec) -> None:
    tau = grid.period_steps * grid.h
    if abs(tau - model.period) > _ALIGN_TOL * max(1.0, model.period):
        raise AlignmentError(
            f"period_steps * h = {tau!r} does not equal the model period {model.period!r}"
        )


def _check_periods(pullback_periods: int, minimum: int = 1) -> int:
    """``pullback_periods`` as an int: a whole number of at least ``minimum``."""
    k = _whole(pullback_periods, "pullback_periods must be a whole number")
    if k < minimum:
        raise ValueError(f"pullback_periods must be >= {minimum}, got {pullback_periods}")
    return k


def _check_scheme(scheme: str) -> str:
    s = scheme.lower()
    if s not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    return s


class _StepPlan:
    """Every coefficient of a run's steps, tabulated once by residue.

    Node ``a`` of a grid with ``n`` steps of ``h`` per period is at time
    ``t_a = (a mod n)*h``, so each coefficient of a step takes one of ``n``
    values.  A plan built for a grid tabulates, over the residues of the
    grid's nodes, the time ``t_a`` and ``g(t_a)``; for an exact
    :class:`PolyTrigDrift` also ``F(t_a)``; and for an affine one also
    ``h*(p0 + F(t_a))``, with the closed-form divisor and
    :func:`~randperiodic.stepper._affine_bound` over those terms.  Each
    value comes from the call a step would make, once, so a step reads the
    bits it would compute.  The rows of a grid spanning a period repeat it
    far enough for a chunk from any residue; a shorter grid's hold only its
    nodes.  Built whole, the plan never changes, and serves any grid of the
    same ``h`` and ``n`` whose nodes it holds.
    """

    def __init__(self, model: ModelSpec, grid: GridSpec) -> None:
        n, h = grid.period_steps, grid.h
        self.n, self._first = n, grid.start_index % n
        times = [((self._first + i) % n) * h for i in range(min(grid.count + 1, n))]
        rows = [times, [float(model.diffusion(t)) for t in times]]
        if type(model.drift) is PolyTrigDrift:
            rows.append([model.drift._forcing(t) for t in times])
        affine = _affine_plan(model, h)
        self.affine = affine is not None
        if self.affine:
            p0, self.divisor = affine
            rows.append([h * (p0 + f) for f in rows[2]])
            self.bound = _affine_bound(self.divisor, float(np.abs(rows[3]).max()))
        if len(times) == n:  # an entry is the same residue in every period
            size = n + _STEP_CHUNK + 1
            rows = [(row * -(-size // n))[:size] for row in rows]
        self.times, g, *forcing = rows
        self.g = np.array(g)  # an array: it multiplies increments
        self.forcing = forcing[0] if forcing else None
        self.affine_forcing = forcing[1] if self.affine else None

    def offset(self, a: int, count: int) -> int:
        """Where the rows hold grid node ``a``, followed by the ``count - 1``
        nodes after it."""
        k = (a - self._first) % self.n
        if k + count > len(self.times):
            raise ValueError(f"nodes {a} to {a + count - 1} are not in the step plan")
        return k


def _drive(
    model: ModelSpec,
    grid: GridSpec,
    scheme: str,
    x0: np.ndarray,
    dw: np.ndarray,
    plan: _StepPlan | None = None,
):
    """Advance a batch of paths over the grid.

    ``dw[p, i]`` is the increment of path ``p`` over grid step ``i``, so
    ``dw`` has shape ``(paths, grid.count, d)``; paths on one noise
    realization may share a broadcast row.  Under the explicit scheme a path
    whose norm crosses ``DIVERGENCE_THRESHOLD`` (or turns non-finite) is NaN
    from that node on, whatever steps past it compute; a row of ``x0`` that
    is not finite is a path that diverged before this grid.  The implicit
    scheme raises :class:`~randperiodic.stepper.NonFiniteEvaluationError`
    instead.

    Every coefficient comes from ``plan``, the run's :class:`_StepPlan` for
    this grid's step and period; without one, a plan for this grid is built
    here.  One loop runs the grid in chunks of ``_STEP_CHUNK`` steps, each
    reading its times and coefficients from the plan as one slice and
    writing its states into one buffer of every node.  Each chunk is one
    window call, which fills the chunk's slice ``z`` of the buffer from
    ``z[0]``.  The explicit scheme takes
    :func:`~randperiodic.stepper._em_steps` on any drift, which finds the
    chunk's crossings after its steps.  The implicit scheme takes
    :func:`~randperiodic.stepper._affine_steps` on an affine drift, and
    :func:`~randperiodic.stepper._newton_steps` on any other.  The first two
    read the chunk's ``g(t_j)*dw`` step-major, shape ``(steps, paths, d)``;
    the Newton window reads the chunk's ``dw`` as it is and forms each
    step's ``g(t_j)*dw`` in turn.

    Returns ``(states, summary)`` where ``states[p, i]`` is the state of path
    ``p`` at grid node ``i``, shape ``(paths, grid.count + 1, d)``.  Batch
    composition does not affect any path's arithmetic, so identical inputs
    give identical outputs for any partition of the paths into batches.
    """
    if plan is None:
        plan = _StepPlan(model, grid)
    h, a0 = grid.h, grid.start_index
    newton = scheme == "bem" and not plan.affine
    max_iters, max_resid, any_fb = 0, 0.0, False
    buf = np.empty((grid.count + 1,) + x0.shape)  # buf[i] is the batch at node i
    buf[0] = x0
    for c0 in range(0, grid.count, _STEP_CHUNK):
        steps = min(_STEP_CHUNK, grid.count - c0)
        # entry k + j of the plan's rows is node a0 + c0 + j; step j of the
        # chunk runs from it to the next
        k = plan.offset(a0 + c0, steps + 1)
        t = plan.times[k : k + steps + 1]
        z = buf[c0 : c0 + steps + 1]  # z[j] is the batch after step j of the chunk
        if newton:
            iters, resid, fb = _newton_steps(
                model, h, t[1:], z, dw[:, c0 : c0 + steps], plan.g[k : k + steps].tolist(),
                None if plan.forcing is None else plan.forcing[k + 1 : k + steps + 1])
        else:
            # inc[j] = g(t_j)*dw of step j, step-major for the windows' loops over steps
            inc = np.multiply(plan.g[k : k + steps, None, None],
                              dw[:, c0 : c0 + steps].swapaxes(0, 1), order="C")
            if scheme == "em":
                _em_steps(model, h, t[:-1], z, inc, DIVERGENCE_THRESHOLD,
                          None if plan.forcing is None else plan.forcing[k : k + steps])
                continue
            resid = _affine_steps(z, inc, plan.affine_forcing[k + 1 : k + steps + 1],
                                  plan.divisor, t[1:], plan.bound)
            iters, fb = 1, False
        max_iters, max_resid, any_fb = max(max_iters, iters), max(max_resid, resid), any_fb or fb

    return buf.swapaxes(0, 1), SolverSummary(max_iters, max_resid, any_fb)


def simulate(
    model: ModelSpec,
    grid: GridSpec,
    scheme: str,
    init: InitialCondition,
    lattice: NoiseLattice,
) -> PathResult:
    """Run one path of the chosen scheme over the grid.

    The implicit scheme completes on any grid satisfying the model
    assumptions.  The explicit scheme may diverge at large steps; a path
    whose norm exceeds ``1e12`` (or turns non-finite) is truncated, the
    remaining states are NaN, and ``diverged`` reports it instead of an
    exception.

    Raises:
        AlignmentError: grid/lattice/period misalignment.
        NonConvergenceError: the implicit solve failed (with step context).
    """
    return _simulate(model, grid, _check_scheme(scheme), init, lattice)


def _simulate(
    model: ModelSpec,
    grid: GridSpec,
    scheme: str,
    init: InitialCondition,
    lattice: NoiseLattice,
    plan: _StepPlan | None = None,
) -> PathResult:
    """:func:`simulate` of a checked scheme name, on the step plan ``plan``
    when given."""
    _validate_run(model, grid, lattice)
    x0 = init.resolve(lattice.seed, model.dimension)[None, :]
    dw = coarse_increments(lattice, grid, grid.start_index, grid.count)
    states, summary = _drive(model, grid, scheme, x0, dw[None], plan)
    return PathResult(
        grid=grid, states=states[0], scheme=scheme, seed=lattice.seed, solver_stats=summary,
    )


@dataclass(frozen=True, eq=False)
class CoalescenceReport:
    """Distance of two same-noise runs against the contraction envelope."""

    grid: GridSpec
    distances: np.ndarray
    envelope: np.ndarray
    threshold: float
    first_below: int | None
    path_a: PathResult
    path_b: PathResult

    @property
    def times(self) -> np.ndarray:
        return self.grid.times()


def coalescence(
    model: ModelSpec,
    grid: GridSpec,
    init_a: InitialCondition,
    init_b: InitialCondition,
    lattice: NoiseLattice,
    threshold: float = 1e-6,
) -> CoalescenceReport:
    """Run the implicit scheme from two starting states on shared noise.

    Reports the pathwise distance series, the geometric envelope
    ``(1 + 2h(lambda_1 - C_f))**(-N/2) * |D_0|`` it must stay under, and the
    first node where the distance drops below ``threshold``, which must be
    finite and positive.
    """
    rho = _contraction_rate(model, grid.h, "coalescence")
    _check_threshold(threshold)
    path_a = simulate(model, grid, "bem", init_a, lattice)
    path_b = simulate(model, grid, "bem", init_b, lattice)
    dist = np.linalg.norm(path_a.states - path_b.states, axis=1)
    steps = np.arange(grid.count + 1)
    envelope = rho ** (-steps / 2.0) * dist[0]
    below = np.nonzero(dist < threshold)[0]
    return CoalescenceReport(
        grid=grid,
        distances=dist,
        envelope=envelope,
        threshold=float(threshold),
        first_below=int(below[0]) if below.size else None,
        path_a=path_a,
        path_b=path_b,
    )


def _check_threshold(threshold: float) -> None:
    if not (math.isfinite(threshold) and threshold > 0.0):
        raise ValueError(f"threshold must be finite and positive, got {threshold}")


def _contraction_rate(model: ModelSpec, h: float, what: str) -> float:
    """``1 + 2h(lambda_1 - C_f)``, for a positive and finite ``h``; ``what``
    names the caller when the model declares no ``C_f``."""
    c_f = model.constants.get("C_f")
    if c_f is None:
        raise ValueError(f"{what} requires the model to declare C_f")
    _check_step(h)
    return 1.0 + 2.0 * h * (model.lambda_min - c_f)


def default_pullback_periods(model: ModelSpec, h: float) -> int:
    """Smallest whole number of periods at which the contraction envelope
    ``(1 + 2h(lambda_1 - C_f))**(-N/2)`` falls below ``ENVELOPE_TARGET``."""
    rho = _contraction_rate(model, h, "default pull-back depth")
    steps = 2.0 * math.log(1.0 / ENVELOPE_TARGET) / math.log(rho)
    per_period = model.period / h
    return max(1, math.ceil(steps / per_period))


def random_periodic_path(
    model: ModelSpec,
    lattice: NoiseLattice,
    h: float,
    pullback_periods: int | None = None,
    horizon: tuple[float, float] = (0.0, 1.0),
    scheme: str = "bem",
    init: InitialCondition | None = None,
) -> PathResult:
    """Pull-back approximation of the random periodic path on ``horizon``.

    Integrates from ``-pullback_periods * tau`` (default: deep enough that
    the contraction envelope is below 1e-8) and returns the trajectory
    restricted to ``horizon``.  The starting state (zeros by default) only
    matters below the envelope's magnitude.
    """
    k = (default_pullback_periods(model, h) if pullback_periods is None
         else _check_periods(pullback_periods))
    t0, t1 = horizon
    start = -k * model.period
    if t0 < start - 1e-12 or t1 <= t0:
        raise ValueError(f"horizon {horizon} must satisfy -k*tau <= t0 < t1")
    grid = make_grid(model, lattice, h, start, t1)
    x0 = init if init is not None else InitialCondition(value=np.zeros(model.dimension))
    full = simulate(model, grid, scheme, x0, lattice)
    i0 = grid.node_index(t0)
    return replace(
        full, grid=make_grid(model, lattice, h, t0, t1), states=full.states[i0:].copy())


@dataclass(frozen=True, eq=False)
class ShiftPeriodicityReport:
    """Outcome of the one-period shift identity check.

    ``path_shifted`` starts ``k`` periods back and reads the noise through a
    one-period shift; ``path_reference`` starts ``k - 1`` periods back on the
    unshifted noise.  Node for node the two runs see identical inputs, so
    ``max_discrepancy`` is zero up to solver determinism.
    """

    max_discrepancy: float
    pullback_periods: int
    path_shifted: PathResult
    path_reference: PathResult


def verify_shift_periodicity(
    model: ModelSpec,
    lattice: NoiseLattice,
    h: float,
    pullback_periods: int = 30,
    init: InitialCondition | None = None,
) -> ShiftPeriodicityReport:
    """Check the defining identity of a random periodic path numerically.

    The path started at ``-k*tau`` under noise shifted by one period,
    evaluated ``tau`` earlier, must equal the path started at ``-(k-1)*tau``
    under the original noise.  Both runs use the same starting state, and
    one step plan: each spans whole periods.
    """
    k = _check_periods(pullback_periods, 2)
    grid_a = make_grid(model, lattice, h, -k * model.period, 0.0)
    lat_shifted = shift(lattice, grid_a, grid_a.period_steps)
    grid_b = make_grid(model, lattice, h, -(k - 1) * model.period, model.period)
    x0 = init if init is not None else InitialCondition(value=np.zeros(model.dimension))
    plan = _StepPlan(model, grid_a)
    path_a = _simulate(model, grid_a, "bem", x0, lat_shifted, plan)
    path_b = _simulate(model, grid_b, "bem", x0, lattice, plan)
    disc = float(np.max(np.linalg.norm(path_a.states - path_b.states, axis=1)))
    return ShiftPeriodicityReport(
        max_discrepancy=disc,
        pullback_periods=k,
        path_shifted=path_a,
        path_reference=path_b,
    )


@dataclass(frozen=True, eq=False)
class PinnedPullbackResult:
    """Value at time 0 as a function of the pull-back depth.

    ``values[i]`` is the state at time 0 of the run started at ``-depths[i]``
    (depth 0 is the starting state itself).  All depths read one noise
    realization, so the curve converges to the random periodic value pinned
    at time 0 as the depth grows.  ``diverged_depths`` lists indices whose
    run blew up (explicit scheme only); their values are NaN.
    """

    depths: np.ndarray
    values: np.ndarray
    scheme: str
    seed: int
    solver_stats: SolverSummary
    diverged_depths: np.ndarray


def pullback_pinned_path(
    model: ModelSpec,
    lattice: NoiseLattice,
    h: float,
    r_max: float,
    init: InitialCondition | None = None,
    scheme: str = "bem",
) -> PinnedPullbackResult:
    """Map each depth ``r`` to the value at time 0 pulled back through ``r``.

    For every grid depth ``r`` in ``(0, r_max]`` the scheme runs from time
    ``-r`` to 0 on the shared lattice, and the state at time 0 is recorded;
    each value equals its own pull-back from ``-r``.  All depths advance as
    one growing batch over the grid ``[-r_max, 0]``: before the step from
    time ``-r``, the run of depth ``r`` joins the batch at the starting
    state, and each step advances every run that has joined on the same
    increment.  As ``r`` grows the recorded values contract onto a single
    point, which makes the convergence of the pull-back visible directly.
    Each step is one :func:`_drive` call on one step plan for the grid.
    """
    scheme = _check_scheme(scheme)
    _check_step(h)
    steps_total = _int_ratio(r_max, h, "r_max / h")
    if steps_total < 1:
        raise ValueError(f"r_max must be at least one step, got {r_max}")
    grid = make_grid(model, lattice, h, -steps_total * h, 0.0)
    _validate_run(model, grid, lattice)
    x0 = init if init is not None else InitialCondition(value=np.zeros(model.dimension))
    x0_vec = x0.resolve(lattice.seed, model.dimension)

    dw = coarse_increments(lattice, grid, grid.start_index, grid.count)
    # shared[i, p] is step i's increment, for every row p of the batch
    shared = np.broadcast_to(dw[:, None, None], (steps_total, steps_total, 1, dw.shape[1]))
    plan = _StepPlan(model, grid)
    # row j is the run of depth steps_total - j; it joins before step j
    x = np.tile(x0_vec, (steps_total + 1, 1))
    stats = []
    for i in range(steps_total):
        out, summary = _drive(
            model, grid._steps(i, 1), scheme, x[: i + 1], shared[i, : i + 1], plan)
        x[: i + 1] = out[:, -1]
        stats.append(summary)
    values = x[::-1]
    return PinnedPullbackResult(
        depths=np.arange(steps_total + 1) * h,
        values=values,
        scheme=scheme,
        seed=lattice.seed,
        solver_stats=_merge_stats(*stats),
        # a diverged run stays NaN through every later step
        diverged_depths=np.flatnonzero(~np.isfinite(values).all(axis=1)),
    )
