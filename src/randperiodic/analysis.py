"""Monte Carlo analysis: strong errors, moments, and empirical measures.

Every routine here is deterministic given its seeds.  Path seeds are derived
from one master seed and each path owns its own noise lattice.  A study is a
list of runs (grid, scheme, recorded nodes) on the same span of time, and
every study makes one call to the runner, ``_run_seeds``: one loop that
takes the paths in blocks of ``DEFAULT_BLOCK_SIZE`` (2048) and walks each
block through time in windows.  A window of the block's increments is read
in one batch and every run of the study advances on it from where the last
window left it.  Blocks are wide because the costs that dominate are paid
per call, not per path: each window's noise read, and each block-step of
the implicit solver.  A path's arithmetic depends neither on its block nor
on the windows, so results are byte-identical for any block size and any
window length.  A path of the explicit scheme that diverged is NaN from its
crossing node on; the runner keeps no other record of it.

Strong errors couple resolutions through the increment lattice: the
reference run reads fine increments, coarse runs read exact sums of the same
increments, and both are compared pathwise at matching grid times.  The
measure study couples each step size with its half the same way.

Results are returned as objects; nothing here writes a file (the CLI writes
the tables and samples as CSV).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import InitialCondition, ModelSpec
from .noise import GridSpec, _read_increments, _sum_steps, _whole, _whole_seed, derive_seeds
from .pullback import (
    SolverSummary, _StepPlan, _check_period, _check_periods, _check_scheme, _drive, _grid_on,
    _merge_stats,
)

# Paths per block.  Per-call costs favour wide blocks: the kernels' overhead,
# the Newton loop's most of all, is paid once per block-step, not per path.
# A Newton step of the benchmark's cubic drift (``measure_cubic``, about 2.6
# iterations a path) takes about 75-85 us at 1 path or 256 and 110-120 us
# at 1280 in the Newton window, most of it the fixed cost of some 30 numpy
# calls an iteration (best of 7 runs of 64 steps).
# Each window's noise read re-keys the generator once per path, at about
# 4 us a path plus 0.03 us a word.  The CLI's default 1000-path order and
# 2000-path measure studies run as one block.  That block's order-study
# windows hold 256 fine steps, and much of its cost is paid per window:
# criterion 5's study took 2.4-3.0 s (60 MiB peak) with ``_WINDOW_WORDS`` at
# 2^18 and 2.1-2.2 s (70 MiB) at 2^20 (three alternating runs each).  Wider
# blocks are slower again, as windows shrink and a block's re-keys grow with
# the square of its paths:
# criterion 8's 5000-path halving study takes about 0.8 s in blocks of 256,
# 0.5 s in blocks of 2048 and 0.55-0.75 s in one block (2-core Xeon,
# Python 3.11).  A study whose coarsest step, taken for every path, would
# not fit in ``_WINDOW_WORDS`` runs in narrower blocks, down to one path, as
# a window holds at least that step.
DEFAULT_BLOCK_SIZE = 2048

# Cap on the fine increments, in words, that a study holds for one block at a
# time; a window is at least one step of the study's coarsest grid.
_WINDOW_WORDS = 1 << 18


@dataclass(frozen=True)
class ErrorRow:
    """Strong error of one step size against the shared-noise reference.

    ``rms_error`` is the root mean square over paths at the evaluation time;
    ``sup_rms_error`` is the largest rms over the grid nodes of the final
    period.  A row is ``diverged`` when any path of the explicit scheme blew
    up at this step size, in which case the errors are NaN.
    """

    h: float
    rms_error: float
    standard_error: float
    sup_rms_error: float
    num_paths: int
    diverged: bool


@dataclass(eq=False)
class ErrorTable:
    """Strong-error rows for one scheme plus the fitted convergence order.

    ``solver_stats`` covers the implicit runs behind the table: the
    reference, and the coarse runs when ``scheme`` is ``"bem"``.
    """

    scheme: str
    h_ref: float
    t_eval: float
    rows: list[ErrorRow]
    fitted_order: float | None = None
    fit_intercept: float | None = None
    solver_stats: SolverSummary = SolverSummary()

    def valid_rows(self) -> list[ErrorRow]:
        """The rows an order fit can use: not diverged, with a positive
        error (a level at ``h_ref`` itself has error 0, whose log2 is not
        finite)."""
        return [r for r in self.rows if not r.diverged and r.rms_error > 0.0]


@dataclass(frozen=True)
class OrderFit:
    """Least-squares line through ``(log2 h, log2 rms_error)``."""

    order: float
    intercept: float
    residuals: np.ndarray


def fit_order(table: ErrorTable) -> OrderFit:
    """Fit the convergence order from the table's :meth:`~ErrorTable.valid_rows`.

    The order is the signed slope in log2-log2 coordinates, so an error that
    halves with the step gives 1.0 and an inverted trend goes negative
    rather than being masked.

    Raises:
        ValueError: fewer than 3 usable rows.
    """
    rows = table.valid_rows()
    if len(rows) < 3:
        raise ValueError(f"order fit needs at least 3 usable rows, got {len(rows)}")
    x = np.log2([r.h for r in rows])
    y = np.log2([r.rms_error for r in rows])
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    return OrderFit(order=float(slope), intercept=float(intercept), residuals=residuals)


def strong_error(
    model: ModelSpec,
    h_ref: float,
    h_list: Sequence[float],
    pullback_periods: int,
    num_paths: int,
    t_eval: float = 0.0,
    seed: int = 0,
    scheme: str | Sequence[str] = "bem",
    init: InitialCondition | None = None,
) -> ErrorTable | tuple[ErrorTable, ...]:
    """Pathwise error of coarse runs against a fine implicit reference.

    Every path gets its own lattice at resolution ``h_ref``.  The reference
    is always the implicit scheme at ``h_ref``; each ``h`` in ``h_list`` is
    run with ``scheme`` on exact sums of the same increments, both pulled
    back from ``t_eval - pullback_periods * tau``.  Errors are compared at
    ``t_eval`` and across the final period.

    ``scheme`` is one name, which returns one :class:`ErrorTable`, or a
    tuple of names, which returns one table per name in that order::

        bem, em = strong_error(..., scheme=("bem", "em"))

    All tables come from one pass: the reference runs once, and each
    window of a path's increments is read once for every run.  A row is
    diverged, and NaN, when any of its paths diverged.  Each table has its
    order fitted over its usable rows (see :meth:`ErrorTable.valid_rows`)
    when at least three are available.
    """
    if len(h_list) == 0:
        raise ValueError("h_list must not be empty")
    schemes = _check_schemes(scheme)
    t_start = t_eval - _check_periods(pullback_periods) * model.period

    ref_grid = _grid_on(model, h_ref, h_ref, t_start, t_eval)
    n_ref = ref_grid.period_steps
    coarse_grids = [_grid_on(model, h_ref, h, t_start, t_eval) for h in h_list]
    if len({g.step_mult for g in coarse_grids}) < len(coarse_grids):
        raise ValueError(f"h_list contains duplicate step sizes: {list(map(float, h_list))!r}")
    # each level's final-period nodes, in reference-grid node indices
    node_sets = [
        ref_grid.count - n_ref + np.arange(g.period_steps + 1) * g.step_mult
        for g in coarse_grids
    ]
    # sorted sets here and below, not np.unique, which imports numpy.ma on first use
    union_nodes = np.array(sorted(set(np.concatenate(node_sets).tolist())), dtype=np.int64)
    ref_cols = [np.searchsorted(union_nodes, nodes) for nodes in node_sets]
    levels = len(coarse_grids)
    runs = [_Run(ref_grid, "bem", union_nodes)] + [
        _Run(g, s, g.count - g.period_steps + np.arange(g.period_steps + 1))
        for s in schemes
        for g in coarse_grids
    ]
    (ref_rec, ref_stats), *outs = _run_seeds(
        model, runs, derive_seeds(seed, num_paths), init
    )

    tables = []
    for j, s in enumerate(schemes):
        mine = outs[j * levels : (j + 1) * levels]
        # a diverged path is NaN from its crossing on, so at t_eval too
        rows = [
            _error_row(h, rec - ref_rec[:, cols, :] if np.isfinite(rec[:, -1]).all() else None,
                       num_paths)
            for h, cols, (rec, _) in zip(h_list, ref_cols, mine)
        ]
        table = ErrorTable(
            scheme=s, h_ref=float(h_ref), t_eval=float(t_eval), rows=rows,
            solver_stats=_merge_stats(ref_stats, *(stats for _, stats in mine)),
        )
        if len(table.valid_rows()) >= 3:
            fit = fit_order(table)
            table.fitted_order = fit.order
            table.fit_intercept = fit.intercept
        tables.append(table)
    return tables[0] if isinstance(scheme, str) else tuple(tables)


def _check_schemes(scheme: str | Sequence[str]) -> tuple[str, ...]:
    names = tuple(_check_scheme(s) for s in ((scheme,) if isinstance(scheme, str) else scheme))
    if not names:
        raise ValueError("scheme must name at least one scheme")
    if len(set(names)) < len(names):
        raise ValueError(f"duplicate scheme in {scheme!r}")
    return names


def _error_row(h: float, diff: np.ndarray | None, num_paths: int) -> ErrorRow:
    """Row of pathwise errors ``diff`` (paths x final-period nodes x d, the
    last node at ``t_eval``); None if diverged."""
    if diff is None:
        return ErrorRow(float(h), math.nan, math.nan, math.nan, num_paths, True)
    sq = np.einsum("ijk,ijk->ij", diff, diff)
    sq_eval = sq[:, -1]
    mean_sq = math.fsum(sq_eval.tolist()) / num_paths
    rms = math.sqrt(mean_sq)
    var_sq = float(np.var(sq_eval, ddof=1))
    se_mean = math.sqrt(var_sq / num_paths)
    se_rms = se_mean / (2.0 * rms) if rms > 0.0 else 0.0
    node_rms = np.sqrt([math.fsum(col) / num_paths for col in sq.T.tolist()])
    return ErrorRow(float(h), rms, se_rms, float(np.max(node_rms)), num_paths, False)


@dataclass(frozen=True, eq=False)
class _Run:
    """One run of a study: its grid, scheme and recorded grid nodes."""

    grid: GridSpec
    scheme: str
    nodes: np.ndarray


@dataclass(frozen=True)
class MomentEstimate:
    """Worst second moment over a grid against the theoretical bound.

    ``bound`` is ``E|xi|^2 + alpha`` with
    ``alpha = (2*C_f + sigma**2) / (2*(lambda_1 - C_f))``; ``within_bound``
    allows three standard errors of slack at the maximizing node.
    ``solver_stats`` summarizes the implicit solves of every path.
    """

    sup_mean_square: float
    standard_error: float
    node_index: int
    time: float
    alpha: float
    bound: float
    within_bound: bool
    num_paths: int
    solver_stats: SolverSummary = SolverSummary()


def moment_estimate(
    model: ModelSpec,
    grid: GridSpec,
    scheme: str,
    init: InitialCondition,
    num_paths: int,
    seed: int = 0,
) -> MomentEstimate:
    """Estimate ``sup_N E|X_N|^2`` over the grid by Monte Carlo.

    Requires declared ``C_f`` and ``sigma`` to form the bound.
    """
    c_f = model.constants.get("C_f")
    sigma = model.constants.get("sigma")
    if c_f is None or sigma is None:
        raise ValueError("moment_estimate requires declared C_f and sigma")
    run = _Run(grid, _check_scheme(scheme), np.arange(grid.count + 1))
    [(states, summary)] = _run_seeds(model, [run], derive_seeds(seed, num_paths), init)
    sq = np.einsum("ijk,ijk->ij", states, states)  # (num_paths, count + 1)
    mean_sq = np.array([math.fsum(col) / num_paths for col in sq.T.tolist()])
    node = int(np.argmax(mean_sq))
    se = math.sqrt(float(np.var(sq[:, node], ddof=1)) / num_paths)
    alpha = (2.0 * c_f + sigma**2) / (2.0 * (model.lambda_min - c_f))
    bound = float(mean_sq[0]) + alpha
    sup = float(mean_sq[node])
    return MomentEstimate(
        sup_mean_square=sup,
        standard_error=se,
        node_index=node,
        time=float(grid.times()[node]),
        alpha=float(alpha),
        bound=bound,
        within_bound=sup <= bound + 3.0 * se,
        num_paths=num_paths,
        solver_stats=summary,
    )


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Samples of the state distribution at one time.

    ``solver_stats`` summarizes the implicit solves behind the samples; the
    measures of one :func:`periodic_measure` call share it.
    """

    t: float
    h: float
    samples: np.ndarray  # (num_samples, d)
    solver_stats: SolverSummary = SolverSummary()

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim == 1:
            samples = samples[:, None]
        if samples.shape[0] < 2:
            raise ValueError("an empirical measure needs at least 2 samples")
        if not np.all(np.isfinite(samples)):
            raise ValueError("empirical measure samples must be finite")
        object.__setattr__(self, "samples", samples)

    @property
    def num_samples(self) -> int:
        return int(self.samples.shape[0])


def periodic_measure(
    model: ModelSpec,
    lattice_seeds: Sequence[int],
    h: float,
    pullback_periods: int,
    t_list: Sequence[float],
    init: InitialCondition | None = None,
) -> list[EmpiricalMeasure]:
    """Empirical laws of the pulled-back state at the requested times.

    One independent lattice of spacing ``h`` per seed; all paths start at
    ``-pullback_periods * tau`` and are recorded at each time in ``t_list``
    by one implicit run.
    """
    if len(t_list) == 0:
        raise ValueError("t_list must not be empty")
    t_start = -_check_periods(pullback_periods) * model.period
    t_arr = [float(t) for t in t_list]
    grid = _grid_on(model, h, h, t_start, max(t_arr))
    nodes = np.array([grid.node_index(t) for t in t_arr], dtype=np.int64)
    if len(set(nodes.tolist())) != nodes.size:
        raise ValueError("t_list contains duplicate times")
    [(rec, summary)] = _run_seeds(model, [_Run(grid, "bem", nodes)], lattice_seeds, init)
    return [
        EmpiricalMeasure(t=t_arr[i], h=float(h), samples=rec[:, i, :].copy(),
                         solver_stats=summary)
        for i in range(len(t_arr))
    ]


def weak_distance(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Upper bound on the dual distance over 1-Lipschitz test functions
    bounded by one, for equal-size scalar samples.

    Pairs order statistics and averages the differences clamped at 2 (the
    diameter of the test class).  Symmetric, zero on identical samples, and
    satisfies the triangle inequality.

    Raises:
        ValueError: multi-dimensional samples or unequal sample counts
            (subsample to a common size first).
    """
    a = mu.samples
    b = nu.samples
    if a.shape[1] != 1 or b.shape[1] != 1:
        raise ValueError("weak_distance supports scalar samples only")
    if a.shape[0] != b.shape[0]:
        raise ValueError(
            f"sample counts differ ({a.shape[0]} vs {b.shape[0]}); subsample to a common size"
        )
    return _w1_sorted(np.sort(a[:, 0]), np.sort(b[:, 0]))


def _w1_sorted(a: np.ndarray, b: np.ndarray) -> float:
    gaps = np.minimum(np.abs(a - b), 2.0)
    return math.fsum(gaps.tolist()) / a.size


def bootstrap_noise_floor(
    measure: EmpiricalMeasure, n_bootstrap: int = 100, seed: int = 0
) -> float:
    """Expected weak distance between two same-law resamples of ``measure``.

    Distances at or below this floor are statistically indistinguishable
    from sampling noise at this sample count.  The seed is taken modulo 2**64.

    Raises:
        ValueError: vector samples, or an ``n_bootstrap`` that is not a whole
            number of at least one (a bool is not one).
    """
    if measure.samples.shape[1] != 1:
        raise ValueError("bootstrap_noise_floor supports scalar samples only")
    n = _whole(n_bootstrap, "n_bootstrap must be a whole number")
    if n < 1:
        raise ValueError(f"n_bootstrap must be >= 1, got {n_bootstrap}")
    rng = np.random.default_rng(_whole_seed(seed))
    values = measure.samples[:, 0]
    m = values.size
    dists = []
    for _ in range(n):
        a = np.sort(rng.choice(values, size=m, replace=True))
        b = np.sort(rng.choice(values, size=m, replace=True))
        dists.append(_w1_sorted(a, b))
    return math.fsum(dists) / len(dists)


@dataclass(frozen=True)
class MeasurePair:
    """Weak distance between runs at ``h`` and ``h_half`` on shared noise."""

    h: float
    h_half: float
    distance: float
    ratio_to_sqrt_h: float


@dataclass(frozen=True)
class MeasureStudy:
    """Distances across step halvings at one evaluation time.

    ``solver_stats`` summarizes the implicit solves of every run behind the
    pairs.
    """

    t: float
    num_paths: int
    pairs: tuple[MeasurePair, ...]
    solver_stats: SolverSummary = SolverSummary()

    def distances(self) -> list[float]:
        return [p.distance for p in self.pairs]

    @property
    def monotone_decreasing(self) -> bool:
        d = self.distances()
        return all(d[i] > d[i + 1] for i in range(len(d) - 1))


def measure_convergence_study(
    model: ModelSpec,
    lattice_seeds: Sequence[int],
    h_list: Sequence[float],
    t: float,
    pullback_periods: int,
    init: InitialCondition | None = None,
) -> MeasureStudy:
    """Distance between empirical laws at ``h`` and ``h/2`` for each ``h``.

    One path per seed in ``lattice_seeds``, as in :func:`periodic_measure`.
    Each halving runs both step sizes on per-path lattices of spacing
    ``h/2``, so the two runs differ only through the scheme's step size, and
    each path's lattice is read once for both.  The same seeds serve every
    halving, which removes sampling noise from the comparison between rows.
    """
    if len(h_list) == 0:
        raise ValueError("h_list must not be empty")
    if model.dimension != 1:  # the check of weak_distance, made before simulating
        raise ValueError(f"measure_convergence_study supports scalar models only, "
                         f"got dimension {model.dimension}")
    t_start = -_check_periods(pullback_periods) * model.period
    rows = []
    stats = []
    for h in map(float, h_list):
        grids = [_grid_on(model, h / 2.0, step, t_start, t) for step in (h, h / 2.0)]
        outs = _run_seeds(model, [_Run(g, "bem", np.array([g.count])) for g in grids],
                          lattice_seeds, init)
        dist = weak_distance(*(
            EmpiricalMeasure(t=float(t), h=g.h, samples=rec[:, 0, :])
            for g, (rec, _) in zip(grids, outs)
        ))
        rows.append(MeasurePair(h, h / 2.0, dist, dist / math.sqrt(h)))
        stats += [summary for _, summary in outs]
    return MeasureStudy(t=float(t), num_paths=len(lattice_seeds), pairs=tuple(rows),
                        solver_stats=_merge_stats(*stats))


def _run_seeds(
    model: ModelSpec,
    runs: list[_Run],
    seeds: Sequence[int],
    init: InitialCondition | None = None,
) -> list[tuple[np.ndarray, SolverSummary]]:
    """Run one path per seed through every run of a study, reading the noise once.

    The runs span the same times on grids of one lattice spacing.  Path
    ``p`` starts from ``init`` (default zero) resolved for ``seeds[p]`` and
    reads its own lattice.  Seeds are whole numbers, reduced modulo 2**64 as
    :class:`NoiseLattice` reduces them.  The paths go in blocks of
    ``DEFAULT_BLOCK_SIZE``, fewer when one step of the coarsest grid would
    not fit ``_WINDOW_WORDS`` for the block.  Each block walks the span in
    windows of whole steps at every grid, each holding at most
    ``_WINDOW_WORDS`` fine increments for the block, or one step of the
    coarsest grid when that is more.  Per window the block's fine increments
    are read in one batch, and every run advances on their sums over its own
    steps from the state it ended the last window in.

    Returns one ``(recorded, summary)`` per run, covering all paths: the
    states at the run's ``nodes``, in their order, NaN from the node at
    which a path diverged, and the run's solver summary.  Neither the block
    size nor the window length changes any of them.

    Raises:
        ValueError: fewer than 2 seeds, or a seed that is not a whole number.
        AlignmentError: a run's grid period is not the model's.
    """
    seeds = _path_seeds(seeds)
    for run in runs:
        _check_period(model, run.grid)
    # one step plan per grid, for every block and window of the runs on it
    plans = {grid: _StepPlan(model, grid) for grid in dict.fromkeys(r.grid for r in runs)}
    run_plans = [plans[r.grid] for r in runs]
    init = init if init is not None else InitialCondition(value=np.zeros(model.dimension))
    first, d = runs[0].grid, model.dimension
    # a fixed start is the same for every seed: checked once, not once per path
    fixed = init.resolve(seeds[0], d) if init.value is not None else None
    f_start, f_count = first.start_index * first.step_mult, first.count * first.step_mult
    lcm = math.lcm(*(r.grid.step_mult for r in runs))
    size = max(1, min(DEFAULT_BLOCK_SIZE, _WINDOW_WORDS // (d * lcm)))
    recorded = [np.full((len(seeds), r.nodes.size, d), np.nan) for r in runs]
    summaries = [SolverSummary()] * len(runs)
    # the runs of one step multiple share each window's sums of the increments
    groups: dict[int, list[int]] = {}
    for i, run in enumerate(runs):
        groups.setdefault(run.grid.step_mult, []).append(i)
    for b0 in range(0, len(seeds), size):
        block = seeds[b0 : b0 + size]
        start = (np.tile(fixed, (len(block), 1)) if fixed is not None
                 else np.stack([init.resolve(s, d) for s in block]))
        states = [start] * len(runs)
        span = min(f_count, max(lcm, _WINDOW_WORDS // (len(block) * d) // lcm * lcm))
        for f0 in range(0, f_count, span):
            width = min(span, f_count - f0)
            fine = _read_increments(block, f_start + f0, width, first.base_step, d)
            for m, members in groups.items():
                dw = _sum_steps(fine, m)
                n0, count = f0 // m, width // m
                for i in members:
                    run = runs[i]
                    out, summary = _drive(model, run.grid._steps(n0, count), run.scheme,
                                          states[i], dw, run_plans[i])
                    summaries[i] = _merge_stats(summaries[i], summary)
                    inside = (run.nodes >= n0) & (run.nodes <= n0 + count)
                    recorded[i][b0 : b0 + len(block), inside] = out[:, run.nodes[inside] - n0]
                    # a copy, so that the window's buffer of every node can be freed
                    states[i] = out[:, -1].copy()
                del dw, out  # freed before the next group's sums are formed
    return list(zip(recorded, summaries))


def _path_seeds(seeds: Sequence[int]) -> list[int]:
    """``seeds`` as ints modulo 2**64; at least two, each a whole number."""
    arr = np.asarray(seeds, dtype=object)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(f"a study needs at least 2 path seeds, got shape {arr.shape}")
    return [_whole_seed(s) for s in arr.tolist()]
