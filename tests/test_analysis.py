"""Tests for error tables, order fitting, moments, and empirical measures."""

import contextlib
import json
import math
import pickle
import re
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from randperiodic import analysis
from randperiodic.analysis import (
    EmpiricalMeasure,
    ErrorRow,
    ErrorTable,
    MeasurePair,
    MeasureStudy,
    bootstrap_noise_floor,
    fit_order,
    measure_convergence_study,
    moment_estimate,
    periodic_measure,
    strong_error,
    weak_distance,
)
from randperiodic.model import (
    ConstantDiffusion,
    InitialCondition,
    ModelSpec,
    PolyTrigDrift,
    builtin_benchmark,
    model_from_config,
    with_diffusion_amplitude,
)
from randperiodic.noise import AlignmentError, GridSpec, NoiseLattice, derive_seeds
from randperiodic.pullback import (
    SolverSummary, _grid_on, _merge_stats, make_grid, random_periodic_path, simulate,
    verify_shift_periodicity,
)


def _row(h, rms, diverged=False):
    return ErrorRow(h=h, rms_error=rms, standard_error=0.0, sup_rms_error=rms,
                    num_paths=10, diverged=diverged)


class TestFitOrder:
    def test_recovers_planted_slope(self):
        hs = [2.0**-k for k in range(3, 9)]
        rows = [_row(h, 0.37 * h**0.5) for h in hs]
        table = ErrorTable(scheme="bem", h_ref=2.0**-12, t_eval=0.0, rows=rows)
        fit = fit_order(table)
        assert fit.order == pytest.approx(0.5, abs=1e-12)
        assert 2.0**fit.intercept == pytest.approx(0.37, rel=1e-10)
        assert np.max(np.abs(fit.residuals)) < 1e-12

    def test_signed_slope_is_not_masked(self):
        # An inverted trend must come out negative, not absolute-valued.
        hs = [2.0**-k for k in range(3, 7)]
        rows = [_row(h, 0.1 / h) for h in hs]
        table = ErrorTable(scheme="bem", h_ref=2.0**-12, t_eval=0.0, rows=rows)
        assert fit_order(table).order == pytest.approx(-1.0, abs=1e-12)

    def test_diverged_rows_are_excluded(self):
        hs = [2.0**-k for k in range(3, 7)]
        rows = [_row(h, 2.0 * h) for h in hs]
        with_bad = rows + [_row(0.25, float("nan"), diverged=True)]
        table = ErrorTable(scheme="em", h_ref=2.0**-12, t_eval=0.0, rows=with_bad)
        assert fit_order(table).order == pytest.approx(1.0, abs=1e-12)

    def test_needs_three_rows(self):
        table = ErrorTable(scheme="bem", h_ref=2.0**-12, t_eval=0.0,
                           rows=[_row(0.1, 0.01), _row(0.05, 0.005)])
        with pytest.raises(ValueError, match="at least 3"):
            fit_order(table)

    def test_zero_error_rows_are_excluded(self):
        # a level at h_ref has error 0, whose log2 is -inf: it is skipped as
        # a diverged row is
        hs = [2.0**-k for k in range(3, 7)]
        rows = [_row(h, 2.0 * h) for h in hs]
        table = ErrorTable(scheme="bem", h_ref=2.0**-7, t_eval=0.0,
                           rows=rows + [_row(2.0**-7, 0.0)])
        assert table.valid_rows() == rows
        assert fit_order(table).order == pytest.approx(1.0, abs=1e-12)
        table.rows = rows[:2] + [_row(2.0**-7, 0.0)]
        with pytest.raises(ValueError, match="at least 3 usable rows, got 2"):
            fit_order(table)


class TestStrongError:
    def test_noise_free_reference_convergence(self):
        # sigma = 0 removes all sampling noise: the standard error is zero,
        # the error falls monotonically, and the implicit scheme shows its
        # deterministic first-order bias.
        m = with_diffusion_amplitude(builtin_benchmark(), 0.0)
        table = strong_error(
            m, h_ref=2.0**-10, h_list=[2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7],
            pullback_periods=2, num_paths=4, seed=0,
        )
        errs = [r.rms_error for r in table.rows]
        assert all(e > 0 for e in errs)
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert all(r.standard_error == 0.0 for r in table.rows)
        assert 0.8 <= table.fitted_order <= 1.2
        # every path is identical, so sup over the final period matches the
        # curve maximum and exceeds the value at t_eval
        assert all(r.sup_rms_error >= r.rms_error for r in table.rows)

    def test_em_divergence_marks_row(self):
        m = builtin_benchmark()
        table = strong_error(
            m, h_ref=2.0**-8, h_list=[2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6],
            pullback_periods=5, num_paths=8, seed=1, scheme="em",
        )
        assert table.rows[0].diverged
        assert math.isnan(table.rows[0].rms_error)
        assert not any(r.diverged for r in table.rows[1:])
        assert table.fitted_order is not None  # fitted on the 3 clean rows

    def test_unknown_scheme_raises(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            strong_error(builtin_benchmark(), h_ref=2.0**-8, h_list=[2.0**-4],
                         pullback_periods=1, num_paths=4, scheme="implicit")

    def test_alignment_validation(self):
        m = builtin_benchmark()
        with pytest.raises(Exception):
            strong_error(m, h_ref=2.0**-8, h_list=[0.3], pullback_periods=1,
                         num_paths=4)
        with pytest.raises(ValueError):
            strong_error(m, h_ref=2.0**-8, h_list=[], pullback_periods=1, num_paths=4)
        with pytest.raises(ValueError):
            strong_error(m, h_ref=2.0**-8, h_list=[2.0**-4], pullback_periods=0,
                         num_paths=4)

    def test_level_at_h_ref_is_not_fitted(self):
        # the row at h_ref is the reference itself: error 0, left out of the
        # fit, which then has too few rows (a log2(0) would warn, an error here)
        table = strong_error(builtin_benchmark(), 2.0**-8, [2.0**-4, 2.0**-6, 2.0**-8], 1, 8,
                             scheme="bem")
        assert table.rows[2].rms_error == 0.0 and not table.rows[2].diverged
        assert table.valid_rows() == table.rows[:2]
        assert table.fitted_order is None and table.fit_intercept is None

    def test_numpy_h_list(self):
        m = builtin_benchmark()
        h_list = [2.0**-4, 2.0**-5, 2.0**-6]
        want = strong_error(m, 2.0**-8, h_list, 1, 4, scheme="bem")
        got = strong_error(m, 2.0**-8, np.array(h_list), 1, 4, scheme="bem")
        assert got.rows == want.rows and got.fitted_order == want.fitted_order
        with pytest.raises(ValueError, match="h_list must not be empty"):
            strong_error(m, 2.0**-8, np.array([]), 1, 4)
        with pytest.raises(ValueError, match=re.escape("step sizes: [0.0625, 0.0625]")):
            strong_error(m, 2.0**-8, np.array([2.0**-4, 2.0**-4]), 1, 4)

    @pytest.mark.parametrize("h_list", [
        [2.0**-4, 2.0**-4, 2.0**-5],
        [2.0**-5, 2.0**-4, 2.0**-4 * (1.0 + 1e-12)],
    ])
    def test_duplicate_step_sizes_raise(self, h_list):
        with pytest.raises(ValueError, match="duplicate step sizes"):
            strong_error(builtin_benchmark(), h_ref=2.0**-8, h_list=h_list,
                         pullback_periods=1, num_paths=4)


class TestMomentEstimate:
    def test_benchmark_within_bound(self):
        m = builtin_benchmark()
        lat_step = 2.0**-6
        grid = GridSpec(start_index=0, step_mult=1, count=128, period_steps=64,
                        base_step=lat_step)
        est = moment_estimate(m, grid, "bem", InitialCondition(value=[0.0]),
                              num_paths=400, seed=0)
        alpha_expect = (2.0 * 0.5 + 0.05**2) / (2.0 * (10.0 * math.pi - 0.5))
        assert est.alpha == pytest.approx(alpha_expect, rel=1e-12)
        assert est.bound == pytest.approx(alpha_expect, rel=1e-12)  # |xi| = 0
        assert est.within_bound
        assert est.sup_mean_square < est.bound
        assert est.standard_error > 0.0
        assert est.num_paths == 400

    def test_decaying_deterministic_model(self):
        # No noise, no forcing: sup E|X|^2 is met at the start exactly.
        drift = PolyTrigDrift(poly_coeffs=(), trig_amp=0.0, trig_freq=1, period=1.0)
        m = ModelSpec(
            eigenvalues=np.array([2.0]), drift=drift,
            diffusion=ConstantDiffusion(0.0), period=1.0,
            constants={"C_f": 0.0, "sigma": 0.0},
        )
        grid = GridSpec(start_index=0, step_mult=1, count=32, period_steps=16,
                        base_step=2.0**-4)
        est = moment_estimate(m, grid, "bem", InitialCondition(value=[0.5]),
                              num_paths=8, seed=0)
        assert est.node_index == 0
        assert est.time == 0.0
        assert est.sup_mean_square == pytest.approx(0.25, rel=1e-12)
        assert est.within_bound  # equality case: bound = E|xi|^2 + 0

    def test_unknown_scheme_raises(self):
        grid = GridSpec(start_index=0, step_mult=1, count=4, period_steps=4,
                        base_step=0.25)
        with pytest.raises(ValueError, match="unknown scheme"):
            moment_estimate(builtin_benchmark(), grid, "implicit",
                            InitialCondition(value=[0.0]), num_paths=4)

    def test_grid_off_model_period_raises(self):
        # period_steps * h = 16 * 2^-5 = 0.5, but the builtin period is 1.0
        grid = GridSpec(start_index=0, step_mult=1, count=64, period_steps=16,
                        base_step=2.0**-5)
        with pytest.raises(AlignmentError, match="model period"):
            moment_estimate(builtin_benchmark(), grid, "bem", InitialCondition(value=[0.0]),
                            num_paths=4)

    def test_requires_constants(self):
        m = builtin_benchmark()
        bare = with_diffusion_amplitude(m, 0.05)
        bare.constants.pop("C_f")
        grid = GridSpec(start_index=0, step_mult=1, count=4, period_steps=4,
                        base_step=0.25)
        with pytest.raises(ValueError, match="C_f"):
            moment_estimate(bare, grid, "bem", InitialCondition(value=[0.0]),
                            num_paths=4)


@contextlib.contextmanager
def _block_size(size):
    """Run the studies in blocks of ``size`` paths; None keeps the default."""
    with pytest.MonkeyPatch.context() as mp:
        if size is not None:
            mp.setattr(analysis, "DEFAULT_BLOCK_SIZE", size)
        yield


def _study(name, block_size):
    with _block_size(block_size):
        return _run_study(name)


def _run_study(name):
    m = builtin_benchmark()
    if name == "strong_error":
        table = strong_error(m, h_ref=2.0**-8, h_list=[2.0**-4, 2.0**-5, 2.0**-6],
                             pullback_periods=2, num_paths=20, seed=3)
        return [(r.rms_error, r.standard_error, r.sup_rms_error) for r in table.rows]
    if name == "moment_estimate":
        grid = GridSpec(start_index=-32, step_mult=2, count=48, period_steps=16,
                        base_step=2.0**-5)
        return moment_estimate(m, grid, "bem", InitialCondition(value=[0.1]),
                               num_paths=20, seed=3)
    if name == "em_diverging":
        # the explicit scheme at h = 2^-3 over 5 periods, as in
        # ORDER_CASES["em-diverging"]; every path crosses 1e12 mid-grid
        grid = _grid_on(m, 2.0**-3, 2.0**-3, -5.0, 0.0)
        [(rec, stats)] = analysis._run_seeds(
            m, [analysis._Run(grid, "em", np.arange(grid.count + 1))], derive_seeds(1, 8),
        )
        return rec.tobytes(), stats
    mus = periodic_measure(m, derive_seeds(3, 20), h=2.0**-5, pullback_periods=2,
                           t_list=[0.0, 0.5])
    return [mu.samples.tobytes() for mu in mus]


@pytest.mark.parametrize("name", ["strong_error", "moment_estimate", "periodic_measure"])
def test_block_invariance(name):
    # The README's contract: byte-identical results across block sizes.
    base = _study(name, None)
    for block_size in (1, 7):
        assert _study(name, block_size) == base


@pytest.mark.parametrize("window_words", [1, 50, 333])
@pytest.mark.parametrize("name", ["moment_estimate", "periodic_measure", "em_diverging"])
def test_window_invariance(monkeypatch, name, window_words):
    # The README's contract: the same bits for any window length, including
    # windows of one step, which carry every state across a window boundary
    base = _study(name, None)
    monkeypatch.setattr(analysis, "_WINDOW_WORDS", window_words)
    assert _study(name, None) == base
    assert _study(name, 7) == base


def _count_blocks(monkeypatch):
    """The paths of each block, in order, from the seeds of its first noise
    read; a block's first seed names it."""
    read = analysis._read_increments
    blocks = {}

    def counted(seeds, start, count, *rest):
        blocks.setdefault(seeds[0], len(seeds))
        return read(seeds, start, count, *rest)

    monkeypatch.setattr(analysis, "_read_increments", counted)
    return blocks


@pytest.mark.parametrize("num_paths, blocks", [(2000, 1), (2049, 2)])
def test_default_block_holds_2048_paths(monkeypatch, num_paths, blocks):
    # the CLI's default 2000-path measure study runs as one block
    calls = _count_blocks(monkeypatch)
    m = builtin_benchmark()
    grid = _grid_on(m, 0.25, 0.25, -1.0, 0.0)
    [(rec, _)] = analysis._run_seeds(
        m, [analysis._Run(grid, "bem", np.array([grid.count]))], derive_seeds(0, num_paths))
    assert len(calls) == blocks and sum(calls.values()) == num_paths == rec.shape[0]


def test_block_fits_one_coarse_step_in_a_window(monkeypatch):
    # a coarsest step of 16 fine steps fills a 64-word window at 4 paths
    kwargs = dict(h_ref=2.0**-6, h_list=[2.0**-2, 2.0**-3], pullback_periods=1, num_paths=10,
                  seed=5, scheme=("bem", "em"))
    base = [_bits(t) for t in strong_error(builtin_benchmark(), **kwargs)]
    monkeypatch.setattr(analysis, "_WINDOW_WORDS", 64)
    blocks = _count_blocks(monkeypatch)
    assert [_bits(t) for t in strong_error(builtin_benchmark(), **kwargs)] == base
    assert list(blocks.values()) == [4, 4, 2]


@pytest.mark.parametrize("study", ["periodic_measure", "strong_error"])
def test_studies_read_noise_by_seed(monkeypatch, study):
    # the runner reads every path's increments by seed; a NoiseLattice per
    # path would only check again what the seeds and the grid have checked
    built = []
    post_init = NoiseLattice.__post_init__

    def counting(self):
        built.append(self.seed)
        post_init(self)

    monkeypatch.setattr(NoiseLattice, "__post_init__", counting)
    m = builtin_benchmark()
    if study == "periodic_measure":
        periodic_measure(m, derive_seeds(1, 5), 2.0**-4, 2, [0.0, 0.5])
    else:
        strong_error(m, 2.0**-6, [2.0**-4, 2.0**-5], 1, 5, scheme=("bem", "em"))
    assert built == []


@pytest.mark.parametrize("build, start, window_words", [
    (builtin_benchmark, 0.0, 50),
    # the cubic drift raises on a NaN state, so a diverged path must not be
    # stepped again in later windows
    (lambda: model_from_config(CUBIC_MODEL), 3.0, 1),
], ids=["builtin", "cubic"])
def test_diverged_paths_match_solo_runs(monkeypatch, build, start, window_words):
    # a path that diverges in one window stays NaN in the later ones and
    # reports its crossing node on the whole grid, as a solo run does
    monkeypatch.setattr(analysis, "_WINDOW_WORDS", window_words)
    m = build()
    h = 2.0**-3
    grid = _grid_on(m, h, h, -5.0, 0.0)
    seeds = derive_seeds(1, 8)
    init = InitialCondition(value=[start])
    [(rec, _)] = analysis._run_seeds(
        m, [analysis._Run(grid, "em", np.arange(grid.count + 1))], seeds, init)
    # each path's crossing node: its first state that is not finite
    bad = ~np.isfinite(rec).all(axis=2)
    assert bad.any(axis=1).all()
    div_at = bad.argmax(axis=1)
    # windows of max(1, window_words // 8) steps; every crossing lies in a
    # later window than the first
    assert np.all(div_at > max(1, window_words // 8)) and np.all(div_at < grid.count)
    for p, s in enumerate(seeds):
        solo = simulate(m, grid, "em", init, NoiseLattice(s, h))
        assert div_at[p] == solo.diverged_at
        assert np.array_equal(rec[p], solo.states, equal_nan=True)
        assert np.all(np.isnan(rec[p, div_at[p]:])) and np.all(np.isfinite(rec[p, :div_at[p]]))


# Scalar cubic drift with a periodic forcing, as in perfbench/child.py.
CUBIC_MODEL = {
    "lambda": [10.0],
    "drift": {"poly_coeffs": [0, -1, 0, -2], "trig_amp": 1.5, "trig_freq": 1},
    "g": {"amp": 0.5},
    "tau": 1.0,
    "constants": {"C_f": 0.5, "sigma": 0.5},
}

D2_MODEL = {
    "lambda": [3.0, 5.0],
    "drift": {"poly_coeffs": [0, 0, 0, -1], "trig_amp": 1.0, "trig_freq": 2},
    "g": {"amp": 0.3},
    "tau": 1.0,
    "constants": {"C_f": 0.5},
}

# (model, strong_error arguments, schemes); "em-diverging" is the setting of
# TestStrongError.test_em_divergence_marks_row, whose h = 2^-3 row blows up.
ORDER_CASES = {
    "builtin": (builtin_benchmark, dict(
        h_ref=2.0**-8, h_list=[2.0**-4, 2.0**-5, 2.0**-6], pullback_periods=2,
        num_paths=16, seed=3), ("bem", "em")),
    "cubic": (lambda: model_from_config(CUBIC_MODEL), dict(
        h_ref=2.0**-7, h_list=[2.0**-3, 2.0**-4, 2.0**-5], pullback_periods=2,
        num_paths=12, seed=5), ("bem", "em")),
    "d2": (lambda: model_from_config(D2_MODEL), dict(
        h_ref=2.0**-7, h_list=[2.0**-3, 2.0**-4, 2.0**-5], pullback_periods=2,
        num_paths=9, seed=2), ("em", "bem")),
    "init": (builtin_benchmark, dict(
        h_ref=2.0**-8, h_list=[2.0**-4, 2.0**-5, 2.0**-6], pullback_periods=2,
        num_paths=10, seed=4, t_eval=0.25, init=InitialCondition(value=[0.7])), ("bem", "em")),
    "em-diverging": (builtin_benchmark, dict(
        h_ref=2.0**-8, h_list=[2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6], pullback_periods=5,
        num_paths=8, seed=1), ("em",)),
}


def _oracle_table(model, h_ref, h_list, pullback_periods, num_paths, scheme, seed=0,
                  t_eval=0.0, init=None):
    """The order study as one runner call per run: the reference, then each
    level on its own grid."""
    t_start = t_eval - pullback_periods * model.period
    seeds = derive_seeds(seed, num_paths)
    ref_grid = _grid_on(model, h_ref, h_ref, t_start, t_eval)
    n_ref = ref_grid.period_steps
    grids = [_grid_on(model, h_ref, h, t_start, t_eval) for h in h_list]
    node_sets = [ref_grid.count - n_ref + np.arange(g.period_steps + 1) * g.step_mult
                 for g in grids]
    union = np.unique(np.concatenate(node_sets))
    [(ref_rec, stats)] = analysis._run_seeds(
        model, [analysis._Run(ref_grid, "bem", union)], seeds, init)
    rows = []
    for h, grid, ref_nodes in zip(h_list, grids, node_sets):
        nodes = grid.count - grid.period_steps + np.arange(grid.period_steps + 1)
        [(rec, level_stats)] = analysis._run_seeds(
            model, [analysis._Run(grid, scheme, nodes)], seeds, init)
        stats = _merge_stats(stats, level_stats)
        if not np.isfinite(rec).all():
            rows.append(ErrorRow(h, math.nan, math.nan, math.nan, num_paths, True))
            continue
        diff = rec - ref_rec[:, np.searchsorted(union, ref_nodes), :]
        sq = np.einsum("ijk,ijk->ij", diff, diff)
        rms = math.sqrt(math.fsum(sq[:, -1]) / num_paths)
        se_mean = math.sqrt(float(np.var(sq[:, -1], ddof=1)) / num_paths)
        node_rms = np.sqrt([math.fsum(sq[:, i]) / num_paths for i in range(sq.shape[1])])
        rows.append(ErrorRow(h, rms, se_mean / (2.0 * rms) if rms > 0.0 else 0.0,
                             float(np.max(node_rms)), num_paths, False))
    table = ErrorTable(scheme=scheme, h_ref=h_ref, t_eval=t_eval, rows=rows,
                       solver_stats=stats)
    if len(table.valid_rows()) >= 3:
        fit = fit_order(table)
        table.fitted_order, table.fit_intercept = fit.order, fit.intercept
    return table


def _bits(table):
    """Every reported number of a table, NaN-safe and exact."""
    rows = [(r.h, r.rms_error, r.standard_error, r.sup_rms_error, r.num_paths, r.diverged)
            for r in table.rows]
    return repr((table.scheme, table.h_ref, table.t_eval, rows, table.fitted_order,
                 table.fit_intercept, table.solver_stats))


class TestOrderStudyOnePass:
    """``strong_error`` walks the noise once for all runs; it must give what
    one runner call per run gives, bit for bit."""

    @pytest.mark.parametrize("block_size", [1, 7, None])
    @pytest.mark.parametrize("case", sorted(ORDER_CASES))
    def test_matches_one_run_per_level(self, monkeypatch, case, block_size):
        build, kwargs, schemes = ORDER_CASES[case]
        model = build()
        if block_size is not None:
            monkeypatch.setattr(analysis, "DEFAULT_BLOCK_SIZE", block_size)
        tables = strong_error(model, scheme=schemes, **kwargs)
        assert isinstance(tables, tuple) and len(tables) == len(schemes)
        for scheme, table in zip(schemes, tables):
            oracle = _oracle_table(model, scheme=scheme, **kwargs)
            assert _bits(table) == _bits(oracle)
        if case == "em-diverging":
            assert tables[0].rows[0].diverged and not tables[0].rows[1].diverged

    @pytest.mark.parametrize("window_words", [1, 50, 333])
    def test_state_carries_across_windows(self, monkeypatch, window_words):
        # one pull-back period split into small windows, including widths
        # that do not divide the period, so records straddle windows
        build, kwargs, _ = ORDER_CASES["builtin"]
        kwargs = dict(kwargs, pullback_periods=1)
        model = build()
        oracle = [_oracle_table(model, scheme=s, **kwargs) for s in ("bem", "em")]
        ref_windows = []
        drive = analysis._drive

        def counting_drive(model, grid, scheme, x0, *rest):
            if grid.step_mult == 1:
                ref_windows.append(grid.count * x0.shape[0])
            return drive(model, grid, scheme, x0, *rest)

        monkeypatch.setattr(analysis, "_WINDOW_WORDS", window_words)
        monkeypatch.setattr(analysis, "_drive", counting_drive)
        tables = strong_error(model, scheme=("bem", "em"), **kwargs)
        assert len(ref_windows) >= 3
        # every path takes every reference step once, whatever its block
        assert sum(ref_windows) == kwargs["num_paths"] * round(1.0 / kwargs["h_ref"])
        assert [_bits(t) for t in tables] == [_bits(t) for t in oracle]

    def test_single_name_returns_one_table(self):
        build, kwargs, _ = ORDER_CASES["builtin"]
        model = build()
        table = strong_error(model, scheme="BEM", **kwargs)
        assert isinstance(table, ErrorTable) and table.scheme == "bem"
        bem, em = strong_error(model, scheme=("bem", "em"), **kwargs)
        assert _bits(table) == _bits(bem)
        # the em table's only implicit run is the shared reference
        assert em.solver_stats.max_newton_iters >= 1
        assert _merge_stats(em.solver_stats, bem.solver_stats) == bem.solver_stats

    @pytest.mark.parametrize("scheme, match", [
        ((), "at least one"),
        (("bem", "em", "bem"), "duplicate"),
        (("em", "EM"), "duplicate"),
        (("bem", "rk4"), "unknown scheme"),
    ])
    def test_bad_scheme_tuple_raises(self, scheme, match):
        with pytest.raises(ValueError, match=match):
            strong_error(builtin_benchmark(), h_ref=2.0**-8, h_list=[2.0**-4],
                         pullback_periods=1, num_paths=4, scheme=scheme)


def test_solver_stats_block_invariance():
    m = model_from_config(CUBIC_MODEL)
    kwargs = dict(h_ref=2.0**-7, h_list=[2.0**-3, 2.0**-4, 2.0**-5], pullback_periods=2,
                  num_paths=12, seed=5, scheme=("bem", "em"))

    def order(block_size):
        with _block_size(block_size):
            return [t.solver_stats for t in strong_error(m, **kwargs)]

    base = order(None)
    assert base[0].max_newton_iters >= 2  # the cubic drift needs Newton
    assert base[0] != SolverSummary()
    for block_size in (1, 7):
        assert order(block_size) == base

    # the moment and measure studies keep the summary too
    grid = GridSpec(start_index=-32, step_mult=2, count=48, period_steps=16, base_step=2.0**-5)

    def moment(block_size):
        with _block_size(block_size):
            return moment_estimate(m, grid, "bem", InitialCondition(value=[0.8]), num_paths=12,
                                   seed=5).solver_stats

    def measure(block_size):
        with _block_size(block_size):
            mus = periodic_measure(m, derive_seeds(5, 12), h=2.0**-4, pullback_periods=2,
                                   t_list=[0.0, 0.5])
        assert mus[0].solver_stats == mus[1].solver_stats
        return mus[0].solver_stats

    def halvings(block_size):
        with _block_size(block_size):
            study = measure_convergence_study(m, derive_seeds(5, 12), [2.0**-3, 2.0**-4], t=0.0,
                                              pullback_periods=2)
        # the study's summary covers each of its runs
        parts = [
            analysis._run_seeds(m, [analysis._Run(grid, "bem", np.array([grid.count]))],
                                derive_seeds(5, 12))[0][1]
            for p in study.pairs
            for grid in (_grid_on(m, p.h_half, step, -2.0, 0.0) for step in (p.h, p.h_half))
        ]
        assert study.solver_stats == _merge_stats(*parts)
        return study.solver_stats

    for study in (moment, measure, halvings):
        base = study(None)
        assert base.max_newton_iters >= 2 and base.max_residual > 0.0
        for block_size in (1, 7):
            assert study(block_size) == base


class TestEmpiricalMeasure:
    def test_shapes_and_validation(self):
        mu = EmpiricalMeasure(t=0.0, h=0.1, samples=np.array([1.0, 2.0, 3.0]))
        assert mu.samples.shape == (3, 1)
        assert mu.num_samples == 3
        with pytest.raises(ValueError, match="at least 2"):
            EmpiricalMeasure(t=0.0, h=0.1, samples=np.array([1.0]))
        with pytest.raises(ValueError, match="finite"):
            EmpiricalMeasure(t=0.0, h=0.1, samples=np.array([1.0, np.nan]))


class TestWeakDistance:
    def measure(self, values):
        return EmpiricalMeasure(t=0.0, h=0.1, samples=np.asarray(values, dtype=float))

    def test_identical_samples_give_zero(self):
        mu = self.measure([0.3, -0.2, 1.4, 0.0])
        assert weak_distance(mu, mu) == 0.0

    def test_translated_point_masses(self):
        zeros = self.measure(np.zeros(100))
        near = self.measure(np.full(100, 0.5))
        far = self.measure(np.full(100, 7.0))
        assert weak_distance(zeros, near) == pytest.approx(0.5)
        # the test class has diameter 2, so distances saturate there
        assert weak_distance(zeros, far) == pytest.approx(2.0)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(5)
        a = self.measure(rng.normal(size=64))
        b = self.measure(rng.normal(loc=0.4, size=64))
        c = self.measure(rng.normal(scale=2.0, size=64))
        assert weak_distance(a, b) == pytest.approx(weak_distance(b, a), rel=1e-15)
        assert weak_distance(a, c) <= weak_distance(a, b) + weak_distance(b, c) + 1e-12

    def test_shape_requirements(self):
        a = self.measure(np.zeros(10))
        b = self.measure(np.zeros(12))
        with pytest.raises(ValueError, match="subsample"):
            weak_distance(a, b)
        wide = EmpiricalMeasure(t=0.0, h=0.1, samples=np.zeros((5, 2)))
        with pytest.raises(ValueError, match="scalar"):
            weak_distance(wide, wide)

    def test_matches_direct_quantile_coupling(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=50)
        b = rng.normal(size=50)
        expect = np.minimum(np.abs(np.sort(a) - np.sort(b)), 2.0).mean()
        got = weak_distance(self.measure(a), self.measure(b))
        assert got == pytest.approx(expect, rel=1e-12)


class TestPeriodicMeasure:
    def test_samples_and_determinism(self):
        m = builtin_benchmark()
        seeds = derive_seeds(0, 50)
        mus = periodic_measure(m, seeds, h=2.0**-5, pullback_periods=2,
                               t_list=[0.0, 0.25])
        assert [mu.t for mu in mus] == [0.0, 0.25]
        assert all(mu.num_samples == 50 for mu in mus)
        again = periodic_measure(m, seeds, h=2.0**-5, pullback_periods=2,
                                 t_list=[0.0, 0.25])
        for a, b in zip(mus, again):
            assert np.array_equal(a.samples, b.samples)

    def test_distinct_seeds_spread_the_law(self):
        m = builtin_benchmark()
        seeds = derive_seeds(1, 80)
        (mu,) = periodic_measure(m, seeds, h=2.0**-5, pullback_periods=2,
                                 t_list=[0.0])
        assert float(np.std(mu.samples)) > 1e-3  # genuine dispersion

    def test_validation(self):
        m = builtin_benchmark()
        seeds = derive_seeds(0, 10)
        with pytest.raises(ValueError):
            periodic_measure(m, seeds, h=2.0**-5, pullback_periods=2, t_list=[])
        with pytest.raises(ValueError, match="duplicate"):
            periodic_measure(m, seeds, h=2.0**-5, pullback_periods=2,
                             t_list=[0.25, 0.25])
        with pytest.raises(ValueError):
            periodic_measure(m, seeds[:1], h=2.0**-5, pullback_periods=2,
                             t_list=[0.0])

    def test_numpy_t_list(self):
        m, seeds = builtin_benchmark(), derive_seeds(0, 10)
        want = periodic_measure(m, seeds, 2.0**-5, 2, [0.25, 0.5])
        got = periodic_measure(m, seeds, 2.0**-5, 2, np.array([0.25, 0.5]))
        assert [mu.t for mu in got] == [0.25, 0.5]
        for a, b in zip(got, want):
            assert a.samples.tobytes() == b.samples.tobytes()
        with pytest.raises(ValueError, match="t_list must not be empty"):
            periodic_measure(m, seeds, 2.0**-5, 2, np.array([]))

    def test_seeds_are_whole_numbers_modulo_2_64(self):
        m = builtin_benchmark()

        def samples(seeds):
            (mu,) = periodic_measure(m, seeds, h=2.0**-4, pullback_periods=1, t_list=[0.0])
            return mu.samples

        expect = samples([2**64 - 1, 2])
        assert np.array_equal(samples([-1, 2]), expect)
        assert np.array_equal(samples([-1.0, 2.0]), expect)
        with pytest.raises(ValueError, match="whole numbers"):
            samples([1.5, 2.5])


class TestMeasureStudy:
    def test_noise_free_study_matches_pathwise_bias(self):
        # Without noise every path is the same deterministic curve, so the
        # weak distance equals the plain difference of the two resolutions.
        m = with_diffusion_amplitude(builtin_benchmark(), 0.0)
        t = 0.25
        study = measure_convergence_study(m, derive_seeds(0, 4), [2.0**-4, 2.0**-5],
                                          t=t, pullback_periods=2)
        lat = NoiseLattice(seed=0, base_step=2.0**-6)
        for pair in study.pairs:
            a = simulate(m, make_grid(m, lat, pair.h, -2.0, t), "bem",
                         InitialCondition(value=[0.0]), lat).state_at(t)
            b = simulate(m, make_grid(m, lat, pair.h_half, -2.0, t), "bem",
                         InitialCondition(value=[0.0]), lat).state_at(t)
            assert pair.distance == pytest.approx(abs(float(a[0] - b[0])), rel=1e-9)
        assert study.monotone_decreasing

    def test_numpy_h_list(self):
        m, seeds = builtin_benchmark(), derive_seeds(2, 8)
        want = measure_convergence_study(m, seeds, [2.0**-4, 2.0**-5], t=0.0, pullback_periods=1)
        got = measure_convergence_study(m, seeds, np.array([2.0**-4, 2.0**-5]), t=0.0,
                                        pullback_periods=1)
        assert got.pairs == want.pairs
        with pytest.raises(ValueError, match="h_list must not be empty"):
            measure_convergence_study(m, seeds, np.array([]), t=0.0, pullback_periods=1)

    def test_scalar_entries_mean_halving_pairs(self):
        m = builtin_benchmark()
        study = measure_convergence_study(m, derive_seeds(2, 16), [2.0**-4], t=0.0,
                                          pullback_periods=1)
        assert study.pairs[0].h == 2.0**-4
        assert study.pairs[0].h_half == 2.0**-5
        assert study.pairs[0].ratio_to_sqrt_h == pytest.approx(
            study.pairs[0].distance / math.sqrt(2.0**-4)
        )

    def test_vector_model_fails_before_simulating(self, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("_run_seeds called")

        monkeypatch.setattr(analysis, "_run_seeds", no_simulation)
        with pytest.raises(ValueError, match="scalar models only, got dimension 2"):
            measure_convergence_study(model_from_config(D2_MODEL), derive_seeds(0, 8), [2.0**-3],
                                      0.0, 1)

    def test_validation(self):
        m = builtin_benchmark()
        with pytest.raises(ValueError, match="h_list"):
            measure_convergence_study(m, derive_seeds(0, 8), [], 0.0, 1)
        with pytest.raises(ValueError, match="pullback_periods"):
            measure_convergence_study(m, derive_seeds(0, 8), [2.0**-4], 0.0, 0)
        with pytest.raises(AlignmentError):
            measure_convergence_study(m, derive_seeds(0, 8), [0.3], 0.0, 1)


# (model, measure_convergence_study arguments); "init" starts each path from
# its own seed-keyed state and samples the law off the period boundary
MEASURE_CASES = {
    "builtin": (builtin_benchmark, dict(lattice_seeds=derive_seeds(3, 16),
        h_list=[2.0**-3, 2.0**-4, 2.0**-5], t=0.0, pullback_periods=2)),
    "cubic": (lambda: model_from_config(CUBIC_MODEL), dict(lattice_seeds=derive_seeds(5, 12),
        h_list=[2.0**-3, 2.0**-4], t=0.25, pullback_periods=2)),
    "init": (builtin_benchmark, dict(lattice_seeds=derive_seeds(4, 10),
        h_list=[2.0**-4, 2.0**-5], t=0.75, pullback_periods=1,
        init=InitialCondition(sampler=lambda s: np.random.default_rng(s).normal(size=1)))),
}


def _oracle_study(model, lattice_seeds, h_list, t, pullback_periods, init=None):
    """The measure study as one runner call per run: each step size of a
    halving on its own, both on lattices of spacing ``h/2``."""
    seeds, num_paths = lattice_seeds, len(lattice_seeds)
    pairs, stats = [], []
    for h in h_list:
        laws = []
        for step in (h, h / 2):
            grid = _grid_on(model, h / 2, step, -pullback_periods * model.period, t)
            [(rec, summary)] = analysis._run_seeds(
                model, [analysis._Run(grid, "bem", np.array([grid.count]))], seeds, init)
            laws.append(EmpiricalMeasure(t=t, h=step, samples=rec[:, 0, :]))
            stats.append(summary)
        dist = weak_distance(*laws)
        pairs.append(MeasurePair(h, h / 2, dist, dist / math.sqrt(h)))
    return MeasureStudy(t=t, num_paths=num_paths, pairs=tuple(pairs),
                        solver_stats=_merge_stats(*stats))


class TestMeasureStudyOnePass:
    """``measure_convergence_study`` walks each halving's noise once for
    both step sizes; it must give what one runner call per run gives, bit
    for bit."""

    @pytest.mark.parametrize("window_words", [None, 1, 50, 333])
    @pytest.mark.parametrize("block_size", [1, 7, None])
    @pytest.mark.parametrize("case", sorted(MEASURE_CASES))
    def test_matches_one_run_per_step(self, monkeypatch, case, block_size, window_words):
        build, kwargs = MEASURE_CASES[case]
        model = build()
        oracle = _oracle_study(model, **kwargs)
        if window_words is not None:
            monkeypatch.setattr(analysis, "_WINDOW_WORDS", window_words)
        with _block_size(block_size):
            study = measure_convergence_study(model, **kwargs)
        assert repr(study) == repr(oracle)
        assert study.solver_stats != SolverSummary()

    def test_reads_each_lattice_once_per_halving(self, monkeypatch):
        build, kwargs = MEASURE_CASES["builtin"]
        reads = []  # one entry per seed and read, of its step count
        read_increments = analysis._read_increments

        def counting(seeds, start, count, *rest):
            reads.extend([count] * len(seeds))
            return read_increments(seeds, start, count, *rest)

        monkeypatch.setattr(analysis, "_read_increments", counting)
        study = measure_convergence_study(build(), **kwargs)
        # one read per path and halving, of every step of the fine grid
        # (the builtin period is 1)
        span = kwargs["t"] + kwargs["pullback_periods"]
        fine_steps = [round(span / (h / 2)) for h in kwargs["h_list"]]
        assert len(reads) == len(kwargs["lattice_seeds"]) * len(study.pairs)
        assert sum(reads) == len(kwargs["lattice_seeds"]) * sum(fine_steps)


@pytest.mark.parametrize("num_paths", [1, 0, -1])
@pytest.mark.parametrize("study", ["strong_error", "moment_estimate", "periodic_measure",
                                   "measure_convergence_study"])
def test_every_study_needs_two_paths(study, num_paths):
    m = builtin_benchmark()
    run = {
        "strong_error": lambda: strong_error(m, 2.0**-6, [2.0**-4], 1, num_paths),
        "moment_estimate": lambda: moment_estimate(
            m, GridSpec(start_index=0, step_mult=1, count=16, period_steps=16,
                        base_step=2.0**-4),
            "bem", InitialCondition(value=[0.0]), num_paths),
        "periodic_measure": lambda: periodic_measure(
            m, derive_seeds(0, max(num_paths, 0)), 2.0**-4, 1, [0.0]),
        "measure_convergence_study": lambda: measure_convergence_study(
            m, derive_seeds(0, max(num_paths, 0)), [2.0**-4], 0.0, 1),
    }[study]
    with pytest.raises(ValueError):
        run()


def _run_with_periods(routine, k):
    """One small run of ``routine`` pulled back over ``k`` periods."""
    m, h = builtin_benchmark(), 2.0**-4
    lattice = NoiseLattice(0, h, 1)
    return {
        "strong_error": lambda: strong_error(m, 2.0**-5, [h], k, 2),
        "periodic_measure": lambda: periodic_measure(m, derive_seeds(0, 2), h, k, [0.0]),
        "measure_convergence_study": lambda: measure_convergence_study(
            m, derive_seeds(0, 2), [h], 0.0, k),
        "random_periodic_path": lambda: random_periodic_path(m, lattice, h, pullback_periods=k),
        "verify_shift_periodicity": lambda: verify_shift_periodicity(
            m, lattice, h, pullback_periods=k),
    }[routine]()


PERIOD_ROUTINES = ["strong_error", "periodic_measure", "measure_convergence_study",
                   "random_periodic_path", "verify_shift_periodicity"]


@pytest.mark.parametrize("k", [2.5, 2.9, float("nan"), float("inf"), True])
@pytest.mark.parametrize("routine", PERIOD_ROUTINES)
def test_pullback_periods_must_be_whole(routine, k):
    with pytest.raises(ValueError, match=f"pullback_periods must be a whole number, got {k}"):
        _run_with_periods(routine, k)


@pytest.mark.parametrize("routine", PERIOD_ROUTINES)
def test_whole_float_pullback_periods_run_as_ints(routine):
    want = _run_with_periods(routine, 3)
    for k in (3.0, np.float64(3.0), np.int64(3)):
        # the whole result, bit for bit, with every count an int
        assert pickle.dumps(_run_with_periods(routine, k)) == pickle.dumps(want)


class TestBootstrapFloor:
    def test_deterministic_and_positive(self):
        rng = np.random.default_rng(3)
        mu = EmpiricalMeasure(t=0.0, h=0.1, samples=rng.normal(size=200))
        floor = bootstrap_noise_floor(mu, n_bootstrap=50, seed=1)
        assert floor > 0.0
        assert floor == bootstrap_noise_floor(mu, n_bootstrap=50, seed=1)

    def test_shrinks_with_sample_count(self):
        rng = np.random.default_rng(3)
        small = EmpiricalMeasure(t=0.0, h=0.1, samples=rng.normal(size=100))
        large = EmpiricalMeasure(t=0.0, h=0.1, samples=rng.normal(size=1600))
        assert bootstrap_noise_floor(large, 60, seed=2) < bootstrap_noise_floor(
            small, 60, seed=2
        )

    @pytest.mark.parametrize("n_bootstrap", [0, -3])
    def test_needs_one_resample(self, n_bootstrap):
        mu = EmpiricalMeasure(t=0.0, h=0.1, samples=np.arange(10.0))
        with pytest.raises(ValueError, match="n_bootstrap"):
            bootstrap_noise_floor(mu, n_bootstrap=n_bootstrap)

    @pytest.mark.parametrize("n_bootstrap", [1.5, True, np.True_, float("nan"), "3"])
    def test_resample_count_must_be_whole(self, n_bootstrap):
        mu = EmpiricalMeasure(t=0.0, h=0.1, samples=np.arange(10.0))
        with pytest.raises(ValueError, match=f"n_bootstrap must be a whole number, got "
                                             f"{n_bootstrap!r}"):
            bootstrap_noise_floor(mu, n_bootstrap=n_bootstrap)

    def test_vector_samples_raise(self):
        wide = EmpiricalMeasure(t=0.0, h=0.1, samples=np.zeros((4, 2)))
        with pytest.raises(ValueError, match="^bootstrap_noise_floor supports scalar "
                                             "samples only$"):
            bootstrap_noise_floor(wide, n_bootstrap=5)

    def test_whole_float_resample_count_runs_as_int(self):
        mu = EmpiricalMeasure(t=0.0, h=0.1, samples=np.arange(10.0))
        want = bootstrap_noise_floor(mu, n_bootstrap=3, seed=4)
        for n in (3.0, np.float64(3.0), np.int64(3)):
            assert bootstrap_noise_floor(mu, n_bootstrap=n, seed=4) == want


# A scalar cubic drift, so that the pinned studies take Newton steps.
REDUCTION_CUBIC = {
    "lambda": [10.0],
    "drift": {"poly_coeffs": [0, -1, 0, -2], "trig_amp": 1.5, "trig_freq": 1},
    "g": {"amp": 0.5},
    "tau": 1.0,
    "constants": {"C_f": 0.5, "sigma": 0.5},
}
# repr of each pinned reduction's result, recorded before the bootstrap, the
# path-seed conversion and the error rows' sums were rewritten as array
# calls.  The recorded bits belong to the numpy (its sorts, sums and
# generator streams) and libm (``sin`` in the forcing, ``log`` and ``sqrt``
# in the noise) builds they were recorded with, so another build may differ
# in the last bit; the differential tests compare each rewrite with the loop
# it replaced, run in the same process.
REDUCTION_SNAPSHOT = Path(__file__).with_name("reduction_snapshot.json")


def _reduction_cases():
    """Name -> callable giving the repr of one pinned reduction: bootstrap
    floors of 3 measures at 3 seeds and 3 resample counts, the two tables of
    one strong-error study, and one measure study."""
    cases = {}
    rng = np.random.default_rng(20261022)
    for m in (2, 7, 1280):
        mu = EmpiricalMeasure(t=0.0, h=0.1, samples=rng.normal(size=m))
        cases[f"bootstrap-m{m}"] = lambda mu=mu: repr([
            bootstrap_noise_floor(mu, n_bootstrap=n, seed=s)
            for s in (0, -1, 2**64 - 1) for n in (1, 37, 200)
        ])
    cubic = model_from_config(REDUCTION_CUBIC)
    cases["strong-error-cubic"] = lambda: repr(strong_error(
        cubic, h_ref=2.0**-7, h_list=[2.0**-3, 2.0**-4, 2.0**-5], pullback_periods=2,
        num_paths=40, t_eval=0.25, seed=5, scheme=("bem", "em")))
    cases["measure-study-cubic"] = lambda: repr(measure_convergence_study(
        cubic, derive_seeds(3, 64), [2.0**-3, 2.0**-4], 0.25, 2))
    return cases


@pytest.mark.parametrize("name", sorted(_reduction_cases()))
def test_reductions_match_snapshot(name):
    want = json.loads(REDUCTION_SNAPSHOT.read_text(encoding="utf-8"))[name]
    assert _reduction_cases()[name]() == want


# The loops that the array calls of the reductions replaced, kept as their
# references: each rewrite must give the same bits.


def _bootstrap_loop(measure, n_bootstrap, seed):
    """``bootstrap_noise_floor`` as two ``rng.choice`` calls per resample
    pair; returns the floor and the generator."""
    rng = np.random.default_rng(seed % 2**64)
    values = measure.samples[:, 0]
    dists = []
    for _ in range(n_bootstrap):
        a = np.sort(rng.choice(values, size=values.size, replace=True))
        b = np.sort(rng.choice(values, size=values.size, replace=True))
        dists.append(math.fsum(np.minimum(np.abs(a - b), 2.0).tolist()) / a.size)
    return math.fsum(dists) / len(dists), rng


@pytest.mark.parametrize("seed", [0, -1, 2**64 - 1])
@pytest.mark.parametrize("n_bootstrap", [1, 3, 37, 200])
@pytest.mark.parametrize("m", [2, 7, 1280])
def test_bootstrap_matches_choice_loop(monkeypatch, m, n_bootstrap, seed):
    rng = np.random.default_rng(m)
    samples = rng.normal(size=m)
    samples[: m // 3] = samples[-1]  # ties
    mu = EmpiricalMeasure(t=0.0, h=0.1, samples=samples)
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda s: made.append(default_rng(s)) or made[-1])
    got = bootstrap_noise_floor(mu, n_bootstrap=n_bootstrap, seed=seed)
    want, want_rng = _bootstrap_loop(mu, n_bootstrap, seed)
    assert repr(got) == repr(want)
    # the generator ends where the loop's does: the same words were drawn
    assert made[0].bit_generator.state == want_rng.bit_generator.state


def _path_seeds_loop(seeds):
    """``_path_seeds`` converting every seed by ``_whole_seed``."""
    arr = np.asarray(seeds, dtype=object)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(f"a study needs at least 2 path seeds, got shape {arr.shape}")
    return [analysis._whole_seed(s) for s in arr.tolist()]


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except ValueError as err:
        return "ValueError", str(err)
    return [type(s) for s in out], out


PATH_SEED_CASES = {
    "int64": np.array([0, -1, 5, -(2**63), 2**63 - 1], dtype=np.int64),
    "uint64": np.array([2**64 - 1, 2**64 - 2, 2**63, 0], dtype=np.uint64),
    "int32": np.array([-1, 7, -(2**31)], dtype=np.int32),
    "uint8": np.array([255, 0], dtype=np.uint8),
    "list": [3, -4, 2**64 + 5, 2.0, np.int64(-2)],
    "object": np.array([2**70, -3, np.uint64(9)], dtype=object),
    "float": np.array([1.0, -2.0, 3.0]),
    "bool": np.array([True, False]),
    "non-whole": np.array([1.0, 2.5]),
    "nan": [1, float("nan")],
    "2-d": np.arange(6, dtype=np.int64).reshape(2, 3),
    "one": np.array([5], dtype=np.uint64),
    "empty": np.array([], dtype=np.int64),
    "scalar": np.int64(4),
}


@pytest.mark.parametrize("case", sorted(PATH_SEED_CASES))
def test_path_seeds_match_the_loop(case):
    seeds = PATH_SEED_CASES[case]
    got = _outcome(analysis._path_seeds, seeds)
    assert got == _outcome(_path_seeds_loop, seeds)
    if got[0] == "ValueError":
        assert case in ("bool", "non-whole", "nan", "2-d", "one", "empty", "scalar")


def _error_row_loop(h, diff, num_paths):
    """``_error_row`` with an exact sum of every node's column."""
    row = analysis._error_row(h, diff, num_paths)
    sq = np.einsum("ijk,ijk->ij", diff, diff)
    node_rms = np.sqrt([math.fsum(col) / num_paths for col in sq.T.tolist()])
    return replace(row, sup_rms_error=float(np.max(node_rms)))


def _error_diffs():
    rng = np.random.default_rng(29)
    wide = rng.normal(size=(256, 65, 1))
    tied = np.repeat(rng.normal(size=(40, 1, 2)), 9, axis=1)  # 9 equal columns
    near = np.repeat(rng.normal(size=(300, 1, 1)), 5, axis=1)
    near[:, 1:] *= 1.0 + np.array([1, 2, 3, 4])[None, :, None] * 2.0**-52  # sums a few ulps apart
    reversed_near = near[::-1].copy()
    return {
        "wide": wide,
        "tied": tied,
        "near": near,
        "near-reversed": reversed_near,
        "zeros": np.zeros((8, 5, 1)),
        "one-node": rng.normal(size=(30, 1, 1)),
        "one-large": np.concatenate([wide[:, :3], 1e150 * wide[:, 3:4], wide[:, 4:]], axis=1),
    }


@pytest.mark.parametrize("case", sorted(_error_diffs()))
def test_error_row_matches_every_column_sum(case):
    diff = _error_diffs()[case]
    got = analysis._error_row(0.25, diff, diff.shape[0])
    want = _error_row_loop(0.25, diff, diff.shape[0])
    assert repr(got) == repr(want)


def test_error_row_column_overflow_raises():
    # node 1's squares are finite and their sum is not: both raise in fsum
    diff = np.ones((3, 3, 1))
    diff[:, 1] = 1e154
    with pytest.raises(OverflowError):
        _error_row_loop(0.5, diff, 3)
    with pytest.raises(OverflowError):
        analysis._error_row(0.5, diff, 3)


def _column_sup_loop(sq, num_paths):
    """``(node, mean)`` of the largest exact column mean, every column summed,
    as ``moment_estimate`` first took it."""
    mean_sq = np.array([math.fsum(col) / num_paths for col in sq.T.tolist()])
    node = int(np.argmax(mean_sq))
    return node, float(mean_sq[node])


def _moment_squares():
    rng = np.random.default_rng(30)
    cases = {name: np.einsum("ijk,ijk->ij", diff, diff) for name, diff in _error_diffs().items()}
    # diverged explicit paths: NaN from their crossing nodes on
    diverged = rng.normal(size=(64, 40)) ** 2
    diverged[5, 31:] = np.nan
    diverged[17, 12:] = np.nan
    cases["nan-columns"] = diverged
    larger = diverged.copy()
    larger[:, 3] *= 4.0  # a NaN column still wins over a larger one before it
    cases["nan-after-a-larger-column"] = larger
    return cases


@pytest.mark.parametrize("case", sorted(_moment_squares()))
def test_column_sup_matches_every_column_sum(case):
    sq = _moment_squares()[case]
    got = analysis._column_sup(sq, sq.shape[0])
    assert repr(got) == repr(_column_sup_loop(sq, sq.shape[0]))


def test_run_seeds_holds_one_window(monkeypatch):
    # every window's increments, and every run's buffer of nodes, is freed
    # before the next one is made
    monkeypatch.setattr(analysis, "_WINDOW_WORDS", 64)
    windows, buffers = [], []
    read, drive = analysis._read_increments, analysis._drive

    def watched_read(*args):
        assert all(w() is None for w in windows + buffers), "an earlier window is alive"
        fine = read(*args)
        windows.append(weakref.ref(fine))
        return fine

    def watched_drive(*args):
        assert all(b() is None for b in buffers), "an earlier run's buffer is alive"
        out, summary = drive(*args)
        buffers.extend((weakref.ref(out), weakref.ref(out.base)))
        return out, summary

    monkeypatch.setattr(analysis, "_read_increments", watched_read)
    monkeypatch.setattr(analysis, "_drive", watched_drive)
    model = model_from_config(REDUCTION_CUBIC)
    strong_error(model, h_ref=2.0**-5, h_list=[2.0**-2, 2.0**-3, 2.0**-4], pullback_periods=1,
                 num_paths=6, scheme=("bem", "em"))
    measure_convergence_study(model, derive_seeds(1, 6), [2.0**-3], 0.25, 1)
    assert len(windows) > 4 and len(buffers) > 8 * len(windows)
