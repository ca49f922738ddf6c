"""End-to-end acceptance gate.

Eight criteria cover the full construction: solver robustness on a monotone
family, two-path contraction, the defining shift identity, the noise-free
periodic limit, strong convergence magnitudes and order against a fine
reference, explicit-scheme blow-up containment, the second-moment bound,
and convergence of the empirical periodic law.

Every test prints one ``[criterion N] PASS/FAIL`` line (shown in the summary
for passing tests via ``-rP``, and in the failure report otherwise), then
asserts.  Tolerances and sample sizes are fixed; no test reads tuning from
the environment.
"""

import math
import time

import numpy as np
import pytest

from randperiodic.analysis import (
    bootstrap_noise_floor,
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
    with_diffusion_amplitude,
)
from randperiodic.noise import GridSpec, NoiseLattice, derive_seeds
from randperiodic.pullback import (
    coalescence,
    make_grid,
    random_periodic_path,
    simulate,
    verify_shift_periodicity,
)
from randperiodic.stepper import RESIDUAL_TOL, implicit_solve

BENCH = builtin_benchmark()


def _line(number: int, ok: bool, elapsed: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status} ({elapsed:.2f}s): {detail}")


def test_criterion_1_monotone_family_solves():
    """10^4 implicit solves across a random monotone family: every solve
    meets the relative residual tolerance and every same-instance pair
    contracts by the monotonicity modulus."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    tol_rel = RESIDUAL_TOL
    solves = 0
    worst_resid_ratio = 0.0
    worst_contraction_slack = -np.inf
    for instance in range(2500):
        d = int(rng.integers(1, 4))
        eig = np.sort(rng.uniform(0.5, 30.0, size=d))
        a1 = float(rng.uniform(-2.0, 0.0))
        a3 = float(rng.uniform(-1.0, -0.01))
        drift = PolyTrigDrift(
            poly_coeffs=(0.0, a1, 0.0, a3),
            trig_amp=float(rng.uniform(-2.0, 2.0)),
            trig_freq=int(rng.integers(1, 4)),
            period=1.0,
        )
        model = ModelSpec(
            eigenvalues=eig,
            drift=drift,
            diffusion=ConstantDiffusion(0.1),
            period=1.0,
            drift_jacobian=None if instance % 3 == 0 else drift.jacobian,
            constants={"C_f": a1, "sigma": 0.1},
        )
        h = float(rng.uniform(0.001, 0.5))
        t = float(rng.uniform(0.0, 1.0))
        modulus = 1.0 + h * (eig[0] - a1)
        for _ in range(2):
            y1 = rng.normal(scale=2.0, size=d)
            y2 = rng.normal(scale=2.0, size=d)
            z1, s1 = implicit_solve(model, t, h, y1)
            z2, s2 = implicit_solve(model, t, h, y2)
            solves += 2
            for y, s in ((y1, s1), (y2, s2)):
                ratio = s.final_residual / (tol_rel * (1.0 + np.linalg.norm(y)))
                worst_resid_ratio = max(worst_resid_ratio, ratio)
            gap_in = float(np.linalg.norm(y1 - y2))
            gap_out = float(np.linalg.norm(z1 - z2))
            slack = gap_out - gap_in / modulus
            worst_contraction_slack = max(worst_contraction_slack, slack)
    elapsed = time.perf_counter() - t0
    resid_ok = worst_resid_ratio <= 1.0
    contract_ok = worst_contraction_slack <= 1e-9
    _line(
        1, resid_ok and contract_ok, elapsed,
        f"{solves} solves; worst residual at {worst_resid_ratio:.3f} of tolerance; "
        f"worst contraction slack {worst_contraction_slack:.2e}",
    )
    assert resid_ok, f"residual exceeded tolerance (ratio {worst_resid_ratio:.3f})"
    assert contract_ok, f"contraction violated by {worst_contraction_slack:.2e}"
    assert elapsed < 10.0, f"criterion 1 exceeded its 10s budget ({elapsed:.1f}s)"


def test_criterion_2_two_path_contraction():
    """Two runs from 0.2 and -0.3 on shared noise at h = 0.05: the squared
    gap contracts at least by (1 + 2h(lambda_1 - C_f)) every step and falls
    below 1e-6 within two time units."""
    t0 = time.perf_counter()
    h = 0.05
    lat = NoiseLattice(seed=7, base_step=h)
    grid = make_grid(BENCH, lat, h, 0.0, 2.0)
    rep = coalescence(
        BENCH, grid, InitialCondition(value=[0.2]), InitialCondition(value=[-0.3]),
        lat, threshold=1e-6,
    )
    dist = rep.distances
    rho = 1.0 + 2.0 * h * (BENCH.lambda_min - BENCH.constants["C_f"])
    sq = dist**2
    stepwise_ok = bool(np.all(rho * sq[1:] <= sq[:-1] * (1.0 + 1e-9)))
    final_ok = dist[-1] < 1e-6
    hit = rep.first_below
    hit_ok = hit is not None and float(grid.times()[hit]) <= 2.0
    elapsed = time.perf_counter() - t0
    t_hit = float(grid.times()[hit]) if hit is not None else math.inf
    _line(
        2, stepwise_ok and final_ok and hit_ok, elapsed,
        f"gap 5.0e-01 -> {dist[-1]:.2e}; per-step squared contraction by {rho:.3f} "
        f"holds at every node; below 1e-6 from t={t_hit:g}",
    )
    assert stepwise_ok, "squared two-path gap contracted slower than the declared rate"
    assert hit_ok and final_ok, f"gap failed to reach 1e-6 within 2 time units ({dist[-1]:.2e})"


def test_criterion_3_shift_periodicity():
    """Pulling back 30 periods under one-period-shifted noise reproduces the
    path started one period later, within ten solver tolerances uniformly."""
    t0 = time.perf_counter()
    h = 2.0**-7
    lat = NoiseLattice(seed=13, base_step=h)
    rep = verify_shift_periodicity(BENCH, lat, h, pullback_periods=30)
    tol = 10.0 * RESIDUAL_TOL
    ok = rep.max_discrepancy <= tol
    elapsed = time.perf_counter() - t0
    _line(
        3, ok, elapsed,
        f"max shift discrepancy {rep.max_discrepancy:.3e} over one period "
        f"(tolerance {tol:.1e}, 30 pull-back periods)",
    )
    assert ok, f"shift identity violated: {rep.max_discrepancy:.3e} > {tol:.1e}"


def test_criterion_4_noise_free_periodic_limit():
    """With the noise off, the pulled-back path at h = 2^-8 matches the
    closed-form periodic solution within 5h uniformly over one period."""
    t0 = time.perf_counter()
    m = with_diffusion_amplitude(BENCH, 0.0)
    h = 2.0**-8
    a = 10.0 * math.pi
    lat = NoiseLattice(seed=0, base_step=h)
    path = random_periodic_path(m, lat, h, horizon=(0.0, 1.0))
    t = path.times
    exact = (a * np.sin(2 * np.pi * t) - 2 * np.pi * np.cos(2 * np.pi * t)) / (
        a**2 + 4 * np.pi**2
    )
    err = float(np.max(np.abs(path.states[:, 0] - exact)))
    ok = err <= 5.0 * h
    elapsed = time.perf_counter() - t0
    _line(4, ok, elapsed, f"max deviation {err:.2e} vs allowance {5.0 * h:.2e} (5h)")
    assert ok, f"noise-free limit missed: {err:.2e} > {5.0 * h:.2e}"


_BENCH_A = 10.0 * math.pi  # the builtin model's A; its drift is -A*x + sin(2*pi*t)
_BENCH_SIGMA = 0.05  # the builtin model's constant diffusion


def _exact_linear_run(h: float, scheme: str, pullback_periods: int):
    """Exact law of the builtin model's discrete state at t = 0.

    Started from x0 = 0 at ``-pullback_periods`` periods, each step of size
    ``h`` is the affine map ``x -> alpha*x + beta*(h*sin(2*pi*s) + sigma*dW)``:
    ``alpha = beta = 1/(1 + h*A)`` with ``s`` the step's right endpoint for
    the drift-implicit scheme, and ``alpha = 1 - h*A``, ``beta = 1`` with
    ``s`` its left endpoint for the explicit one.  So the state at t = 0 is
    ``mean + sum_i weights[i] * dW_i`` over the run's increments, in order.
    Returns ``(mean, weights)``.
    """
    n = round(1.0 / h)
    steps = pullback_periods * n
    idx = np.arange(-steps, 0)
    if scheme == "bem":
        alpha = beta = 1.0 / (1.0 + h * _BENCH_A)
        s = ((idx + 1) % n) * h
    else:
        alpha, beta = 1.0 - h * _BENCH_A, 1.0
        s = (idx % n) * h
    carry = alpha ** np.arange(steps - 1, -1, -1, dtype=np.float64)
    mean = math.fsum(carry * beta * h * np.sin(2.0 * np.pi * s))
    return mean, _BENCH_SIGMA * beta * carry


def _exact_rms(h: float, h_ref: float, scheme: str, pullback_periods: int) -> float:
    """Exact rms gap at t = 0 between ``scheme`` at step ``h`` and the
    implicit reference at ``h_ref`` driven by the same fine increments.

    A coarse increment is the sum of its ``h / h_ref`` fine ones, so each
    fine increment ``j`` (variance ``h_ref``) enters the coarse state with
    the weight of its coarse step, and
    ``E[err^2] = (mean - mean_ref)^2 + h_ref * sum_j (c_j - c_j_ref)^2``.
    """
    mean, weights = _exact_linear_run(h, scheme, pullback_periods)
    mean_ref, weights_ref = _exact_linear_run(h_ref, "bem", pullback_periods)
    gap = np.repeat(weights, round(h / h_ref)) - weights_ref
    return math.sqrt((mean - mean_ref) ** 2 + h_ref * math.fsum(gap * gap))


def test_criterion_5_strong_convergence():
    """Strong error against a shared-noise reference at h_ref = 2^-12 over
    1000 paths, h in {2^-4..2^-8}, compared at t = 0: the implicit scheme's
    fitted order lies in [0.5, 1.6], and every row of both schemes lies
    within 4 reported standard errors of the exact expected rms of the
    scheme as implemented (``_exact_rms``; 0.00341 implicit and 0.0458
    explicit at h = 2^-4).  The exact helper is first checked against the
    closed-form noise-free periodic limit of criterion 4."""
    t0 = time.perf_counter()
    h_ref = 2.0**-12
    k = 10
    k_se = 4.0
    assert BENCH.eigenvalues[0] == _BENCH_A and BENCH.diffusion(0.0) == _BENCH_SIGMA, (
        "the exact-rms helper no longer describes the builtin model"
    )
    ref_mean, _ = _exact_linear_run(h_ref, "bem", k)
    limit = -2.0 * np.pi / (_BENCH_A**2 + 4.0 * np.pi**2)
    helper_gap = abs(ref_mean - limit)
    print(f"  exact helper, noise-free reference at t=0: {ref_mean:.6e} vs periodic "
          f"limit {limit:.6e} (gap {helper_gap:.1e}, allowance {5.0 * h_ref:.1e})")
    assert helper_gap <= 5.0 * h_ref, (
        f"exact helper misses the periodic limit at t=0: gap {helper_gap:.2e} > 5*h_ref"
    )

    h_list = [2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7, 2.0**-8]
    common = dict(h_ref=h_ref, h_list=h_list, pullback_periods=k,
                  num_paths=1000, t_eval=0.0, seed=0)
    bem, em = strong_error(BENCH, scheme=("bem", "em"), **common)
    order = bem.fitted_order
    order_ok = order is not None and 0.5 <= order <= 1.6
    elapsed = time.perf_counter() - t0

    def check_rows(table, exact_rms, label):
        misses = []
        for r, exact in zip(table.rows, exact_rms):
            pull = abs(r.rms_error - exact) / r.standard_error
            ok = pull <= k_se  # False for a diverged (NaN) row
            row = (f"h=2^{int(math.log2(r.h))}: {r.rms_error:.6f}+-{r.standard_error:.6f} "
                   f"vs exact {exact:.6f} ({pull:.2f} se)")
            print(f"  {label} {row} -> {'ok' if ok else 'FAIL'}")
            if not ok:
                misses.append(row)
        return misses

    bem_exacts = [_exact_rms(h, h_ref, "bem", k) for h in h_list]
    em_exacts = [_exact_rms(h, h_ref, "em", k) for h in h_list]
    bem_miss = check_rows(bem, bem_exacts, "implicit")
    em_miss = check_rows(em, em_exacts, "explicit")
    bem_rms, em_rms = bem.rows[0].rms_error, em.rows[0].rms_error
    bem_exact, em_exact = bem_exacts[0], em_exacts[0]
    print(f"  implicit fitted order {order:.3f} (required [0.5, 1.6]) -> "
          f"{'ok' if order_ok else 'FAIL'}")
    print(f"  implicit rms at h=2^-4: {bem_rms:.5f} (exact {bem_exact:.5f}, required "
          f"within {k_se:g} se) -> {'FAIL' if bem_miss else 'ok'}")
    print(f"  explicit rms at h=2^-4: {em_rms:.5f} (exact {em_exact:.5f}, required "
          f"within {k_se:g} se) -> {'FAIL' if em_miss else 'ok'}")
    _line(
        5, order_ok and not bem_miss and not em_miss, elapsed,
        f"order {order:.3f}; rms at h=2^-4: implicit {bem_rms:.5f} (exact "
        f"{bem_exact:.5f}), explicit {em_rms:.5f} (exact {em_exact:.5f}); "
        f"rows outside {k_se:g} se of exact: {len(bem_miss) + len(em_miss)}",
    )
    assert order_ok, f"fitted order {order} outside [0.5, 1.6]"
    assert not em_miss, (
        f"explicit rms off the exact value by more than {k_se:g} standard errors: "
        + "; ".join(em_miss)
    )
    assert not bem_miss, (
        f"implicit rms off the exact value of the drift-implicit scheme (forcing at "
        f"the step's right endpoint, diffusion at its left) by more than {k_se:g} "
        f"standard errors: " + "; ".join(bem_miss)
    )
    assert elapsed < 300.0, f"criterion 5 exceeded its 5-minute budget ({elapsed:.0f}s)"


def test_criterion_6_explicit_blowup_containment():
    """At h = 2^-3 the explicit scheme must blow up and be flagged with NaN
    tails, while the implicit scheme on the very same grid and noise stays
    within ||xi|| + 1."""
    t0 = time.perf_counter()
    h = 2.0**-3
    lat = NoiseLattice(seed=2, base_step=h)
    grid = make_grid(BENCH, lat, h, 0.0, 5.0)
    xi = InitialCondition(value=[1.0])
    em_path = simulate(BENCH, grid, "em", xi, lat)
    bem_path = simulate(BENCH, grid, "bem", xi, lat)
    em_ok = (
        em_path.diverged
        and em_path.diverged_at is not None
        and bool(np.all(np.isnan(em_path.states[em_path.diverged_at :])))
    )
    bem_sup = float(np.max(np.abs(bem_path.states)))
    bem_ok = (not bem_path.diverged) and bem_sup <= 1.0 + 1.0
    elapsed = time.perf_counter() - t0
    t_div = (
        float(grid.times()[em_path.diverged_at]) if em_path.diverged_at is not None
        else math.inf
    )
    _line(
        6, em_ok and bem_ok, elapsed,
        f"explicit scheme flagged divergent at t={t_div:g}; implicit sup |X| = "
        f"{bem_sup:.3f} <= 2 on the same grid",
    )
    assert em_ok, "explicit scheme did not blow up (or was not flagged) at h=2^-3"
    assert bem_ok, f"implicit scheme exceeded ||xi|| + 1 (sup {bem_sup:.3f})"


def test_criterion_7_second_moment_bound():
    """sup_N E|X_N|^2 over [0, 2] at h = 2^-6 with 2000 paths from xi = 0
    stays within E|xi|^2 + (2 C_f + sigma^2) / (2 (lambda_1 - C_f)) plus
    three standard errors."""
    t0 = time.perf_counter()
    h = 2.0**-6
    grid = GridSpec(start_index=0, step_mult=1, count=128, period_steps=64,
                    base_step=h)
    est = moment_estimate(BENCH, grid, "bem", InitialCondition(value=[0.0]),
                          num_paths=2000, seed=11)
    ok = est.within_bound
    elapsed = time.perf_counter() - t0
    _line(
        7, ok, elapsed,
        f"sup E|X|^2 = {est.sup_mean_square:.3e} at t={est.time:g} vs bound "
        f"{est.bound:.3e} (+3 se = {est.bound + 3 * est.standard_error:.3e}, "
        f"2000 paths)",
    )
    assert ok, (
        f"moment bound violated: {est.sup_mean_square:.3e} > "
        f"{est.bound:.3e} + 3 * {est.standard_error:.3e}"
    )
    assert elapsed < 30.0, f"criterion 7 exceeded its 30s budget ({elapsed:.0f}s)"


def test_criterion_8_periodic_measure_convergence():
    """The empirical law from 5000 pulled-back paths is period-invariant up
    to the bootstrap noise floor, and its distance across step halvings
    decreases monotonically."""
    t0 = time.perf_counter()
    m = BENCH
    h = 2.0**-5
    seeds = derive_seeds(21, 5000)
    mu_t, mu_shift = periodic_measure(
        m, seeds, h, pullback_periods=2, t_list=[0.25, 1.25],
    )
    dist_shift = weak_distance(mu_t, mu_shift)
    floor = bootstrap_noise_floor(mu_t, n_bootstrap=200, seed=0)
    shift_ok = dist_shift <= 3.0 * floor

    study = measure_convergence_study(
        m, seeds, [2.0**-4, 2.0**-5, 2.0**-6], t=0.25, pullback_periods=2,
    )
    dists = study.distances()
    monotone_ok = study.monotone_decreasing
    elapsed = time.perf_counter() - t0
    print("  halving distances: " + ", ".join(
        f"d(h=2^{int(math.log2(p.h))}) = {p.distance:.2e}" for p in study.pairs))
    _line(
        8, shift_ok and monotone_ok, elapsed,
        f"law at t vs t+period: {dist_shift:.2e} <= 3x noise floor {floor:.2e}; "
        f"halving distances {', '.join(f'{d:.2e}' for d in dists)} strictly decrease",
    )
    assert shift_ok, (
        f"law not period-invariant at the sampling resolution: {dist_shift:.3e} "
        f"> 3 * {floor:.3e}"
    )
    assert monotone_ok, f"halving distances not monotone: {dists}"
    assert elapsed < 120.0, f"criterion 8 exceeded its 2-minute budget ({elapsed:.0f}s)"
