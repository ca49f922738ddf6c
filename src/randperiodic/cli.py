"""Command-line interface for the library.

Subcommands::

    simulate     pull back one path and write its trajectory as CSV
    periodicity  check the shift identity and two-path coalescence
    order        strong-error table and fitted convergence order
    measure      sample the time-t law; optionally compare step halvings
    check        validate a model against the standing assumptions

Every subcommand accepts ``--config FILE`` pointing at a JSON object whose
keys match the long option names (underscores for dashes).  Explicit flags
override config values, which override built-in defaults.

Exit codes: 0 success, 1 numerical failure (non-convergence, blow-up, or a
failed check), 2 configuration error (bad flags, files, or alignment).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any, Mapping, Sequence

import numpy as np

from .analysis import (
    bootstrap_noise_floor,
    measure_convergence_study,
    periodic_measure,
    strong_error,
    write_error_table_csv,
    write_measure_csv,
    write_order_csv,
)
from .model import InitialCondition, ModelSpec, check_assumptions, load_model
from .noise import AlignmentError, NoiseLattice, derive_seeds
from .pullback import (
    _check_threshold,
    _grid_on,
    coalescence,
    default_pullback_periods,
    random_periodic_path,
    verify_shift_periodicity,
    write_trajectory_csv,
)
from .stepper import RESIDUAL_TOL

_KNOWN_CONFIG_KEYS = {
    "model", "out", "seed", "h", "scheme", "t0", "t1",
    "pullback_periods", "h_ref", "h_list", "paths", "t_eval", "t",
    "halvings", "threshold", "coalesce_periods", "samples", "radius",
    "bootstrap",
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    try:
        config = _load_config(args.config)
        return args.handler(args, config)
    except RuntimeError as exc:  # non-convergence, blow-up, non-finite drift
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randperiodic",
        description="Random periodic paths of monotone-drift systems by pull-back.",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON file with default option values")
        p.add_argument("--model", help="built-in model name or JSON model file")
        p.add_argument("--out", help="output directory (default: current)")
        p.add_argument("--seed", type=int, help="master seed (default: 0)")

    p_sim = sub.add_parser("simulate", help="pull back one path and write a trajectory CSV")
    common(p_sim)
    p_sim.add_argument("--h", type=float, help="step size (default: 2^-7)")
    p_sim.add_argument("--scheme", choices=("bem", "em"), help="time stepper (default: bem)")
    p_sim.add_argument("--t0", type=float, help="first recorded time (default: 0)")
    p_sim.add_argument("--t1", type=float, help="last recorded time (default: one period)")
    p_sim.add_argument("--pullback-periods", dest="pullback_periods", type=int,
                       help="periods to pull back (default: from the contraction envelope)")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_per = sub.add_parser("periodicity", help="shift identity and coalescence checks")
    common(p_per)
    p_per.add_argument("--h", type=float, help="step size (default: 2^-7)")
    p_per.add_argument("--pullback-periods", dest="pullback_periods", type=int,
                       help="periods to pull back (default: 30)")
    p_per.add_argument("--threshold", type=float,
                       help="coalescence distance threshold (default: 1e-6)")
    p_per.add_argument("--coalesce-periods", dest="coalesce_periods", type=int,
                       help="forward window for coalescence, in periods (default: 2)")
    p_per.set_defaults(handler=_cmd_periodicity)

    p_ord = sub.add_parser("order", help="strong-error table and convergence order")
    common(p_ord)
    p_ord.add_argument("--h-ref", dest="h_ref", type=float,
                       help="reference step size (default: 2^-12)")
    p_ord.add_argument("--h-list", dest="h_list", action="append",
                       help="coarse steps, comma-separated or repeated "
                            "(default: 2^-4..2^-8)")
    p_ord.add_argument("--paths", type=int, help="Monte Carlo paths (default: 1000)")
    p_ord.add_argument("--t-eval", dest="t_eval", type=float,
                       help="comparison time (default: 0)")
    p_ord.add_argument("--pullback-periods", dest="pullback_periods", type=int,
                       help="periods to pull back (default: 10)")
    p_ord.add_argument("--scheme", choices=("bem", "em", "both"),
                       help="scheme(s) to study (default: both)")
    p_ord.set_defaults(handler=_cmd_order)

    p_mea = sub.add_parser("measure", help="sample the time-t law by pull-back")
    common(p_mea)
    p_mea.add_argument("--h", type=float, help="step size (default: 2^-7)")
    p_mea.add_argument("--paths", type=int, help="independent paths (default: 2000)")
    p_mea.add_argument("--t", action="append",
                       help="sampling times, comma-separated or repeated (default: 0)")
    p_mea.add_argument("--pullback-periods", dest="pullback_periods", type=int,
                       help="periods to pull back (default: from the contraction envelope)")
    p_mea.add_argument("--halvings", type=int,
                       help="number of step-halving comparisons (default: 0)")
    p_mea.add_argument("--bootstrap", type=int,
                       help="bootstrap resamples for the noise floor (default: 100)")
    p_mea.set_defaults(handler=_cmd_measure)

    p_chk = sub.add_parser("check", help="validate a model against the assumptions")
    common(p_chk)
    p_chk.add_argument("--samples", type=int, help="sample points (default: 1000)")
    p_chk.add_argument("--radius", type=float, help="sampling ball radius (default: 5)")
    p_chk.set_defaults(handler=_cmd_check)

    return parser


def _load_config(path: str | None) -> dict[str, Any]:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON in config file {path}: {exc}") from exc
    if not isinstance(data, Mapping):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = set(data) - _KNOWN_CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return dict(data)


def _opt(args: argparse.Namespace, config: Mapping[str, Any], key: str, default):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _whole_opt(args: argparse.Namespace, config: Mapping[str, Any], key: str, default):
    """:func:`_opt` as an int, or None; a bool or a number that is not whole raises."""
    value = _opt(args, config, key, default)
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{key} must be a whole number, got {value!r}")
    return None if value is None else int(value)


def _float_opt(args: argparse.Namespace, config: Mapping[str, Any], key: str, default) -> float:
    """:func:`_opt` as a float; a bool, which ``float`` would read as 0 or 1, raises."""
    return _float(_opt(args, config, key, default), key)


def _float(value, key: str) -> float:
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def _setup(args, config) -> tuple[ModelSpec, str, int]:
    model_src = _opt(args, config, "model", "builtin")
    model = load_model(model_src)
    out_dir = str(_opt(args, config, "out", "."))
    os.makedirs(out_dir, exist_ok=True)
    seed = _whole_opt(args, config, "seed", 0)
    return model, out_dir, seed


def _parse_float_list(value, key: str) -> list[float]:
    if isinstance(value, str):
        parts = [p for p in value.replace(";", ",").split(",") if p.strip()]
        return [float(p) for p in parts]
    if np.isscalar(value):
        return [_float(value, key)]
    out: list[float] = []
    for v in value:
        out.extend(_parse_float_list(v, key))
    return out


def _cmd_simulate(args, config) -> int:
    model, out_dir, seed = _setup(args, config)
    h = _float_opt(args, config, "h", 2.0**-7)
    scheme = str(_opt(args, config, "scheme", "bem"))
    t0 = _float_opt(args, config, "t0", 0.0)
    t1 = _float_opt(args, config, "t1", model.period)
    k = _whole_opt(args, config, "pullback_periods", None)
    lattice = NoiseLattice(seed, h, model.dimension)
    result = random_periodic_path(
        model, lattice, h, pullback_periods=k, horizon=(t0, t1), scheme=scheme,
    )
    k_used = k if k is not None else default_pullback_periods(model, h)
    path = os.path.join(out_dir, "trajectory.csv")
    write_trajectory_csv(result, path, pullback_periods=k_used)
    print(f"scheme={result.scheme} h={h!r} pullback_periods={k_used} "
          f"nodes={result.grid.count + 1} seed={result.seed}")
    print(f"wrote {path}")
    if result.diverged:
        t_div = (result.grid.start_index + result.diverged_at) * h
        print(f"numerical failure: path diverged at t={t_div!r}", file=sys.stderr)
        return 1
    final = result.states[-1]
    print(f"state at t={result.grid.t_end!r}: {np.array2string(final, precision=8)}")
    return 0


def _cmd_periodicity(args, config) -> int:
    model, _, seed = _setup(args, config)
    h = _float_opt(args, config, "h", 2.0**-7)
    k = _whole_opt(args, config, "pullback_periods", 30)
    threshold = _float_opt(args, config, "threshold", 1e-6)
    windows = _whole_opt(args, config, "coalesce_periods", 2)
    # the checks of make_grid and coalescence, made before the lattice is
    # built or any path simulated; verify_shift_periodicity checks k before
    # it simulates
    grid = _grid_on(model, h, h, 0.0, windows * model.period)
    _check_threshold(threshold)
    lattice = NoiseLattice(seed, h, model.dimension)

    report = verify_shift_periodicity(model, lattice, h, pullback_periods=k)
    tol = 10.0 * RESIDUAL_TOL
    shift_ok = report.max_discrepancy <= tol
    print(f"shift identity: max discrepancy {report.max_discrepancy:.3e} over one period "
          f"(tolerance {tol:.1e}) -> {'PASS' if shift_ok else 'FAIL'}")

    d = model.dimension
    init_a = InitialCondition(value=0.2 * np.ones(d))
    init_b = InitialCondition(value=-0.3 * np.ones(d))
    co = coalescence(model, grid, init_a, init_b, lattice, threshold=threshold)
    if co.first_below is not None:
        t_co = float(grid.times()[co.first_below])
        print(f"coalescence: gap below {threshold:g} from t={t_co!r} "
              f"(initial gap {co.distances[0]:.3e}) -> PASS")
        co_ok = True
    else:
        print(f"coalescence: gap stayed above {threshold:g} over {windows} period(s) "
              f"(final gap {co.distances[-1]:.3e}) -> FAIL")
        co_ok = False
    return 0 if (shift_ok and co_ok) else 1


_DEFAULT_H_LIST = [2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7, 2.0**-8]


def _cmd_order(args, config) -> int:
    model, out_dir, seed = _setup(args, config)
    h_ref = _float_opt(args, config, "h_ref", 2.0**-12)
    h_list = _parse_float_list(_opt(args, config, "h_list", _DEFAULT_H_LIST), "h_list")
    paths = _whole_opt(args, config, "paths", 1000)
    t_eval = _float_opt(args, config, "t_eval", 0.0)
    k = _whole_opt(args, config, "pullback_periods", 10)
    which = str(_opt(args, config, "scheme", "both"))
    schemes = ("bem", "em") if which == "both" else (which,)

    tables = dict(zip(schemes, strong_error(
        model, h_ref, h_list, k, paths, t_eval=t_eval, seed=seed, scheme=schemes,
    )))
    for scheme, table in tables.items():
        err_path = os.path.join(out_dir, f"error_table_{scheme}.csv")
        fit_path = os.path.join(out_dir, f"order_{scheme}.csv")
        write_error_table_csv(table, err_path)
        write_order_csv(table, fit_path)
        print(f"scheme={scheme} reference h={h_ref!r} paths={paths} t_eval={t_eval!r}")
        for row in table.rows:
            if row.diverged:
                print(f"  h={row.h!r}  DIVERGED")
            else:
                print(f"  h={row.h!r}  rms={row.rms_error:.6e}  se={row.standard_error:.2e}")
        if table.fitted_order is not None:
            print(f"  fitted order: {table.fitted_order:.3f}")
        else:
            print("  fitted order: not available (fewer than 3 usable rows)")
        print(f"  wrote {err_path} and {fit_path}")
    if len(tables) == 2:
        b = tables["bem"].rows[0]
        e = tables["em"].rows[0]
        if not (b.diverged or e.diverged) and b.rms_error > 0:
            print(f"em/bem rms ratio at h={b.h!r}: {e.rms_error / b.rms_error:.2f}")
    return 0


def _cmd_measure(args, config) -> int:
    model, out_dir, seed = _setup(args, config)
    h = _float_opt(args, config, "h", 2.0**-7)
    paths = _whole_opt(args, config, "paths", 2000)
    t_list = _parse_float_list(_opt(args, config, "t", [0.0]), "t")
    k = _whole_opt(args, config, "pullback_periods", None)
    if k is None:
        k = default_pullback_periods(model, h)
    halvings = _whole_opt(args, config, "halvings", 0)
    n_boot = _whole_opt(args, config, "bootstrap", 100)
    if halvings < 0:
        raise ValueError(f"halvings must be >= 0, got {halvings}")
    # the checks of write_measure_csv, bootstrap_noise_floor and
    # weak_distance, made before any path is simulated
    if model.dimension != 1:
        raise ValueError(f"measure supports scalar models only, got dimension {model.dimension}")
    if n_boot < 1:
        raise ValueError(f"n_bootstrap must be >= 1, got {n_boot}")

    seeds = derive_seeds(seed, paths)
    measures = periodic_measure(model, seeds, h, k, t_list)
    for mu in measures:
        label = repr(mu.t).replace("-", "m").replace(".", "p")
        path = os.path.join(out_dir, f"measure_t{label}.csv")
        write_measure_csv(mu, path)
        values = mu.samples[:, 0]
        print(f"t={mu.t!r}: {mu.num_samples} samples, mean={values.mean():.6e}, "
              f"std={values.std(ddof=1):.3e}; wrote {path}")
    floor = bootstrap_noise_floor(measures[0], n_bootstrap=n_boot, seed=seed)
    print(f"bootstrap noise floor at t={measures[0].t!r}: {floor:.3e} "
          f"({n_boot} resamples, {paths} samples)")
    if halvings > 0:
        h_values = [h * 2.0**i for i in range(halvings - 1, -1, -1)]
        study = measure_convergence_study(model, seeds, h_values, t_list[0], k)
        dist_path = os.path.join(out_dir, "measure_distances.csv")
        with open(dist_path, "w", encoding="utf-8", newline="") as fh:
            fh.write("h,h_half,distance,ratio_to_sqrt_h\n")
            for p in study.pairs:
                fh.write(f"{p.h!r},{p.h_half!r},{p.distance!r},{p.ratio_to_sqrt_h!r}\n")
        for p in study.pairs:
            print(f"distance(law at h={p.h!r}, law at h={p.h_half!r}) = {p.distance:.6e} "
                  f"[{p.ratio_to_sqrt_h:.3f} * sqrt(h)]")
        trend = "decreasing" if study.monotone_decreasing else "NOT monotone"
        print(f"distances across halvings: {trend}; wrote {dist_path}")
    return 0


def _cmd_check(args, config) -> int:
    model, _, seed = _setup(args, config)
    samples = _whole_opt(args, config, "samples", 1000)
    radius = _float_opt(args, config, "radius", 5.0)
    report = check_assumptions(model, sample_count=samples, radius=radius, seed=seed)
    for line in report.lines():
        print(line)
    if report.passed:
        print(f"model '{model.name}': all checks passed")
        return 0
    print(f"model '{model.name}': {len(report.violations)} check(s) failed", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
