"""Command-line interface for the library.

Subcommands::

    simulate     pull back one path and write its trajectory as CSV
    periodicity  check the shift identity and two-path coalescence
    order        strong-error table and fitted convergence order
    measure      sample the time-t law; optionally compare step halvings
    check        validate a model against the standing assumptions

Each option is stated once, in one table (``_COMMON`` for every subcommand,
``_COMMANDS`` for each): name, kind, default and help.  The parser, the
config keys and the defaults are built from it, and ``--help`` shows each
default.  Every subcommand accepts ``--config FILE`` pointing at a JSON
object whose keys match the long option names (underscores for dashes).
Explicit flags override config values, which override the defaults; a
null config value counts as absent.

This is the only module that writes files: each subcommand formats its
rows and ``_write_csv`` writes them, after any ``#key=value`` lines and the
header.

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
)
from .model import InitialCondition, ModelSpec, check_assumptions, load_model
from .noise import NoiseLattice, derive_seeds
from .pullback import (
    _check_threshold,
    _grid_on,
    coalescence,
    default_pullback_periods,
    random_periodic_path,
    verify_shift_periodicity,
)
from .stepper import RESIDUAL_TOL

# (name, kind, default, help) of every option.  A kind is int (a whole
# number), float, list (of numbers), a tuple of choices or None (text, as
# given); a default of None is worked out from the model by the handler.
_COMMON = (
    ("model", None, "builtin", "built-in model name or JSON model file"),
    ("out", None, ".", "output directory"),
    ("seed", int, 0, "master seed"),
)
_COMMANDS = {
    "simulate": ("pull back one path and write a trajectory CSV", (
        ("h", float, 2.0**-7, "step size"),
        ("scheme", ("bem", "em"), "bem", "time stepper"),
        ("t0", float, 0.0, "first recorded time"),
        ("t1", float, None, "last recorded time (default: one period)"),
        ("pullback_periods", int, None,
         "periods to pull back (default: from the contraction envelope)"),
    )),
    "periodicity": ("shift identity and coalescence checks", (
        ("h", float, 2.0**-7, "step size"),
        ("pullback_periods", int, 30, "periods to pull back"),
        ("threshold", float, 1e-6, "coalescence distance threshold"),
        ("coalesce_periods", int, 2, "forward window for coalescence, in periods"),
    )),
    "order": ("strong-error table and convergence order", (
        ("h_ref", float, 2.0**-12, "reference step size"),
        ("h_list", list, [2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7, 2.0**-8],
         "coarse steps, comma-separated or repeated"),
        ("paths", int, 1000, "Monte Carlo paths"),
        ("t_eval", float, 0.0, "comparison time"),
        ("pullback_periods", int, 10, "periods to pull back"),
        ("scheme", ("bem", "em", "both"), "both", "scheme(s) to study"),
    )),
    "measure": ("sample the time-t law by pull-back", (
        ("h", float, 2.0**-7, "step size"),
        ("paths", int, 2000, "independent paths"),
        ("t", list, [0.0], "sampling times, comma-separated or repeated"),
        ("pullback_periods", int, None,
         "periods to pull back (default: from the contraction envelope)"),
        ("halvings", int, 0, "number of step-halving comparisons"),
        ("bootstrap", int, 100, "bootstrap resamples for the noise floor"),
    )),
    "check": ("validate a model against the assumptions", (
        ("samples", int, 1000, "sample points"),
        ("radius", float, 5.0, "sampling ball radius"),
    )),
}
_KNOWN_CONFIG_KEYS = {opt[0] for _, opts in _COMMANDS.values() for opt in _COMMON + opts}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    try:
        _resolve(args, _load_config(args.config))
        return args.handler(args)
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
    for command, (summary, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="JSON file with default option values")
        for key, kind, default, text in _COMMON + options:
            if default is not None:
                shown = ",".join(map(str, default)) if kind is list else default
                text = f"{text} (default: {shown})"
            how = ({"action": "append"} if kind is list
                   else {"choices": kind} if isinstance(kind, tuple) else {"type": kind})
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=text, **how)
        p.set_defaults(handler=globals()["_cmd_" + command])
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


def _resolve(args: argparse.Namespace, config: Mapping[str, Any]) -> None:
    """Set each option of ``args.command`` to its flag, else its non-null
    config value, else its default, read as its kind; other subcommands'
    keys are ignored."""
    for key, kind, default, _ in _COMMON + _COMMANDS[args.command][1]:
        value = getattr(args, key)
        if value is None:
            value = config.get(key)
        if value is None:
            value = default
        setattr(args, key, None if value is None else _value(kind, key, value))


def _value(kind, key: str, value):
    """``value`` read as ``kind``; a bool, or a number that is not whole where
    a whole number is wanted, raises."""
    if kind is int:
        if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{key} must be a whole number, got {value!r}")
        return int(value)
    if kind is float:
        if isinstance(value, (bool, np.bool_)):
            raise ValueError(f"{key} must be a number, got {value!r}")
        return float(value)
    if kind is list:
        return _parse_float_list(value, key)
    return value if kind is None else str(value)


def _setup(args) -> tuple[ModelSpec, str]:
    model = load_model(args.model)
    out_dir = str(args.out)
    os.makedirs(out_dir, exist_ok=True)
    return model, out_dir


def _write_csv(path: str, header: str, lines, meta=()) -> None:
    """Write ``#key=value`` for each pair of ``meta``, then ``header``, then
    each of ``lines`` (rows already formatted), one a line."""
    text = "\n".join([*(f"#{key}={value}" for key, value in meta), header, *lines])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text + "\n")


def _parse_float_list(value, key: str) -> list[float]:
    if isinstance(value, str):
        parts = [p for p in value.replace(";", ",").split(",") if p.strip()]
        return [float(p) for p in parts]
    if np.isscalar(value):
        return [_value(float, key, value)]
    out: list[float] = []
    for v in value:
        out.extend(_parse_float_list(v, key))
    return out


def _cmd_simulate(args) -> int:
    model, out_dir = _setup(args)
    h, k = args.h, args.pullback_periods
    t1 = model.period if args.t1 is None else args.t1
    lattice = NoiseLattice(args.seed, h, model.dimension)
    result = random_periodic_path(
        model, lattice, h, pullback_periods=k, horizon=(args.t0, t1), scheme=args.scheme,
    )
    k_used = k if k is not None else default_pullback_periods(model, h)
    path = os.path.join(out_dir, "trajectory.csv")
    _write_csv(
        path, "t," + ",".join(f"x_{c + 1}" for c in range(model.dimension)),
        (",".join(map(repr, [t, *x]))
         for t, x in zip(result.times.tolist(), result.states.tolist())),
        meta=(("scheme", result.scheme), ("seed", result.seed), ("h", repr(result.grid.h)),
              ("k", k_used)),
    )
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


def _cmd_periodicity(args) -> int:
    model, _ = _setup(args)
    h, threshold, windows = args.h, args.threshold, args.coalesce_periods
    # the checks of make_grid and coalescence, made before the lattice is
    # built or any path simulated; verify_shift_periodicity checks k before
    # it simulates
    grid = _grid_on(model, h, h, 0.0, windows * model.period)
    _check_threshold(threshold)
    lattice = NoiseLattice(args.seed, h, model.dimension)

    report = verify_shift_periodicity(model, lattice, h, pullback_periods=args.pullback_periods)
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


def _cmd_order(args) -> int:
    model, out_dir = _setup(args)
    h_ref, paths, t_eval = args.h_ref, args.paths, args.t_eval
    schemes = ("bem", "em") if args.scheme == "both" else (args.scheme,)

    tables = dict(zip(schemes, strong_error(
        model, h_ref, args.h_list, args.pullback_periods, paths, t_eval=t_eval,
        seed=args.seed, scheme=schemes,
    )))
    for scheme, table in tables.items():
        err_path = os.path.join(out_dir, f"error_table_{scheme}.csv")
        fit_path = os.path.join(out_dir, f"order_{scheme}.csv")
        _write_csv(err_path, "h,rms_error,standard_error,num_paths,diverged", (
            f"{r.h!r},{r.rms_error!r},{r.standard_error!r},{r.num_paths},"
            f"{'true' if r.diverged else 'false'}" for r in table.rows))
        _write_csv(fit_path, "log2_h,log2_error", (
            f"{math.log2(r.h)!r},{math.log2(r.rms_error)!r}" for r in table.valid_rows()))
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


def _cmd_measure(args) -> int:
    model, out_dir = _setup(args)
    h, paths, t_list, seed = args.h, args.paths, args.t, args.seed
    k = args.pullback_periods
    k = default_pullback_periods(model, h) if k is None else k
    halvings, n_boot = args.halvings, args.bootstrap
    if halvings < 0:
        raise ValueError(f"halvings must be >= 0, got {halvings}")
    # the measure files hold scalar samples; this check and those of
    # bootstrap_noise_floor and weak_distance are made before any path is
    # simulated
    if model.dimension != 1:
        raise ValueError(f"measure supports scalar models only, got dimension {model.dimension}")
    if n_boot < 1:
        raise ValueError(f"n_bootstrap must be >= 1, got {n_boot}")

    seeds = derive_seeds(seed, paths)
    measures = periodic_measure(model, seeds, h, k, t_list)
    for mu in measures:
        label = repr(mu.t).replace("-", "m").replace(".", "p")
        path = os.path.join(out_dir, f"measure_t{label}.csv")
        values = mu.samples[:, 0]
        _write_csv(path, "t,sample_index,value",
                   (f"{mu.t!r},{i},{v!r}" for i, v in enumerate(values.tolist())))
        print(f"t={mu.t!r}: {mu.num_samples} samples, mean={values.mean():.6e}, "
              f"std={values.std(ddof=1):.3e}; wrote {path}")
    floor = bootstrap_noise_floor(measures[0], n_bootstrap=n_boot, seed=seed)
    print(f"bootstrap noise floor at t={measures[0].t!r}: {floor:.3e} "
          f"({n_boot} resamples, {paths} samples)")
    if halvings > 0:
        h_values = [h * 2.0**i for i in range(halvings - 1, -1, -1)]
        study = measure_convergence_study(model, seeds, h_values, t_list[0], k)
        dist_path = os.path.join(out_dir, "measure_distances.csv")
        _write_csv(dist_path, "h,h_half,distance,ratio_to_sqrt_h", (
            f"{p.h!r},{p.h_half!r},{p.distance!r},{p.ratio_to_sqrt_h!r}" for p in study.pairs))
        for p in study.pairs:
            print(f"distance(law at h={p.h!r}, law at h={p.h_half!r}) = {p.distance:.6e} "
                  f"[{p.ratio_to_sqrt_h:.3f} * sqrt(h)]")
        trend = "decreasing" if study.monotone_decreasing else "NOT monotone"
        print(f"distances across halvings: {trend}; wrote {dist_path}")
    return 0


def _cmd_check(args) -> int:
    model, _ = _setup(args)
    report = check_assumptions(model, sample_count=args.samples, radius=args.radius,
                               seed=args.seed)
    for line in report.lines():
        print(line)
    if report.passed:
        print(f"model '{model.name}': all checks passed")
        return 0
    print(f"model '{model.name}': {len(report.violations)} check(s) failed", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
