"""One repetition of one benchmark workload, run in a fresh process.

``run.py`` starts this script once per repetition with the BLAS/OpenMP
thread variables set to 1::

    python3 perfbench/child.py --workload NAME --seed N --size full|tiny \
        --trace 0|1 --spawned-at T --work DIR

``T`` is the parent's ``time.monotonic()`` just before the start, so
``setup_s`` covers interpreter start, importing ``randperiodic``, installing
the tracer and building the workload's inputs.  ``wall_s`` covers only the
workload's timed calls.  After them the script checks the outputs and
prints one JSON line (the last line of its standard output) holding the
timings, the output digest, the check errors and, when traced, the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 0
REL_TOL = 1e-9
BLOCK = 256  # analysis.DEFAULT_BLOCK_SIZE, used only for expected counts
H_LIST = [2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7, 2.0**-8]  # the `order` default

SIZES = {
    "strong_order": {
        "full": {"paths": 256, "h_ref": 2.0**-10, "pullback_periods": 4},
        "tiny": {"paths": 6, "h_ref": 2.0**-9, "pullback_periods": 1},
    },
    "measure_cubic": {
        "full": {"paths": 1280, "h": 2.0**-5, "t": (0.25, 1.25), "pullback_periods": 2,
                 "halvings": 3, "bootstrap": 200},
        "tiny": {"paths": 40, "h": 2.0**-5, "t": (0.25, 1.25), "pullback_periods": 1,
                 "halvings": 2, "bootstrap": 5},
    },
    "pinned_pullback": {
        "full": {"h": 2.0**-7, "r_max": 1.25, "shift_periods": 30},
        "tiny": {"h": 2.0**-5, "r_max": 0.5, "shift_periods": 2},
    },
}

# Scalar cubic drift with a periodic forcing; it passes `randperiodic check`.
CUBIC_MODEL = {
    "lambda": [10.0],
    "drift": {"poly_coeffs": [0, -1, 0, -2], "trig_amp": 1.5, "trig_freq": 1},
    "g": {"amp": 0.5},
    "tau": 1.0,
    "constants": {"C_f": 0.5, "sigma": 0.5},
}


def _cli(rp, argv: list[str]) -> None:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = rp.cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"randperiodic {argv[0]} exited with code {rc}: {err.getvalue()}")


def _read_csv(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines[1:] if line]


def _files_digest(work: Path) -> str:
    sha = hashlib.sha256()
    for f in sorted(p for p in work.iterdir() if p.suffix == ".csv"):
        sha.update(f.name.encode() + b"\0" + f.read_bytes())
    return sha.hexdigest()


# Each workload builds its inputs and returns (run, outputs): ``run()`` is
# the timed part, ``outputs()`` returns ({name: [floats]}, sha256 hex).


def strong_order(rp, p, seed, work):
    argv = ["order", "--out", str(work), "--seed", str(seed), "--scheme", "both",
            "--paths", str(p["paths"]), "--h-ref", repr(p["h_ref"]),
            "--pullback-periods", str(p["pullback_periods"])]

    def outputs():
        values = {}
        for scheme in ("bem", "em"):
            rows = _read_csv(work / f"error_table_{scheme}.csv")
            values[f"{scheme}.h"] = [float(r[0]) for r in rows]
            values[f"{scheme}.rms"] = [float(r[1]) for r in rows]
        return values, _files_digest(work)

    return (lambda: _cli(rp, argv)), outputs


def measure_cubic(rp, p, seed, work):
    model_path = work / "cubic_model.json"
    model_path.write_text(json.dumps(CUBIC_MODEL), encoding="utf-8")
    argv = ["measure", "--model", str(model_path), "--out", str(work), "--seed", str(seed),
            "--paths", str(p["paths"]), "--h", repr(p["h"]),
            "--pullback-periods", str(p["pullback_periods"]),
            "--halvings", str(p["halvings"]), "--bootstrap", str(p["bootstrap"])]
    for t in p["t"]:
        argv += ["--t", repr(t)]

    def outputs():
        values = {"distances": [float(r[2]) for r in _read_csv(work / "measure_distances.csv")]}
        for t in p["t"]:
            label = repr(t).replace("-", "m").replace(".", "p")
            x = np.array([float(r[2]) for r in _read_csv(work / f"measure_t{label}.csv")])
            values[f"summary.t{t!r}"] = [x.mean(), x.std(ddof=1), x.min(), x.max()]
        return values, _files_digest(work)

    return (lambda: _cli(rp, argv)), outputs


def pinned_pullback(rp, p, seed, work):
    h = p["h"]
    model = rp.builtin_benchmark()
    lattice = rp.NoiseLattice(seed, h)
    results = {}

    def run():
        for scheme in ("bem", "em"):
            results[scheme] = rp.pullback_pinned_path(
                model, lattice, h, r_max=p["r_max"], scheme=scheme
            )
        results["shift"] = rp.verify_shift_periodicity(
            model, lattice, h, pullback_periods=p["shift_periods"]
        )

    def outputs():
        sha = hashlib.sha256()
        values = {}
        for scheme in ("bem", "em"):
            v = np.ascontiguousarray(results[scheme].values[:, 0], dtype=np.float64)
            sha.update(v.tobytes())
            values[f"{scheme}.values"] = v.tolist()
        disc = results["shift"].max_discrepancy
        sha.update(repr(disc).encode())
        values["shift_discrepancy"] = [disc]
        return values, sha.hexdigest()

    return run, outputs


WORKLOADS = {"strong_order": strong_order, "measure_cubic": measure_cubic,
             "pinned_pullback": pinned_pullback}


def check_outputs(name: str, size: str, seed: int, values: dict, reference: bool = True
                  ) -> list[str]:
    """Invariants on every seed, plus the committed reference on the default
    seed at full size.  Statistical invariants apply only at full size."""
    errors = []
    for key, vals in values.items():
        if not all(math.isfinite(v) for v in vals):
            errors.append(f"{key}: non-finite output")
    if name == "strong_order" and size == "full":
        slope = float(np.polyfit(np.log2(values["bem.h"]), np.log2(values["bem.rms"]), 1)[0])
        if not 0.5 <= slope <= 1.6:
            errors.append(f"bem fitted order {slope:.4f} outside [0.5, 1.6]")
    if name == "measure_cubic" and size == "full":
        d = values["distances"]
        if not all(a > b for a, b in zip(d, d[1:])):
            errors.append(f"halving distances do not strictly decrease: {d}")
    if name == "pinned_pullback" and values["shift_discrepancy"] != [0.0]:
        errors.append(f"shift discrepancy {values['shift_discrepancy'][0]!r} is not exactly 0.0")
    if reference and seed == DEFAULT_SEED and size == "full":
        ref = json.loads(REFERENCE.read_text(encoding="utf-8"))[name]
        for key, want in ref.items():
            got = values.get(key, [])
            if len(got) != len(want) or any(
                abs(a - b) > REL_TOL * max(abs(a), abs(b)) for a, b in zip(got, want)
            ):
                errors.append(f"{key}: differs from the reference by more than {REL_TOL} relative")
    return errors


def expected_counts(name: str, p: dict) -> dict[str, float]:
    """Exact per-layer counts of this program on workload ``name``, derived
    from its parameters (every model here has period 1)."""
    if name == "strong_order":
        blocks = math.ceil(p["paths"] / BLOCK)
        levels = len(H_LIST)
        ref = p["pullback_periods"] * round(1 / p["h_ref"])
        coarse = sum(p["pullback_periods"] * round(1 / h) for h in H_LIST)
        drives_per_path = 2 * (levels + 1)  # reference plus each level, per scheme
        return {
            "noise.calls": p["paths"] * drives_per_path,
            "noise.words": p["paths"] * drives_per_path * ref,
            "noise.unique_frac": 1 / drives_per_path,
            # the bem table runs its reference and bem levels; the em table
            # runs a bem reference and em levels
            "stepper.calls": blocks * (2 * ref + coarse) + blocks * coarse,
            "pullback.drive_calls": blocks * drives_per_path,
        }
    if name == "measure_cubic":
        drives_per_path = 1 + 2 * p["halvings"]
        return {
            "noise.calls": p["paths"] * drives_per_path,
            "pullback.drive_calls": math.ceil(p["paths"] / BLOCK) * drives_per_path,
        }
    depths = round(p["r_max"] / p["h"])
    return {
        "stepper.calls": depths * (depths + 1) + 2 * p["shift_periods"] * round(1 / p["h"]),
        "pullback.drive_calls": 2 * depths + 2,
    }


def count_checks(name: str, p: dict, metrics: dict, counts: dict) -> list[dict]:
    """Compare traced metrics with :func:`expected_counts`, and implicit
    path-steps counted at the stepper with those counted at ``_drive``."""
    checks = [
        {"name": key, "expected": want, "got": metrics.get(key),
         "ok": metrics.get(key) is not None and abs(metrics[key] - want) <= 1e-12 * abs(want)}
        for key, want in expected_counts(name, p).items()
    ]
    bem_s, bem_p = counts["stepper.path_steps_bem"], counts["pullback.path_steps_bem"]
    checks.append({"name": "stepper.path_steps_bem == pullback.path_steps_bem",
                   "expected": bem_p, "got": bem_s, "ok": bem_s == bem_p})
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", dest="spawned_at", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--no-reference", dest="no_reference", action="store_true",
                        help="skip the reference comparison (used to write the reference)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import randperiodic as rp
    import randperiodic.cli  # noqa: F401  (not imported by the package itself)

    if SRC not in Path(rp.__file__).resolve().parents:
        print(f"randperiodic imported from {rp.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(rp)

    p = SIZES[args.workload][args.size]
    run, outputs = WORKLOADS[args.workload](rp, p, args.seed, args.work)
    result = {"ok": False, "errors": [], "digest": None}
    result["setup_s"] = time.monotonic() - args.spawned_at
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        run()
    except Exception:
        result["errors"].append(traceback.format_exc(limit=4))
    result["wall_s"] = time.perf_counter() - t0
    result["cpu_s"] = time.process_time() - c0
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    if not result["errors"]:
        try:
            values, result["digest"] = outputs()
            result["values"] = values
            result["errors"] += check_outputs(
                args.workload, args.size, args.seed, values, reference=not args.no_reference
            )
        except (OSError, ValueError, IndexError, KeyError) as exc:
            result["errors"].append(f"unreadable output: {exc!r}")
    if tracer is not None:
        metrics = tracer.metrics()
        result["trace"] = {
            "metrics": metrics,
            "missing": tracer.missing,
            "count_checks": count_checks(args.workload, p, metrics, tracer.counts),
        }
    result["ok"] = not result["errors"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
