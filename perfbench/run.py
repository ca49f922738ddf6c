"""Benchmark of randperiodic: end-to-end metrics, or per-layer metrics traced.

Run from the root of a checkout::

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each repetition of a workload runs in a fresh single-threaded child process
(``child.py``).  Repetitions are started until ``--seconds`` is used up (at
least three, or two traced pairs), and medians are reported.

``--trace 0`` reports the end-to-end metrics ``wall_s``, ``setup_s`` and
``peak_rss_mib``.  ``--trace 1`` alternates untraced and traced repetitions
and reports the per-layer metrics of ``tracer.METRICS``, including
``trace.overhead_frac``.  A repetition fails on an exception, a nonzero CLI
exit code or a failed output check; ``failed_frac`` is failed / attempted.

The full record (provenance, every repetition, output digests and count
cross-checks) is printed first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload and also prints a table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from child import DEFAULT_SEED, SIZES, WORKLOADS  # noqa: E402
from tracer import COUNT_METRICS, METRICS  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
REP_KEYS = ("ok", "wall_s", "cpu_s", "setup_s", "peak_rss_mib", "digest")
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
RUN_LIMIT_S = 170.0  # every run must end within 180 s


def spawn(name: str, seed: int, size: str, trace: int, timeout: float,
          no_reference: bool = False) -> dict:
    """Run one repetition in a fresh process and return its record."""
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", name, "--seed", str(seed),
           "--size", size, "--trace", str(trace), "--work", str(work)]
    if no_reference:
        cmd.append("--no-reference")
    try:
        cmd += ["--spawned-at", repr(time.monotonic())]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "trace_flag": trace, "errors": [f"timed out after {timeout:.0f} s"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        rec = {"ok": False, "errors": [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]}
    if proc.returncode != 0:
        rec["ok"] = False
        rec.setdefault("errors", []).append(f"exit code {proc.returncode}")
    rec["trace_flag"] = trace
    return rec


def _median(reps: list[dict], key: str) -> float | None:
    vals = [r[key] for r in reps if r.get(key) is not None]
    return statistics.median(vals) if vals else None


def measure(name: str, seed: int, seconds: float, trace: int, size: str = "full") -> dict:
    """Repeat workload ``name`` for about ``seconds`` and reduce the reps."""
    started = time.monotonic()
    flags = (0, 1) if trace else (0,)
    min_rounds = MIN_TRACED_PAIRS if trace else MIN_REPS
    reps: list[dict] = []
    rounds = 0
    while True:
        t_round = time.monotonic()
        for flag in flags:
            left = RUN_LIMIT_S - (time.monotonic() - started)
            reps.append(spawn(name, seed, size, flag, timeout=max(left, 1.0)))
        rounds += 1
        if any("timed out" in e for r in reps for e in r.get("errors", [])):
            break
        # stop when one more round like the last would overrun the budget
        now = time.monotonic()
        if rounds >= min_rounds and (now - started) + (now - t_round) > seconds:
            break

    plain = [r for r in reps if r["trace_flag"] == 0]
    traced = [r for r in reps if r["trace_flag"] == 1]
    failed = sum(not r["ok"] for r in reps)
    problems = [f"rep {i}: {e}" for i, r in enumerate(reps) for e in r.get("errors", [])]
    digests = {r.get("digest") for r in reps}
    if len(digests) != 1:
        problems.append(f"output digests differ between repetitions: {sorted(map(str, digests))}")
    out = {
        "workload": name,
        "size": size,
        "seed": seed,
        "trace": trace,
        "attempted": len(reps),
        "failed": failed,
        "failed_frac": failed / len(reps),
        "digest": plain[0].get("digest"),
        "reps": [{k: r.get(k) for k in REP_KEYS} for r in reps],
        "metrics": {k: _median(plain, k) for k in END_TO_END},
    }
    if trace:
        layer, checks = trace_summary(traced, out["metrics"]["wall_s"], problems)
        out["layer_metrics"] = layer
        out["count_checks"] = checks
        out["missing_boundaries"] = traced[0].get("trace", {}).get("missing")
        for c in checks:
            if not c["ok"]:
                print(f"warning: {name}: count {c['name']} is {c['got']}, "
                      f"expected {c['expected']}", file=sys.stderr)
    out["problems"] = problems
    out["correct"] = not problems
    return out


def trace_summary(traced: list[dict], plain_wall: float | None, problems: list[str]):
    """Per-layer metrics from traced reps: counts must repeat exactly, times
    are medians.  Adds ``trace.overhead_frac`` against the untraced wall."""
    runs = [r["trace"] for r in traced if r.get("trace")]
    if not runs:
        problems.append("no traced repetition produced metrics")
        return {k: None for k in METRICS}, []
    layer = {}
    for key in METRICS:
        vals = [t["metrics"].get(key) for t in runs]
        if key in COUNT_METRICS and len(set(vals)) > 1:
            problems.append(f"{key} differs between traced repetitions: {vals}")
        layer[key] = None if None in vals else statistics.median(vals)
    traced_wall = _median(traced, "wall_s")
    layer["trace.overhead_frac"] = (
        (traced_wall - plain_wall) / plain_wall if traced_wall and plain_wall else None
    )
    return layer, runs[0]["count_checks"]


def provenance(seed: int) -> dict:
    """Host, toolchain and source facts recorded with every result."""
    info = {
        "nproc": os.cpu_count(),
        "cpu_model": None,
        "caches": {},
        "python": platform.python_version(),
        "workload_seed": seed,
        "thread_vars": {v: "1" for v in THREAD_VARS},
    }
    for pkg in ("numpy", "scipy"):
        try:
            info[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            info[pkg] = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu_model"] = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None
            )
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            label = f"L{level}" + ("d" if kind == "Data" else "i" if kind == "Instruction" else "")
            info["caches"][label] = {
                "size": (idx / "size").read_text().strip(),
                "shared_cpu_list": (idx / "shared_cpu_list").read_text().strip(),
            }
    except OSError:
        pass
    info["git_sha"], info["git_dirty"] = _git_state()
    return info


def _git_state() -> tuple[str | None, bool | None]:
    # the ceiling keeps git from reporting an enclosing repository when the
    # checkout itself is not one
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=20)

    try:
        sha = git("rev-parse", "HEAD")
        if sha.returncode != 0:
            return None, None
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return sha.stdout.strip(), bool(status.stdout.strip())


def _metric_block(result: dict) -> dict:
    if result["trace"]:
        return {k: {"value": result["layer_metrics"][k], "unit": METRICS[k][0]} for k in METRICS}
    return {k: {"value": result["metrics"][k], "unit": u} for k, u in END_TO_END.items()}


def _table(results: list[dict]) -> str:
    lines = [f"{'workload':<16} {'metric':<26} {'value':>14}  unit"]
    for res in results:
        rows = [(k, res["metrics"][k], u) for k, u in END_TO_END.items()]
        rows.append(("failed_frac", res["failed_frac"], "ratio"))
        if res["trace"]:
            rows += [(k, res["layer_metrics"][k], METRICS[k][0]) for k in METRICS]
        for key, val, unit in rows:
            shown = "absent" if val is None else f"{val:.6g}"
            lines.append(f"{res['workload']:<16} {key:<26} {shown:>14}  {unit}")
    return "\n".join(lines)


def write_reference() -> int:
    """Record the outputs of every workload on the default seed."""
    ref = {}
    for name in WORKLOADS:
        rec = spawn(name, DEFAULT_SEED, "full", 0, timeout=RUN_LIMIT_S, no_reference=True)
        if not rec["ok"]:
            print(f"{name}: {rec.get('errors')}", file=sys.stderr)
            return 1
        ref[name] = rec["values"]
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="time to spend on each workload (default: 40)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(next(iter(SIZES.values()))), default="full",
                        help="input size; 'tiny' is for the smoke run")
    parser.add_argument("--write-reference", dest="write_reference", action="store_true",
                        help="record the default-seed outputs in reference.json and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "randperiodic" / "__init__.py").is_file():
        print(f"no randperiodic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [measure(n, args.seed, args.seconds, args.trace, args.size) for n in names]
    print(json.dumps({"provenance": provenance(args.seed), "results": results}, indent=1))
    if args.workload == "all":
        print(_table(results))
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in _metric_block(r).items()}
        metrics.update({f"{r['workload']}.failed_frac": {"value": r["failed_frac"],
                                                         "unit": "ratio"} for r in results})
    else:
        metrics = _metric_block(results[0])
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
