"""Smoke run of the benchmark at tiny input sizes (about half a minute).

    python3 perfbench/smoke.py

For every workload it runs ``run.py`` untraced and traced and requires:

- a correct result with no failed repetition;
- printed metric names and units equal to those in ``BENCHMARK.json``;
- every count cross-check of the traced run to hold, including
  ``stepper.path_steps == pullback.path_steps`` over implicit steps;
- equal output digests for the traced and the untraced run.

It also requires ``run.py`` to fail, without printing a result, in a copy
of the benchmark that lacks the package sources.  Exits nonzero on the
first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from child import WORKLOADS  # noqa: E402
from tracer import METRICS  # noqa: E402


class SmokeFailure(AssertionError):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise SmokeFailure(what)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def _bench(workload: str, trace: int) -> tuple[dict, dict]:
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    _require(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: "
             f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads("\n".join(lines[:-1]))["results"][0], json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    _require(layer == {k: u for k, (u, _) in METRICS.items()},
             "per_layer in BENCHMARK.json differs from tracer.METRICS")
    _require(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
             "workloads in BENCHMARK.json differ from child.WORKLOADS")

    for name in WORKLOADS:
        digests = []
        for trace, names in ((0, e2e), (1, layer)):
            record, last = _bench(name, trace)
            _require(set(last) == {"correct", "attempted", "failed", "metrics"},
                     f"{name}: last line has keys {sorted(last)}")
            _require(last["correct"] and last["failed"] == 0 and last["attempted"] >= 1,
                     f"{name} trace={trace}: {record['problems']}")
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            _require(got == names, f"{name} trace={trace}: printed metrics {sorted(got)}")
            _require(all(v["value"] is not None for v in last["metrics"].values()),
                     f"{name} trace={trace}: a metric is absent")
            if trace:
                bad = [c for c in record["count_checks"] if not c["ok"]]
                _require(not bad, f"{name}: count checks failed: {bad}")
            digests.append(record["digest"])
        _require(len(set(digests)) == 1, f"{name}: traced and untraced digests differ")
        print(f"ok  {name}")

    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work_root))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = _run(bare, "--workload", "pinned_pullback", "--seed", "0", "--seconds", "1",
                    "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    _require(proc.returncode != 0 and not proc.stdout.strip(),
             "run.py succeeded without the package sources")
    print("ok  fails without sources")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SmokeFailure as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        sys.exit(1)
