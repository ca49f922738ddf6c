"""The package loads every module it needs at import, and no scipy.

A module that numpy loads lazily on first use (``numpy.random``,
``numpy.polynomial``, ``numpy.ma`` behind ``np.unique``) would otherwise be
imported inside the first timed call.  Each check runs in a fresh
interpreter, because this test process has long since loaded them all.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import randperiodic

SRC = Path(randperiodic.__file__).resolve().parents[1]

SCRIPT = """
import json, sys
import randperiodic, randperiodic.cli
from randperiodic import (
    NoiseLattice, builtin_benchmark, derive_seeds, measure_convergence_study,
    model_from_config, periodic_measure, pullback_pinned_path, strong_error,
    verify_shift_periodicity,
)

scipy_at_import = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
before = set(sys.modules)
m = builtin_benchmark()
cubic = model_from_config({
    "lambda": [10.0],
    "drift": {"poly_coeffs": [0, -1, 0, -2], "trig_amp": 1.5, "trig_freq": 1},
    "g": {"amp": 0.5},
    "tau": 1.0,
    "constants": {"C_f": 0.5, "sigma": 0.5},
})
h = 2.0**-4
strong_error(m, 2.0**-6, [2.0**-3, 2.0**-4, 2.0**-5], 1, 4, scheme=("bem", "em"))
periodic_measure(cubic, derive_seeds(1, 4), h, 1, [0.5, 0.0])
measure_convergence_study(cubic, derive_seeds(0, 4), [2.0**-3, h], 0.25, 1)
pullback_pinned_path(m, NoiseLattice(3, h), h, r_max=0.5)
verify_shift_periodicity(m, NoiseLattice(3, h), h, pullback_periods=2)
print(json.dumps({"scipy": scipy_at_import, "new": sorted(set(sys.modules) - before)}))
"""


def test_runs_load_no_module_and_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert loaded["scipy"] == []
    assert loaded["new"] == []
