"""The benchmark's per-layer tracer finds every boundary it patches.

``perfbench/tracer.py`` wraps package callables by name.  A boundary that a
refactor renames is skipped silently and its layer's metrics read ``None``,
so this test fails first.  The tracer also reads some arguments by position,
so those positions are pinned here too.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from randperiodic import analysis, pullback

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.BOUNDARIES


def test_every_traced_boundary_exists():
    boundaries = _boundaries()
    assert boundaries
    missing = []
    for _, mod_name, cls_name, attr in boundaries:
        owner = importlib.import_module(f"randperiodic.{mod_name}")
        if cls_name is not None:
            # the class's own dict, as the tracer looks it up
            owner = getattr(owner, cls_name, None)
            found = owner is not None and attr in vars(owner)
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(".".join(p for p in (mod_name, cls_name, attr) if p))
    assert not missing, f"trace points missing from the package: {missing}"


def _params(fn):
    return list(inspect.signature(fn).parameters)


def test_traced_arguments_keep_their_positions():
    # the tracer counts `_drive` path-steps from x0 and grid, and stepper
    # path-steps from x_prev, taken from the positional arguments
    assert analysis._drive is pullback._drive
    assert _params(pullback._drive)[:4] == ["model", "grid", "scheme", "x0"]
    assert _params(pullback._bem_step_batch)[4] == "x_prev"
    assert _params(pullback._em_step_batch)[3] == "x_prev"
