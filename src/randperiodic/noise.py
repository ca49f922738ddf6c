"""Two-sided Brownian increment lattice with exact integer-shift views.

Pull-back simulation needs the same Brownian path to be readable again and
again: starting further in the past, shifted by whole periods, or summed into
coarser increments, always reproducing identical floating-point values.  A
stateful generator cannot do that, so increments are defined as a pure
function of ``(seed, index)`` on a uniform lattice of spacing ``base_step``.

Each lattice index ``j`` (any sign) owns ``dimension`` raw 64-bit words of a
counter-based generator (Philox-4x64), addressed by absolute word index
``j * dimension + coordinate``.  A word becomes a standard normal through the
inverse normal CDF applied to ``((word >> 11) + 0.5) * 2**-53``, which avoids
hitting 0 or 1 exactly, and is scaled by ``sqrt(base_step)``.  Shifting the
lattice is integer index arithmetic, so shifted views agree bit for bit with
the parent, and coarse increments are exact sums of the fine increments they
cover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtri

_WORDS_PER_BLOCK = 4  # Philox-4x64 emits four 64-bit words per counter value
_COUNTER_MOD = 1 << 256


class AlignmentError(ValueError):
    """A grid or shift does not land on whole lattice steps."""


@dataclass(frozen=True)
class NoiseLattice:
    """Reproducible two-sided lattice of Brownian increments.

    Attributes:
        seed: Generator key, reduced modulo 2**64.
        base_step: Lattice spacing in time; increments are N(0, base_step).
        dimension: Number of coordinates per increment vector.
        origin: Index offset applied to every query.  Shifted views share the
            parent's seed and differ only in this offset.
    """

    seed: int
    base_step: float
    dimension: int = 1
    origin: int = 0

    def __post_init__(self) -> None:
        if not self.base_step > 0.0:
            raise ValueError(f"base_step must be positive, got {self.base_step}")
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        object.__setattr__(self, "seed", int(self.seed) % (1 << 64))
        object.__setattr__(self, "origin", int(self.origin))

    def increments(self, start: int, count: int) -> np.ndarray:
        """Return increments for indices ``start .. start+count-1``.

        Args:
            start: First lattice index (may be negative).
            count: Number of consecutive increments.

        Returns:
            Array of shape ``(count, dimension)``; entry ``[i, c]`` depends
            only on ``(seed, start + origin + i, c)``.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        d = self.dimension
        # Absolute words [w0, w0 + count * d).  Block b of four words is
        # counter b mod 2**256, and Philox's counter wraps from 2**256 - 1 to
        # 0, so a range that crosses index 0 is still one generator call.
        w0 = (int(start) + self.origin) * d
        b0 = w0 // _WORDS_PER_BLOCK
        b1 = -(-(w0 + count * d) // _WORDS_PER_BLOCK)
        gen = np.random.Philox(key=self.seed, counter=b0 % _COUNTER_MOD)
        lo = w0 - _WORDS_PER_BLOCK * b0
        words = gen.random_raw(_WORDS_PER_BLOCK * (b1 - b0))[lo : lo + count * d]
        u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        z = ndtri(u)
        return (z * math.sqrt(self.base_step)).reshape(count, d)

    def increment(self, index: int) -> np.ndarray:
        """Return the increment vector at a single lattice index."""
        return self.increments(index, 1)[0]

    def shifted(self, lattice_steps: int) -> "NoiseLattice":
        """Return a view displaced by a whole number of lattice steps.

        ``view.increment(j) == parent.increment(j + lattice_steps)`` exactly;
        composition of shifts adds offsets.
        """
        return replace(self, origin=self.origin + int(lattice_steps))


@dataclass(frozen=True)
class GridSpec:
    """Uniform time grid aligned with a noise lattice.

    The grid has nodes at times ``(start_index + i) * h`` for
    ``i = 0 .. count`` where ``h = step_mult * base_step``.  One period of the
    driving model covers ``period_steps`` grid steps, so all period shifts are
    integer index arithmetic.
    """

    start_index: int
    step_mult: int
    count: int
    period_steps: int
    base_step: float

    def __post_init__(self) -> None:
        for name in ("start_index", "step_mult", "count", "period_steps"):
            value = getattr(self, name)
            if value != int(value):
                raise AlignmentError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.step_mult < 1:
            raise ValueError(f"step_mult must be >= 1, got {self.step_mult}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.period_steps < 1:
            raise ValueError(f"period_steps must be >= 1, got {self.period_steps}")
        if not self.base_step > 0.0:
            raise ValueError(f"base_step must be positive, got {self.base_step}")
        if not 0.0 < self.h < 1.0:
            raise ValueError(f"step size h must lie in (0, 1), got {self.h}")

    @property
    def h(self) -> float:
        """Grid step size."""
        return self.step_mult * self.base_step

    @property
    def t_start(self) -> float:
        return self.start_index * self.h

    @property
    def t_end(self) -> float:
        return (self.start_index + self.count) * self.h

    def times(self) -> np.ndarray:
        """Node times, shape ``(count + 1,)``."""
        return (self.start_index + np.arange(self.count + 1)) * self.h

    def node_index(self, t: float, *, tol: float = 1e-9) -> int:
        """Return ``i`` with ``(start_index + i) * h == t``, or raise.

        Raises:
            AlignmentError: if ``t`` is not a grid node (relative tol on i).
        """
        ratio = t / self.h - self.start_index
        i = round(ratio)
        if abs(ratio - i) > tol * max(1.0, abs(ratio)):
            raise AlignmentError(f"time {t} is not on the grid (h={self.h})")
        if not 0 <= i <= self.count:
            raise AlignmentError(f"time {t} lies outside the grid")
        return int(i)


def shift(lattice: NoiseLattice, grid: GridSpec, shift_steps: int) -> NoiseLattice:
    """Return a lattice view displaced by ``shift_steps`` grid steps.

    Shifting by ``grid.period_steps`` realizes the one-period shift of the
    driving path used by shift-periodicity checks.

    Raises:
        AlignmentError: if the shift is not a whole number of grid steps or
            the grid is not aligned with the lattice.
    """
    if shift_steps != int(shift_steps):
        raise AlignmentError(f"shift must be an integer number of grid steps, got {shift_steps!r}")
    _check_alignment(lattice, grid)
    return lattice.shifted(int(shift_steps) * grid.step_mult)


def coarse_increment(lattice: NoiseLattice, grid: GridSpec, k: int) -> np.ndarray:
    """Brownian increment over grid step ``k`` (times ``k*h`` to ``(k+1)*h``).

    Exactly the sum of the ``step_mult`` fine increments it covers, so runs
    at different resolutions on one lattice see one consistent path.
    """
    _check_alignment(lattice, grid)
    fine = lattice.increments(int(k) * grid.step_mult, grid.step_mult)
    return fine.sum(axis=0)


def coarse_increments(lattice: NoiseLattice, grid: GridSpec, k0: int, count: int) -> np.ndarray:
    """Increments for grid steps ``k0 .. k0+count-1``, shape ``(count, d)``."""
    _check_alignment(lattice, grid)
    m = grid.step_mult
    return _sum_steps(lattice.increments(int(k0) * m, count * m), m)


def _sum_steps(fine: np.ndarray, m: int) -> np.ndarray:
    """Sum each run of ``m`` consecutive fine increments along axis ``-2``.

    ``fine`` has shape ``(..., count * m, d)``; the result has shape
    ``(..., count, d)``.  A block of paths summed at once gets the same bits
    as each path summed alone.  With ``m == 1`` the input is returned as is.
    """
    if m == 1:
        return fine
    return fine.reshape(*fine.shape[:-2], -1, m, fine.shape[-1]).sum(axis=-2)


def derive_seeds(master_seed: int, count: int) -> np.ndarray:
    """Derive ``count`` independent lattice seeds from one master seed."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    children = np.random.SeedSequence(master_seed).spawn(count)
    return np.array([c.generate_state(1, np.uint64)[0] for c in children], dtype=np.uint64)


def _check_alignment(lattice: NoiseLattice, grid: GridSpec) -> None:
    if grid.base_step != lattice.base_step:
        raise AlignmentError(
            f"grid base_step {grid.base_step!r} does not match lattice base_step {lattice.base_step!r}"
        )
