"""Two-sided Brownian increment lattice with exact integer-shift views.

Pull-back simulation needs the same Brownian path to be readable again and
again: starting further in the past, shifted by whole periods, or summed into
coarser increments, always reproducing identical floating-point values.  A
stateful generator cannot do that, so increments are defined as a pure
function of ``(seed, index)`` on a uniform lattice of spacing ``base_step``.

Each lattice index ``j`` (any sign) owns ``dimension`` raw 64-bit words of a
counter-based generator (Philox-4x64), addressed by absolute word index
``j * dimension + coordinate``.  A word becomes the uniform
``((word >> 11) + 0.5) * 2**-53``, clamped to ``1 - 2**-53``: the cell
centre of the top word rounds to exactly 1.0, and the clamp moves that word
alone, so no uniform is 0 or 1.  The uniform becomes a standard normal
through the inverse normal CDF, a numpy port of Cephes ``ndtri`` (the
algorithm of ``scipy.special.ndtri``, with its coefficients and order of
operations), and is scaled by ``sqrt(base_step)``.  Shifting the lattice is
integer index arithmetic, so shifted views agree bit for bit with the
parent, and coarse increments are exact sums of the fine increments they
cover.  Reading many lattices over one index range at once gives each the
same bits as reading it alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
import numpy.random  # loaded with the package, not inside the first read

_WORDS_PER_BLOCK = 4  # Philox-4x64 emits four 64-bit words per counter value
_WORD_MASK = (1 << 64) - 1
_U_MAX = 1.0 - 2.0**-53  # the largest double below 1
# Words per pass of the transform: its temporaries, a few arrays of 128 KiB,
# stay in L2, and a window of 2**18 words takes sixteen passes (5.0 ms for
# the window against 6.8 ms at 2**16 words a pass).
_CHUNK_WORDS = 1 << 14
# Relative tolerance of a ratio that must be a whole number: a grid node's
# index, a grid's step counts, and the period a grid spans.
_ALIGN_TOL = 1e-9


class AlignmentError(ValueError):
    """A grid or shift does not land on whole lattice steps."""


@dataclass(frozen=True)
class NoiseLattice:
    """Reproducible two-sided lattice of Brownian increments.

    Attributes:
        seed: Generator key, a whole number, reduced modulo 2**64.
        base_step: Lattice spacing in time, positive and finite; increments
            are N(0, base_step).
        dimension: Number of coordinates per increment vector, a whole
            number of at least 1.
        origin: Index offset applied to every query.  Shifted views share the
            parent's seed and differ only in this offset.
    """

    seed: int
    base_step: float
    dimension: int = 1
    origin: int = 0

    def __post_init__(self) -> None:
        if not (self.base_step > 0.0 and math.isfinite(self.base_step)):
            raise ValueError(f"base_step must be positive and finite, got {self.base_step}")
        object.__setattr__(
            self, "dimension", _whole(self.dimension, "dimension must be a whole number"))
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        object.__setattr__(self, "seed", _whole_seed(self.seed))
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
        return _read_increments(
            [self.seed], int(start) + self.origin, count, self.base_step, self.dimension)[0]

    def increment(self, index: int) -> np.ndarray:
        """Return the increment vector at a single lattice index."""
        return self.increments(index, 1)[0]

    def shifted(self, lattice_steps: int) -> "NoiseLattice":
        """Return a view displaced by a whole number of lattice steps.

        ``view.increment(j) == parent.increment(j + lattice_steps)`` exactly;
        composition of shifts adds offsets.
        """
        return replace(self, origin=self.origin + int(lattice_steps))


def _whole(value, message: str) -> int:
    """``value`` as an int; ``ValueError(f"{message}, got {value!r}")`` unless
    it is an int or a float with a whole value.  A bool is not a whole
    number, although Python counts ``True`` as the int 1."""
    whole = (isinstance(value, (int, np.integer)) and not isinstance(value, bool)) or (
        isinstance(value, (float, np.floating)) and float(value).is_integer()
    )
    if not whole:
        raise ValueError(f"{message}, got {value!r}")
    return int(value)


def _whole_seed(seed) -> int:
    """``seed`` as an int modulo 2**64; a ValueError unless it is a whole number."""
    return _whole(seed, "seeds must be whole numbers") % (1 << 64)


def _read_increments(seeds: Sequence[int], start: int, count: int, base_step: float,
                     d: int) -> np.ndarray:
    """Increments of many lattices for indices ``start .. start+count-1``.

    Row ``i`` of the result, of shape ``(len(seeds), count, d)``, is
    ``NoiseLattice(seeds[i], base_step, d).increments(start, count)`` bit for
    bit, for seeds in ``[0, 2**64)``: that method is this read for one seed.
    The word range and its counter are computed once, one generator is
    re-keyed for each seed, and one transform maps the whole buffer.

    Raises:
        ValueError: negative ``count``.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    # Absolute words [w0, w0 + n).  Block b of four words is counter b mod
    # 2**256: the low four 64-bit words of b in two's complement.  Philox's
    # counter wraps from 2**256 - 1 to 0, so a range that crosses index 0 is
    # still one generator call.
    n = count * d
    w0 = int(start) * d
    b0, b1 = w0 // _WORDS_PER_BLOCK, -(-(w0 + n) // _WORDS_PER_BLOCK)
    lo, raw = w0 - _WORDS_PER_BLOCK * b0, _WORDS_PER_BLOCK * (b1 - b0)
    gen = np.random.Philox(key=0)
    # the generator's state of plain Python ints and lists, which its setter
    # reads faster than numpy scalars; no buffered word carries over
    key = [0, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [(b0 >> shift) & _WORD_MASK for shift in (0, 64, 128, 192)],
                  "key": key},
        "buffer": [0] * _WORDS_PER_BLOCK, "buffer_pos": _WORDS_PER_BLOCK,
        "has_uint32": 0, "uinteger": 0,
    }
    words = np.empty((len(seeds), n), dtype=np.uint64)
    for row, seed in zip(words, seeds):
        key[0] = seed
        gen.state = state
        row[:] = gen.random_raw(raw)[lo : lo + n]
    z = _normals(words)
    z *= math.sqrt(base_step)
    return z.reshape(len(seeds), count, d)


def _normals(words: np.ndarray) -> np.ndarray:
    """Standard normals of raw words, written over the words themselves.

    Each chunk of ``_CHUNK_WORDS`` words becomes uniforms in a temporary, and
    their normals then overwrite that chunk, so a read holds one buffer.
    """
    flat = words.reshape(-1)
    z = flat.view(np.float64)
    for c0 in range(0, flat.size, _CHUNK_WORDS):
        z[c0 : c0 + _CHUNK_WORDS] = _ndtri(_uniform(flat[c0 : c0 + _CHUNK_WORDS]))
    return z.reshape(words.shape)


def _uniform(words: np.ndarray) -> np.ndarray:
    """Uniforms ``((word >> 11) + 0.5) * 2**-53`` in (0, 1), clamped to
    ``1 - 2**-53``, which only the top word (``word >> 11 == 2**53 - 1``)
    would exceed: its cell centre rounds to 1.0."""
    u = (words >> np.uint64(11)).astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return np.minimum(u, _U_MAX, out=u)


# Cephes ndtri's tables (S. L. Moshier, Cephes Math Library 2.1), as used by
# scipy.special.ndtri; each Q table gains its implied leading 1.
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
# for sqrt(-2 log y) in [2, 8), i.e. exp(-32) < y <= exp(-2)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
# for sqrt(-2 log y) >= 8, i.e. y <= exp(-32)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF of ``u`` in (0, 1), computed in place.

    Cephes ``ndtri`` entry by entry.  On the centre,
    ``exp(-2) < u <= 1 - exp(-2)``, the result is
    ``sqrt(2 pi) * (v + v * (v**2 * P0(v**2) / Q0(v**2)))`` with
    ``v = u - 0.5``.  On the tails, with ``y = min(u, 1 - u)``,
    ``x = sqrt(-2 log y)`` and ``z = 1 / x``, it is
    ``x - log(x) / x - z * P(z) / Q(z)``, negated below 0.5, where ``P, Q``
    switch tables at ``x = 8``.  Cephes takes ``y = 1 - u`` above
    ``1 - exp(-2)``; ``1 - (1 - exp(-2))`` rounds back to ``exp(-2)``, so
    every such ``u`` is a tail entry, and the centre needs no reflection.
    Every product, quotient and sum is taken in Cephes' order, so only
    numpy's ``log`` and ``sqrt`` can differ from the C library's.  The
    centre is evaluated on every entry and the tail entries are then
    overwritten, which is cheaper than splitting the array by a mask.
    """
    tail = np.flatnonzero((u <= _EXP_M2) | (u > 1.0 - _EXP_M2))
    u_tail = u.take(tail)
    v = np.subtract(u, 0.5, out=u)
    v2 = v * v
    r = _horner(v2, _P0)
    r *= v2
    r /= _horner(v2, _Q0)
    r *= v
    v += r
    v *= _S2PI
    x = np.minimum(u_tail, 1.0 - u_tail)
    np.log(x, out=x)
    x *= -2.0
    np.sqrt(x, out=x)
    z = 1.0 / x
    out = x - np.log(x) / x
    r = z * _horner(z, _P1)
    r /= _horner(z, _Q1)
    far = np.flatnonzero(x >= 8.0)
    if far.size:
        z_far = z.take(far)
        r[far] = z_far * _horner(z_far, _P2) / _horner(z_far, _Q2)
    out -= r
    np.copysign(out, u_tail - 0.5, out=out)
    u.put(tail, out)
    return u


def _horner(x: np.ndarray, coef: tuple[float, ...], out: np.ndarray | None = None) -> np.ndarray:
    """``coef[0] * x**n + ... + coef[n]`` by Horner's rule, as Cephes'
    ``polevl`` (and ``p1evl`` when ``coef[0]`` is 1) evaluates it; into
    ``out`` when given."""
    r = np.multiply(x, coef[0], out=out)
    r += coef[1]
    for c in coef[2:]:
        r *= x
        r += c
    return r


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

    def _steps(self, first: int, count: int) -> GridSpec:
        """The grid of steps ``first`` to ``first + count - 1`` of this one,
        with ``0 <= first`` and ``first + count <= self.count``.  Built
        without the checks of ``__post_init__``, which a run of a checked
        grid's steps passes."""
        sub = object.__new__(GridSpec)
        sub.__dict__.update(self.__dict__, start_index=self.start_index + first, count=count)
        return sub

    @property
    def t_start(self) -> float:
        return self.start_index * self.h

    @property
    def t_end(self) -> float:
        return (self.start_index + self.count) * self.h

    def times(self) -> np.ndarray:
        """Node times, shape ``(count + 1,)``."""
        return (self.start_index + np.arange(self.count + 1)) * self.h

    def node_index(self, t: float) -> int:
        """Return ``i`` with ``(start_index + i) * h == t``, or raise.

        Raises:
            AlignmentError: if ``t`` is not a grid node (relative tol on i).
        """
        ratio = t / self.h - self.start_index
        if not math.isfinite(ratio):
            raise AlignmentError(f"t / h - start_index = {ratio!r} is not finite for time {t}")
        i = round(ratio)
        if abs(ratio - i) > _ALIGN_TOL * max(1.0, abs(ratio)):
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
    return coarse_increments(lattice, grid, k, 1)[0]


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
    """Derive ``count`` independent lattice seeds from one master seed,
    taken modulo 2**64 as :class:`NoiseLattice` takes its seed.  ``count``
    must be a whole number from 0 to 2**32 (a bool is not one)."""
    n = _whole(count, "count must be a whole number")
    if n < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if n > 1 << 32:  # spawn keys of two words are not computed here
        raise ValueError(f"count must be at most 2**32, got {count}")
    # Seed i is SeedSequence(master).spawn(n)[i].generate_state(1, np.uint64)[0],
    # numpy's hash computed for every i at once.  Child i's entropy is the
    # master's two 32-bit words, zero-padded to the pool of 4, then i: the pool
    # is the same for every child until i is mixed in, and the output reads
    # only its first two words.
    m = _whole_seed(master_seed)
    pool, const = [], _INIT_A
    for word in (m & _MASK32, m >> 32, 0, 0):
        word, const = _hashmix(word, const, _MULT_A)
        pool.append(word)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                word, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], word)
    keys = np.arange(n, dtype=np.uint32)
    state, out_const = [], _INIT_B
    for dst in range(2):
        word, const = _hashmix(keys, const, _MULT_A)
        word, out_const = _hashmix(_mix(pool[dst], word), out_const, _MULT_B)
        state.append(word.astype(np.uint64))
    return state[0] | state[1] << 32


# The constants of numpy's SeedSequence hash, on 32-bit words.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value, const: int, mult: int):
    """SeedSequence's ``hashmix`` of an int or a uint32 array, and the next
    hash constant."""
    value = value ^ const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x: int, y):
    """SeedSequence's ``mix`` of the int ``x`` and an int or uint32 array ``y``."""
    r = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return r ^ r >> 16


def _check_alignment(lattice: NoiseLattice, grid: GridSpec) -> None:
    if grid.base_step != lattice.base_step:
        raise AlignmentError(
            f"grid base_step {grid.base_step!r} does not match lattice base_step {lattice.base_step!r}"
        )
