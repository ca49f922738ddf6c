"""Tests for the two-sided increment lattice and grid alignment."""

import itertools
import math

import numpy as np
import pytest
from scipy import special, stats

from randperiodic import analysis
from randperiodic.model import builtin_benchmark, check_assumptions
from randperiodic.noise import (
    AlignmentError,
    GridSpec,
    NoiseLattice,
    _ndtri,
    _normals,
    _read_increments,
    _uniform,
    coarse_increment,
    coarse_increments,
    derive_seeds,
    shift,
)


class TestNoiseLattice:
    def test_increments_are_deterministic(self):
        a = NoiseLattice(seed=123, base_step=0.25)
        b = NoiseLattice(seed=123, base_step=0.25)
        first = a.increments(-40, 100)
        assert first.shape == (100, 1)
        assert np.array_equal(first, a.increments(-40, 100))
        assert np.array_equal(first, b.increments(-40, 100))

    def test_single_increment_matches_range(self):
        lat = NoiseLattice(seed=7, base_step=0.5, dimension=3)
        block = lat.increments(-5, 11)
        for offset in range(11):
            assert np.array_equal(lat.increment(-5 + offset), block[offset])

    def test_value_depends_only_on_index(self):
        # Arbitrary overlapping windows must agree wherever they overlap.
        lat = NoiseLattice(seed=99, base_step=1.0 / 64)
        wide = lat.increments(-30, 60)
        rng = np.random.default_rng(0)
        for _ in range(25):
            start = int(rng.integers(-30, 20))
            count = int(rng.integers(1, 30 - start + 1))
            window = lat.increments(start, count)
            assert np.array_equal(window, wide[start + 30 : start + 30 + count])

    def test_ranges_crossing_zero(self):
        # A range across index 0 is one generator call whose counter wraps
        # from 2**256 - 1 to 0; it must match reads of one index each, none
        # of which crosses zero.  Starts and origins are not aligned with
        # the generator's blocks of four words.
        for d, origin in itertools.product((1, 2, 3), (0, -3, 5)):
            lat = NoiseLattice(seed=5, base_step=0.125, dimension=d, origin=origin)
            for start, count in [(-8, 16), (-1, 2), (-5, 7), (-7, 13), (-2, 3)]:
                start -= origin
                joined = lat.increments(start, count)
                single = np.stack([lat.increment(start + i) for i in range(count)])
                assert np.array_equal(joined, single)

    def test_shift_is_exact_index_translation(self):
        lat = NoiseLattice(seed=17, base_step=0.25)
        view = lat.shifted(13)
        assert np.array_equal(view.increments(-20, 40), lat.increments(-7, 40))

    def test_shifts_compose_additively(self):
        lat = NoiseLattice(seed=17, base_step=0.25, dimension=2)
        twice = lat.shifted(5).shifted(-12)
        once = lat.shifted(-7)
        assert twice == once
        assert np.array_equal(twice.increments(0, 10), lat.increments(-7, 10))

    def test_seed_is_reduced_modulo_2_64(self):
        a = NoiseLattice(seed=(1 << 64) + 41, base_step=1.0 / 32)
        b = NoiseLattice(seed=41, base_step=1.0 / 32)
        assert np.array_equal(a.increments(-3, 6), b.increments(-3, 6))

    @pytest.mark.parametrize("seed", [1.5, -0.25, float("nan"), float("inf"), np.float64(2.5)])
    def test_seed_must_be_a_whole_number(self, seed):
        with pytest.raises(ValueError, match="whole numbers"):
            NoiseLattice(seed=seed, base_step=0.125)

    def test_integer_seed_types_agree(self):
        expect = NoiseLattice(seed=7, base_step=0.125).increments(-2, 4)
        for seed in (np.int64(7), np.uint64(7), 7.0, np.float64(7.0)):
            lat = NoiseLattice(seed=seed, base_step=0.125)
            assert type(lat.seed) is int and lat.seed == 7
            assert np.array_equal(lat.increments(-2, 4), expect)
        top = NoiseLattice(seed=np.uint64(2**64 - 1), base_step=0.125)
        assert top == NoiseLattice(seed=-1, base_step=0.125)

    def test_different_seeds_differ(self):
        a = NoiseLattice(seed=1, base_step=0.5).increments(0, 50)
        b = NoiseLattice(seed=2, base_step=0.5).increments(0, 50)
        assert not np.allclose(a, b)

    def test_variance_scales_with_base_step(self):
        # Same seed, different spacing: identical normals scaled by
        # sqrt(base_step), so a 4:1 spacing ratio halves the values exactly.
        fine = NoiseLattice(seed=3, base_step=0.25).increments(-10, 20)
        unit = NoiseLattice(seed=3, base_step=1.0).increments(-10, 20)
        assert np.array_equal(fine, unit * 0.5)

    def test_increments_are_standard_normal(self):
        lat = NoiseLattice(seed=2024, base_step=0.125)
        sample = lat.increments(-10_000, 20_000)[:, 0] / math.sqrt(0.125)
        assert abs(sample.mean()) < 0.03
        assert abs(sample.std() - 1.0) < 0.03
        _, p_value = stats.kstest(sample, "norm")
        assert p_value > 1e-3

    def test_coordinates_are_uncorrelated(self):
        lat = NoiseLattice(seed=11, base_step=1.0, dimension=2)
        block = lat.increments(-2_000, 4_000)
        corr = np.corrcoef(block[:, 0], block[:, 1])[0, 1]
        assert abs(corr) < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseLattice(seed=0, base_step=0.0)
        with pytest.raises(ValueError):
            NoiseLattice(seed=0, base_step=-1.0)
        with pytest.raises(ValueError):
            NoiseLattice(seed=0, base_step=0.5, dimension=0)
        with pytest.raises(ValueError):
            NoiseLattice(seed=0, base_step=0.5).increments(0, -1)

    @pytest.mark.parametrize("dimension", [1.5, True, np.True_, "2", float("inf")])
    def test_dimension_must_be_whole(self, dimension):
        with pytest.raises(ValueError, match=f"dimension must be a whole number, got "
                                             f"{dimension!r}"):
            NoiseLattice(seed=0, base_step=0.5, dimension=dimension)

    def test_whole_float_dimension_is_an_int(self):
        lat = NoiseLattice(seed=0, base_step=0.5, dimension=2.0)
        assert type(lat.dimension) is int
        assert lat == NoiseLattice(seed=0, base_step=0.5, dimension=2)
        assert lat.increments(3, 4).shape == (4, 2)

    @pytest.mark.parametrize("base_step", [math.inf, math.nan, -math.inf])
    def test_base_step_must_be_finite(self, base_step):
        with pytest.raises(ValueError, match="base_step must be positive and finite"):
            NoiseLattice(seed=0, base_step=base_step)

    def test_empty_range(self):
        lat = NoiseLattice(seed=0, base_step=0.5, dimension=2)
        assert lat.increments(5, 0).shape == (0, 2)


def _reference_increments(lat: NoiseLattice, start: int, count: int) -> np.ndarray:
    """One lattice's increments from a generator built for it alone."""
    d = lat.dimension
    w0 = (start + lat.origin) * d
    b0, b1 = w0 // 4, -(-(w0 + count * d) // 4)
    gen = np.random.Philox(key=lat.seed, counter=b0 % (1 << 256))
    words = gen.random_raw(4 * (b1 - b0))[w0 - 4 * b0 : w0 - 4 * b0 + count * d]
    return (_normals(words) * math.sqrt(lat.base_step)).reshape(count, d)


class TestBatchedRead:
    """``_read_increments`` reads by seed, re-keying one generator per seed;
    every row must equal that seed's lattice read alone, whatever was read
    before it."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rows_match_single_reads(self, d):
        seeds = [0, 5, 2**64 - 1, 123456789, 7]
        # unaligned with the generator's blocks of four words, crossing
        # index 0, at +-2**40, and empty
        for start, count in [(-9, 21), (-1, 2), (0, 5), (2**40 - 4, 11),
                             (-(2**40) - 3, 9), (3, 0)]:
            batch = _read_increments(seeds, start, count, 0.125, d)
            assert batch.shape == (len(seeds), count, d)
            for row, seed in zip(batch, seeds):
                lat = NoiseLattice(seed, 0.125, d)
                assert np.array_equal(row, lat.increments(start, count))
                assert np.array_equal(row, _reference_increments(lat, start, count))
                # a shifted view reads the same words from another start
                view = lat.shifted(start + 13)
                assert np.array_equal(row, view.increments(-13, count))


class TestTransform:
    def test_top_words_give_finite_normals(self):
        # ((w >> 11) + 0.5) * 2**-53 rounds to 1.0 for the top word; the
        # clamp keeps it below 1 and leaves the word beneath it alone
        words = np.array([0, 2**64 - 2**11, 2**64 - 1, 2**64 - 2**12], dtype=np.uint64)
        u = _uniform(words)
        assert np.all((u > 0.0) & (u < 1.0))
        assert u[1] == u[2] == 1.0 - 2.0**-53
        assert u[3] == ((words[3] >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        z = _normals(words.copy())
        assert np.all(np.isfinite(z))
        assert z[0] < -8.0 and z[1] > 8.0

    def test_matches_scipy_within_8_ulp(self):
        words = np.random.Philox(key=2024).random_raw(1 << 20)
        # the centre/tail boundaries, the tail-table switch at x = 8, each
        # with its neighbours, and the extreme uniforms of a word
        edges = [math.exp(-2), 1.0 - math.exp(-2), math.exp(-32), 1.0 - math.exp(-32)]
        near = [np.nextafter(e, t) for e in edges for t in (0.0, 1.0)]
        u = np.concatenate([_uniform(words), edges, near, [2.0**-54, 1.0 - 2.0**-53, 0.5]])
        want = special.ndtri(u)
        got = _ndtri(u.copy())
        ulps = np.abs(got - want) / np.spacing(np.abs(want))
        differ = np.count_nonzero(got != want)
        print(f"ndtri port vs scipy: {differ} of {u.size} values differ, "
              f"by at most {ulps.max():.0f} ulp")
        assert np.all(np.isfinite(got))
        assert ulps.max() <= 8
        # Cephes' operations in Cephes' order: only log and sqrt may round
        # differently, which moves about 1 value in 10,000
        assert differ <= u.size // 1000


class TestGridSpec:
    def test_basic_properties(self):
        grid = GridSpec(start_index=-64, step_mult=2, count=96, period_steps=32,
                        base_step=1.0 / 64)
        assert grid.h == 1.0 / 32
        assert grid.t_start == -2.0
        assert grid.t_end == 1.0
        times = grid.times()
        assert times.shape == (97,)
        assert times[0] == -2.0 and times[-1] == 1.0
        assert np.allclose(np.diff(times), grid.h)

    def test_node_index(self):
        grid = GridSpec(start_index=-8, step_mult=1, count=16, period_steps=8,
                        base_step=0.125)
        assert grid.node_index(-1.0) == 0
        assert grid.node_index(0.0) == 8
        assert grid.node_index(1.0) == 16
        with pytest.raises(AlignmentError):
            grid.node_index(0.1)  # off the lattice
        with pytest.raises(AlignmentError):
            grid.node_index(1.125)  # beyond the last node

    def test_validation(self):
        with pytest.raises(AlignmentError):
            GridSpec(start_index=1.5, step_mult=1, count=4, period_steps=4, base_step=0.125)
        with pytest.raises(ValueError):
            GridSpec(start_index=0, step_mult=0, count=4, period_steps=4, base_step=0.125)
        with pytest.raises(ValueError):
            GridSpec(start_index=0, step_mult=1, count=0, period_steps=4, base_step=0.125)
        with pytest.raises(ValueError):
            GridSpec(start_index=0, step_mult=1, count=4, period_steps=0, base_step=0.125)
        with pytest.raises(ValueError):
            GridSpec(start_index=0, step_mult=8, count=4, period_steps=4, base_step=0.125)

    @pytest.mark.parametrize("base_step", [0.0, -0.25])
    def test_non_positive_base_step_raises(self, base_step):
        with pytest.raises(ValueError, match=f"^base_step must be positive, got {base_step}$"):
            GridSpec(start_index=0, step_mult=1, count=4, period_steps=4, base_step=base_step)


class TestCoarseIncrements:
    def test_coarse_equals_exact_sum_of_fine(self):
        lat = NoiseLattice(seed=21, base_step=1.0 / 128)
        grid = GridSpec(start_index=-16, step_mult=8, count=32, period_steps=16,
                        base_step=1.0 / 128)
        for k in (-16, -3, 0, 7):
            fine = lat.increments(k * 8, 8)
            assert np.array_equal(coarse_increment(lat, grid, k), fine.sum(axis=0))
        # coarse_increment is row 0 of coarse_increments; its reshaped sum
        # gets the bits of a plain sum over the fine increments' first axis
        for m, d in itertools.product([1, 2, 3, 5, 64, 129, 257], [1, 2, 3]):
            lat = NoiseLattice(seed=4, base_step=1.0 / 512, dimension=d)
            grid = GridSpec(start_index=-2, step_mult=m, count=4, period_steps=2,
                            base_step=1.0 / 512)
            for k in (-2, 0, 3):
                fine = lat.increments(k * m, m)
                assert np.array_equal(coarse_increment(lat, grid, k), fine.sum(axis=0))

    def test_batch_matches_single(self):
        lat = NoiseLattice(seed=21, base_step=1.0 / 128, dimension=2)
        grid = GridSpec(start_index=-16, step_mult=4, count=32, period_steps=32,
                        base_step=1.0 / 128)
        batch = coarse_increments(lat, grid, -10, 20)
        assert batch.shape == (20, 2)
        for i in range(20):
            assert np.array_equal(batch[i], coarse_increment(lat, grid, -10 + i))

    def test_mismatched_base_step_raises(self):
        lat = NoiseLattice(seed=0, base_step=1.0 / 64)
        grid = GridSpec(start_index=0, step_mult=2, count=4, period_steps=4,
                        base_step=1.0 / 128)
        with pytest.raises(AlignmentError):
            coarse_increment(lat, grid, 0)


class TestShift:
    def test_period_shift_reads_ahead(self):
        lat = NoiseLattice(seed=9, base_step=1.0 / 64)
        grid = GridSpec(start_index=-32, step_mult=2, count=64, period_steps=16,
                        base_step=1.0 / 64)
        view = shift(lat, grid, grid.period_steps)
        # one period is period_steps * step_mult lattice indices
        assert np.array_equal(view.increments(0, 10), lat.increments(32, 10))
        # shifted coarse increments line up with later grid steps
        assert np.array_equal(
            coarse_increments(view, grid, 0, 8), coarse_increments(lat, grid, 16, 8)
        )

    def test_non_integer_shift_raises(self):
        lat = NoiseLattice(seed=9, base_step=1.0 / 64)
        grid = GridSpec(start_index=0, step_mult=2, count=8, period_steps=4,
                        base_step=1.0 / 64)
        with pytest.raises(AlignmentError):
            shift(lat, grid, 2.5)


class TestDeriveSeeds:
    def test_deterministic_and_distinct(self):
        seeds = derive_seeds(42, 64)
        assert seeds.shape == (64,)
        assert seeds.dtype == np.uint64
        assert np.array_equal(seeds, derive_seeds(42, 64))
        assert len(set(seeds.tolist())) == 64

    def test_prefix_stability(self):
        # Growing the family keeps earlier seeds unchanged.
        assert np.array_equal(derive_seeds(7, 8), derive_seeds(7, 16)[:8])

    def test_master_seed_matters(self):
        assert not np.array_equal(derive_seeds(1, 8), derive_seeds(2, 8))

    def test_master_seed_is_taken_modulo_2_64(self):
        assert np.array_equal(derive_seeds(-1, 3), derive_seeds(2**64 - 1, 3))
        assert np.array_equal(derive_seeds(2**64 + 5, 3), derive_seeds(5, 3))
        # seeds in [0, 2**64) keep the streams of their SeedSequence
        for seed in (0, 5, 2**64 - 1):
            want = [c.generate_state(1, np.uint64)[0]
                    for c in np.random.SeedSequence(seed).spawn(3)]
            assert derive_seeds(seed, 3).tolist() == want

    @pytest.mark.parametrize("count", [0, 1, 3, 257])
    @pytest.mark.parametrize("master", [0, 1, 11, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1])
    def test_matches_spawned_seed_sequences(self, master, count):
        # the hash of numpy's SeedSequence, taken for every child at once
        want = [c.generate_state(1, np.uint64)[0]
                for c in np.random.SeedSequence(master).spawn(count)]
        got = derive_seeds(master, count)
        assert got.dtype == np.uint64 and got.shape == (count,)
        assert got.tolist() == want

    def test_count_above_2_32_is_refused(self):
        # a child past 2**32 - 1 has a spawn key of two words
        with pytest.raises(ValueError, match=r"count must be at most 2\*\*32, got 4294967297"):
            derive_seeds(0, 2**32 + 1)

    @pytest.mark.parametrize("count", [True, False, np.True_, 2.5, float("inf"), "3"])
    def test_count_must_be_whole(self, count):
        with pytest.raises(ValueError, match=f"count must be a whole number, got {count!r}"):
            derive_seeds(0, count)

    def test_whole_float_count_runs_as_int(self):
        want = derive_seeds(3, 2)
        for count in (2.0, np.float64(2.0), np.int64(2)):
            assert np.array_equal(derive_seeds(3, count), want)
        with pytest.raises(ValueError, match="count must be >= 0, got -1.0"):
            derive_seeds(3, -1.0)


# Every public way in for a seed, called with the seed ``s``.
SEED_TAKERS = {
    "NoiseLattice": lambda s: NoiseLattice(seed=s, base_step=0.5),
    "derive_seeds": lambda s: derive_seeds(s, 2),
    "study path seeds": lambda s: analysis._path_seeds([s, 1]),
    "bootstrap_noise_floor": lambda s: analysis.bootstrap_noise_floor(
        analysis.EmpiricalMeasure(t=0.0, h=0.5, samples=np.arange(4.0)), n_bootstrap=2, seed=s),
    "check_assumptions": lambda s: check_assumptions(builtin_benchmark(), sample_count=10,
                                                     seed=s),
}


@pytest.mark.parametrize("seed", [True, False, np.True_], ids=["True", "False", "np.True_"])
@pytest.mark.parametrize("taker", sorted(SEED_TAKERS))
def test_a_bool_is_not_a_seed(taker, seed):
    # Python counts True as the int 1; a seed must still be a number
    with pytest.raises(ValueError, match="whole numbers"):
        SEED_TAKERS[taker](seed)
