"""Support-count kernel engine: bit-identity on every path, plan logic."""

import numpy as np
import pytest

from repro.hashing import (
    TILE_BYTES,
    CarterWegmanHashFamily,
    MultiplyShiftHashFamily,
    XXHash32Family,
    chunk_spans,
    plan_support_counts,
    support_counts_kernel,
)

FAMILIES = [CarterWegmanHashFamily(), MultiplyShiftHashFamily(), XXHash32Family()]


@pytest.fixture(params=FAMILIES, ids=lambda f: f.name)
def family(request):
    return request.param


def naive_counts(family, seeds, reported, candidates, d_out):
    """The pre-kernel reference: materialize, compare, reduce."""
    hashed = family.hash_outer(seeds, candidates, d_out)
    return (hashed == np.asarray(reported)[:, None]).sum(axis=0)


class TestBitIdentity:
    """Every execution path must reproduce the naive counts exactly."""

    def test_matches_naive_materialization(self, family, rng):
        seeds = family.sample_seeds(300, rng)
        reported = rng.integers(0, 8, 300)
        candidates = np.arange(50)
        counts = support_counts_kernel(family, seeds, reported, candidates, 8)
        assert counts.dtype == np.int64
        assert counts.tolist() == naive_counts(
            family, seeds, reported, candidates, 8
        ).tolist()

    def test_candidate_subset_and_order(self, family, rng):
        seeds = family.sample_seeds(120, rng)
        reported = rng.integers(0, 4, 120)
        candidates = np.array([7, 3, 3, 41, 0])
        counts = support_counts_kernel(family, seeds, reported, candidates, 4)
        assert counts.tolist() == naive_counts(
            family, seeds, reported, candidates, 4
        ).tolist()

    def test_tiny_chunk_bytes_forces_candidate_major(self, family, rng):
        seeds = family.sample_seeds(200, rng)
        reported = rng.integers(0, 8, 200)
        candidates = np.arange(30)
        plan = plan_support_counts(200, 30, 8, chunk_bytes=64)
        assert plan.orientation == "candidates"
        tiny = support_counts_kernel(
            family, seeds, reported, candidates, 8, chunk_bytes=64
        )
        assert tiny.tolist() == naive_counts(
            family, seeds, reported, candidates, 8
        ).tolist()

    def test_report_major_chunking_invariant(self, family, rng):
        seeds = family.sample_seeds(500, rng)
        reported = rng.integers(0, 8, 500)
        candidates = np.arange(10)
        one_shot = support_counts_kernel(family, seeds, reported, candidates, 8)
        chunked = support_counts_kernel(
            family, seeds, reported, candidates, 8, chunk_bytes=400
        )
        assert one_shot.tolist() == chunked.tolist()

    def test_unique_seed_fast_path(self, rng):
        """Duplicated 32-bit seeds must route through seed grouping."""
        family = XXHash32Family()
        seeds = np.repeat(family.sample_seeds(40, rng), 10)
        reported = rng.integers(0, 8, len(seeds))
        candidates = np.arange(25)
        plan = plan_support_counts(len(seeds), 25, 8, n_unique=40)
        assert plan.orientation == "unique"
        counts = support_counts_kernel(family, seeds, reported, candidates, 8)
        assert counts.tolist() == naive_counts(
            family, seeds, reported, candidates, 8
        ).tolist()

    def test_unique_path_chunked(self, rng):
        family = XXHash32Family()
        seeds = np.repeat(family.sample_seeds(64, rng), 8)
        reported = rng.integers(0, 4, len(seeds))
        candidates = np.arange(40)
        counts = support_counts_kernel(
            family, seeds, reported, candidates, 4, chunk_bytes=4096
        )
        assert counts.tolist() == naive_counts(
            family, seeds, reported, candidates, 4
        ).tolist()

    def test_64bit_seed_space_skips_grouping(self, rng):
        """Grouping requires a small seed space; CW duplicates still count."""
        family = CarterWegmanHashFamily()
        seeds = np.repeat(family.sample_seeds(20, rng), 10)
        reported = rng.integers(0, 8, len(seeds))
        candidates = np.arange(15)
        counts = support_counts_kernel(family, seeds, reported, candidates, 8)
        assert counts.tolist() == naive_counts(
            family, seeds, reported, candidates, 8
        ).tolist()

    def test_d_out_one_counts_everything(self, family):
        seeds = np.arange(10, dtype=np.uint64)
        reported = np.zeros(10, dtype=np.int64)
        counts = support_counts_kernel(family, seeds, reported, np.arange(6), 1)
        assert counts.tolist() == [10] * 6

    def test_empty_reports(self, family):
        counts = support_counts_kernel(
            family, np.array([], dtype=np.uint64), np.array([], dtype=np.int64),
            np.arange(5), 8,
        )
        assert counts.tolist() == [0] * 5

    def test_empty_candidates(self, family, rng):
        seeds = family.sample_seeds(10, rng)
        counts = support_counts_kernel(
            family, seeds, rng.integers(0, 8, 10),
            np.array([], dtype=np.int64), 8,
        )
        assert counts.shape == (0,)


def planted_reports(family, seeds, candidates, d_out, rng):
    """Reported values of which about half are true hashes of a candidate.

    Uniform reports almost never match when ``d_out`` is large; planting
    real hashes keeps every count path exercised at any ``d_out``.
    """
    picks = rng.integers(0, len(candidates), len(seeds))
    planted = np.array(
        [
            family.hash_value(int(seed), int(candidates[pick]), d_out)
            for seed, pick in zip(seeds, picks)
        ],
        dtype=np.int64,
    )
    noise = rng.integers(0, min(d_out, 1 << 62), len(seeds), dtype=np.int64)
    return np.where(rng.random(len(seeds)) < 0.5, planted, noise)


#: the stream workload's flush shape: SOLH with d=256 candidates, d'=35
TILE_D, TILE_D_OUT = 256, 35
TILE_ROWS = plan_support_counts(1 << 20, TILE_D, TILE_D_OUT).chunk


class TestTileBoundaries:
    """The reused tile must not leak state across stripes or edges."""

    def test_tile_rows_fill_the_tile_bound(self):
        assert 256 <= TILE_ROWS <= 512
        assert 9 * TILE_ROWS * TILE_D <= TILE_BYTES

    @pytest.mark.parametrize(
        "n",
        [1, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 3 * TILE_ROWS + 7],
        ids=["1", "T-1", "T", "T+1", "3T+7"],
    )
    def test_report_counts_around_tile_rows(self, family, rng, n):
        seeds = family.sample_seeds(n, rng)
        candidates = np.arange(TILE_D)
        reported = planted_reports(family, seeds, candidates, TILE_D_OUT, rng)
        plan = plan_support_counts(n, TILE_D, TILE_D_OUT)
        assert plan.orientation == "reports"
        assert plan.chunk == min(n, TILE_ROWS)
        counts = support_counts_kernel(
            family, seeds, reported, candidates, TILE_D_OUT, plan=plan
        )
        assert counts.tolist() == naive_counts(
            family, seeds, reported, candidates, TILE_D_OUT
        ).tolist()
        automatic = support_counts_kernel(
            family, seeds, reported, candidates, TILE_D_OUT
        )
        assert automatic.tolist() == counts.tolist()

    def test_wide_domain_walks_candidate_stripes(self, family, rng):
        """A candidate row wider than the budget flips the walk; the last
        stripe is a single column."""
        n, n_candidates, chunk_bytes = 100, 1001, 4096
        plan = plan_support_counts(n, n_candidates, 8, chunk_bytes=chunk_bytes)
        assert plan.orientation == "candidates"
        assert n_candidates % plan.chunk == 1
        seeds = family.sample_seeds(n, rng)
        candidates = np.arange(n_candidates)
        reported = planted_reports(family, seeds, candidates, 8, rng)
        counts = support_counts_kernel(
            family, seeds, reported, candidates, 8, chunk_bytes=chunk_bytes
        )
        assert counts.tolist() == naive_counts(
            family, seeds, reported, candidates, 8
        ).tolist()

    @pytest.mark.parametrize(
        "family", FAMILIES[1:], ids=lambda f: f.name
    )  # Carter-Wegman's domain ends below 2^31
    @pytest.mark.parametrize("chunk_bytes", [None, 4096])
    def test_candidates_above_2_32(self, family, rng, chunk_bytes):
        """A non-zero high lane must be hashed, never skipped — also when
        only some candidate stripes carry one."""
        candidates = np.concatenate(
            [
                np.arange(600, dtype=np.uint64),
                np.array([1 << 32, (1 << 32) + 5, (1 << 63) + 11,
                          (1 << 64) - 1], dtype=np.uint64),
            ]
        )
        seeds = family.sample_seeds(80, rng)
        reported = planted_reports(family, seeds, candidates, 16, rng)
        counts = support_counts_kernel(
            family, seeds, reported, candidates, 16, chunk_bytes=chunk_bytes
        )
        expected = naive_counts(family, seeds, reported, candidates, 16)
        assert counts.tolist() == expected.tolist()
        assert counts[600:].sum() > 0

    @pytest.mark.parametrize(
        "d_out", [1, 1 << 32, (1 << 32) + 5], ids=["1", "2^32", "2^32+5"]
    )
    def test_d_out_extremes(self, family, rng, d_out):
        n = TILE_ROWS + 3
        seeds = family.sample_seeds(n, rng)
        candidates = np.arange(TILE_D)
        reported = planted_reports(family, seeds, candidates, d_out, rng)
        counts = support_counts_kernel(
            family, seeds, reported, candidates, d_out
        )
        expected = naive_counts(family, seeds, reported, candidates, d_out)
        assert counts.tolist() == expected.tolist()
        assert counts.sum() > 0


class TestPlan:
    def test_full_matrix_fits_one_chunk(self):
        plan = plan_support_counts(1_000, 10, 16)
        assert plan.orientation == "reports"
        assert plan.chunk == 1_000
        assert plan.hashes_evaluated == 10_000

    def test_wide_candidate_axis_flips_orientation(self):
        plan = plan_support_counts(10, 1_000_000, 16, chunk_bytes=1 << 20)
        assert plan.orientation == "candidates"
        assert 1 <= plan.chunk < 1_000_000
        assert plan.peak_intermediate_bytes <= (1 << 20)

    def test_unique_requires_enough_duplicates(self):
        grouped = plan_support_counts(1_000, 50, 8, n_unique=100)
        assert grouped.orientation == "unique"
        ungrouped = plan_support_counts(1_000, 50, 8, n_unique=999)
        assert ungrouped.orientation == "reports"

    def test_unique_requires_weight_table_within_budget(self):
        plan = plan_support_counts(1_000, 50, 1 << 20, chunk_bytes=1 << 16,
                                   n_unique=100)
        assert plan.orientation != "unique"

    def test_stream_shaped_default_plan_stays_in_tile(self):
        plan = plan_support_counts(31_350, 256, 35)
        assert plan.orientation == "reports"
        assert plan.peak_intermediate_bytes <= TILE_BYTES
        assert plan.peak_intermediate_bytes == 9 * plan.chunk * 256

    def test_peak_bytes_scale_with_chunk(self):
        small = plan_support_counts(10_000, 128, 16, chunk_bytes=1 << 16)
        large = plan_support_counts(10_000, 128, 16, chunk_bytes=1 << 26)
        assert small.peak_intermediate_bytes < large.peak_intermediate_bytes
        assert small.peak_intermediate_bytes <= (1 << 16)

    def test_explicit_plan_overrides_auto(self, rng):
        family = CarterWegmanHashFamily()
        seeds = family.sample_seeds(50, rng)
        reported = rng.integers(0, 8, 50)
        candidates = np.arange(20)
        forced = plan_support_counts(50, 20, 8, chunk_bytes=128)
        counts = support_counts_kernel(
            family, seeds, reported, candidates, 8, plan=forced
        )
        assert counts.tolist() == naive_counts(
            family, seeds, reported, candidates, 8
        ).tolist()


class TestGroupingProbe:
    """The duplicate-seed probe must not sort huge clearly-unique inputs."""

    def test_small_inputs_always_probe(self):
        from repro.hashing.kernels import _grouping_plausible

        assert _grouping_plausible(XXHash32Family(), 1_000, 4)
        assert not _grouping_plausible(XXHash32Family(), 1, 100)

    def test_large_narrow_inputs_require_birthday_regime(self):
        from repro.hashing.kernels import _grouping_plausible

        family = XXHash32Family()
        assert not _grouping_plausible(family, 1_000_000, 16)
        assert _grouping_plausible(family, (1 << 31) + 1, 16)

    def test_wide_candidate_axis_always_probes(self):
        """Duplicate-heavy re-aggregation workloads keep the O(u*d) win."""
        from repro.hashing.kernels import _grouping_plausible

        assert _grouping_plausible(XXHash32Family(), 1_000_000, 128)

    def test_64bit_seed_space_never_probes(self):
        from repro.hashing.kernels import _grouping_plausible

        assert not _grouping_plausible(CarterWegmanHashFamily(), 1_000, 1_000)


class TestChunkSpans:
    def test_covers_range_exactly(self):
        spans = list(chunk_spans(10, 3))
        assert spans == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_degenerate_chunk_clamped_to_one(self):
        assert list(chunk_spans(3, 0)) == [(0, 1), (1, 2), (2, 3)]

    def test_empty_total(self):
        assert list(chunk_spans(0, 5)) == []
