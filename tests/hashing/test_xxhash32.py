"""xxHash32 against the published reference vectors and basic laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import xxhash32, xxhash32_int, xxhash32_int_array


class TestReferenceVectors:
    """Vectors from the xxHash reference implementation / python-xxhash."""

    def test_empty_seed0(self):
        assert xxhash32(b"", 0) == 0x02CC5D05

    def test_single_byte(self):
        assert xxhash32(b"a", 0) == 0x550D7456

    def test_abc(self):
        assert xxhash32(b"abc", 0) == 0x32D153FF

    def test_long_string(self):
        assert xxhash32(b"Nobody inspects the spammish repetition", 0) == 0xE2293B2F

    def test_exactly_16_bytes(self):
        # Exercises the 4-accumulator stripe path boundary.
        assert xxhash32(b"0123456789abcdef", 0) == xxhash32(b"0123456789abcdef", 0)

    def test_seed_changes_output(self):
        assert xxhash32(b"abc", 0) != xxhash32(b"abc", 1)

    def test_seed_wraps_32_bits(self):
        assert xxhash32(b"abc", 1 << 32) == xxhash32(b"abc", 0)


class TestProperties:
    def test_output_is_32_bit(self):
        for data in (b"", b"x", b"hello world" * 10):
            for seed in (0, 1, 0xFFFFFFFF):
                assert 0 <= xxhash32(data, seed) < (1 << 32)

    def test_deterministic(self):
        assert xxhash32(b"determinism", 7) == xxhash32(b"determinism", 7)

    @pytest.mark.parametrize("length", [0, 1, 3, 4, 5, 15, 16, 17, 31, 32, 33, 100])
    def test_all_length_paths(self, length):
        data = bytes(range(256))[:length] * (length // max(length, 1) + 1)
        data = data[:length]
        value = xxhash32(data, 42)
        assert 0 <= value < (1 << 32)

    def test_int_hashing_consistent_with_bytes(self):
        assert xxhash32_int(1234, 9) == xxhash32((1234).to_bytes(8, "little"), 9)

    def test_int_hashing_distinct_values(self):
        outputs = {xxhash32_int(v, 0) for v in range(1000)}
        # No collisions expected among 1000 values in a 2^32 range.
        assert len(outputs) == 1000


class TestVectorizedArrayPath:
    """The branch-free lane path must be bit-identical to the reference."""

    def test_outer_grid_matches_scalar(self):
        rng = np.random.default_rng(7)
        values = np.concatenate(
            [
                np.array([0, 1, (1 << 32) - 1, 1 << 32, (1 << 64) - 1],
                         dtype=np.uint64),
                rng.integers(0, 1 << 63, 40, dtype=np.uint64),
            ]
        )
        seeds = np.concatenate(
            [
                np.array([0, 1, (1 << 32) - 1], dtype=np.uint64),
                rng.integers(0, 1 << 32, 12, dtype=np.uint64),
            ]
        )
        matrix = xxhash32_int_array(values[None, :], seeds[:, None])
        assert matrix.dtype == np.uint32
        assert matrix.shape == (len(seeds), len(values))
        for i, seed in enumerate(seeds):
            for j, value in enumerate(values):
                assert int(matrix[i, j]) == xxhash32_int(int(value), int(seed))

    def test_elementwise_broadcast(self):
        values = np.arange(64, dtype=np.uint64)
        seeds = np.arange(64, dtype=np.uint64) * 977
        out = xxhash32_int_array(values, seeds)
        assert out.shape == (64,)
        assert all(
            int(out[i]) == xxhash32_int(int(values[i]), int(seeds[i]))
            for i in range(64)
        )

    def test_scalar_inputs(self):
        assert int(xxhash32_int_array(1234, 9)) == xxhash32_int(1234, 9)

    def test_seed_wraps_32_bits(self):
        wrapped = xxhash32_int_array(
            np.array([5], dtype=np.uint64), np.array([(1 << 32) + 7],
                                                     dtype=np.uint64)
        )
        assert int(wrapped[0]) == xxhash32_int(5, 7)

    def test_empty(self):
        out = xxhash32_int_array(np.array([], dtype=np.uint64), 3)
        assert out.shape == (0,)
        assert out.dtype == np.uint32

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError, match="outside"):
            xxhash32_int_array(np.array([3, -1]), 0)

    @given(
        value=st.integers(min_value=0, max_value=(1 << 64) - 1),
        seed=st.integers(min_value=0, max_value=(1 << 32) - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_identical_to_reference(self, value, seed):
        vectorized = xxhash32_int_array(
            np.array([value], dtype=np.uint64), np.uint64(seed)
        )
        assert int(vectorized[0]) == xxhash32_int(value, seed)

    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=(1 << 64) - 1),
            min_size=1, max_size=6,
        ),
        seeds=st.lists(
            st.integers(min_value=0, max_value=(1 << 33)),
            min_size=1, max_size=4,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_in_place_lanes_match_reference(self, values, seeds):
        """Filling caller-owned ``out``/``scratch`` buffers (the kernel's
        tile) is the reference hash, with or without high lanes."""
        values = np.array(values, dtype=np.uint64)
        seeds = np.array(seeds, dtype=np.uint64)
        shape = (len(seeds), len(values))
        out = np.full(shape, 0xDEADBEEF, dtype=np.uint32)
        scratch = np.full(shape, 0x12345678, dtype=np.uint32)
        result = xxhash32_int_array(
            values[None, :], seeds[:, None], out=out, scratch=scratch
        )
        assert result is out
        assert out.tolist() == [
            [xxhash32_int(int(v), int(s)) for v in values] for s in seeds
        ]
