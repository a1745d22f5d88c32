"""Unit tests for the compressed columnar kernel backend.

Every primitive is differentially checked against the pure-Python
reference backend on randomized pair arrays that cross block
boundaries; the structural properties the backend exists for — block
sharing across merges, deduplicated accounting, the self-describing
serialized stream — are asserted directly.
"""

import random
from array import array

import pytest

from repro.kernels import numpy_available
from repro.kernels.compressed_backend import (
    BLOCK_PAIRS,
    CompressedKernels,
    CompressedPairs,
    _MAGIC,
    _NumpyCodec,
    _PythonCodec,
)
from repro.kernels.python_backend import PYTHON_KERNELS

INNERS = ["python"]
if numpy_available():
    INNERS.append("numpy")


def _inner(name):
    if name == "numpy":
        from repro.kernels.numpy_backend import NUMPY_KERNELS

        return NUMPY_KERNELS
    return PYTHON_KERNELS


@pytest.fixture(params=INNERS)
def kernels(request):
    return CompressedKernels(_inner(request.param))


def _random_sorted_pairs(rng, n_pairs, key_range=None, value_range=None):
    """A sorted-unique flat pair array('q'), possibly negative values."""
    key_range = key_range or (0, max(4, n_pairs // 3))
    value_range = value_range or (-(1 << 40), 1 << 40)
    seen = set()
    while len(seen) < n_pairs:
        seen.add(
            (rng.randint(*key_range), rng.randint(*value_range))
        )
    flat = array("q")
    for s, o in sorted(seen):
        flat.append(s)
        flat.append(o)
    return flat


def _as_list(flat):
    return [int(v) for v in flat]


class TestCodecRoundtrip:
    @pytest.mark.parametrize(
        "codec", [_PythonCodec()]
        + ([_NumpyCodec()] if numpy_available() else [])
    )
    @pytest.mark.parametrize(
        "n_pairs", [1, 2, BLOCK_PAIRS - 1, BLOCK_PAIRS, BLOCK_PAIRS + 1,
                    3 * BLOCK_PAIRS + 17]
    )
    def test_roundtrip(self, codec, n_pairs):
        rng = random.Random(n_pairs)
        flat = _random_sorted_pairs(rng, n_pairs)
        pairs = CompressedPairs.from_flat(flat, codec)
        assert len(pairs) == len(flat)
        assert pairs.tolist() == _as_list(flat)

    @pytest.mark.parametrize(
        "codec", [_PythonCodec()]
        + ([_NumpyCodec()] if numpy_available() else [])
    )
    def test_constant_columns_use_width_zero(self, codec):
        # All-equal columns have zero deltas: the block carries only a
        # header (width 0), the extreme of the frame-of-reference win.
        flat = array("q", [7, -3] * 100)
        pairs = CompressedPairs.from_flat(flat, codec)
        assert pairs.tolist() == _as_list(flat)
        assert pairs.nbytes() < 40  # one 36-byte header, no delta bytes

    @pytest.mark.parametrize(
        "codec", [_PythonCodec()]
        + ([_NumpyCodec()] if numpy_available() else [])
    )
    def test_extreme_values_roundtrip(self, codec):
        big = (1 << 62) - 1
        flat = array("q", [-big, big, -1, 1, 0, 0, big, -big])
        flat = PYTHON_KERNELS.sort_pairs(flat, dedup=True)
        pairs = CompressedPairs.from_flat(flat, codec)
        assert pairs.tolist() == _as_list(flat)

    def test_python_and_numpy_codec_streams_interchange(self):
        if not numpy_available():
            pytest.skip("numpy codec unavailable")
        rng = random.Random(5)
        flat = _random_sorted_pairs(rng, 2500)
        py = CompressedPairs.from_flat(flat, _PythonCodec())
        np_ = CompressedPairs.from_flat(
            _inner("numpy").asarray(flat), _NumpyCodec()
        )
        # Same encoding on both codecs, decodable by either.
        assert py.serialize() == np_.serialize()
        crossed = CompressedPairs.deserialize(py.serialize(), _NumpyCodec())
        assert crossed.tolist() == _as_list(flat)


class TestSequenceProtocol:
    def test_indexing_and_slicing(self, kernels):
        rng = random.Random(11)
        flat = _random_sorted_pairs(rng, BLOCK_PAIRS + 333)
        pairs = kernels.asarray(flat)
        reference = _as_list(flat)
        for i in (0, 1, 17, len(flat) - 1, -1, -len(flat)):
            assert pairs[i] == reference[i]
        for lo, hi in ((0, 10), (2046, 2060), (0, len(flat)),
                       (len(flat) - 4, len(flat))):
            assert _as_list(pairs[lo:hi]) == reference[lo:hi]
        with pytest.raises(IndexError):
            pairs[len(flat)]
        with pytest.raises(ValueError):
            pairs[0: len(flat): 4]

    def test_iteration_and_tobytes(self, kernels):
        flat = _random_sorted_pairs(random.Random(3), 100)
        pairs = kernels.asarray(flat)
        assert list(pairs) == _as_list(flat)
        assert pairs.tobytes() == flat.tobytes()

    def test_empty(self, kernels):
        empty = kernels.empty()
        assert len(empty) == 0
        assert empty.tolist() == []
        assert empty.nbytes() == 0


class TestPrimitivesMatchReference:
    @pytest.mark.parametrize("n_pairs", [10, 700, 2 * BLOCK_PAIRS + 50])
    def test_sort_and_views(self, kernels, n_pairs):
        rng = random.Random(n_pairs)
        raw = array(
            "q",
            [rng.randint(-50, 50) for _ in range(2 * n_pairs)],
        )
        expected = PYTHON_KERNELS.sort_pairs(raw, dedup=True)
        got = kernels.sort_pairs(raw, dedup=True)
        assert isinstance(got, CompressedPairs)
        assert got.tolist() == _as_list(expected)
        assert kernels.os_view(got).tolist() == _as_list(
            PYTHON_KERNELS.os_view(expected)
        )

    def test_merge_new_matches_reference(self, kernels):
        rng = random.Random(21)
        main = _random_sorted_pairs(rng, 3000, key_range=(0, 500))
        delta = _random_sorted_pairs(rng, 400, key_range=(0, 500))
        expected_merged, expected_new = PYTHON_KERNELS.merge_new(main, delta)
        merged, new = kernels.merge_new(kernels.asarray(main), delta)
        assert merged.tolist() == _as_list(expected_merged)
        assert _as_list(new) == _as_list(expected_new)

    def test_joins_match_reference(self, kernels):
        rng = random.Random(31)
        v1 = _random_sorted_pairs(rng, 2200, key_range=(0, 300),
                                  value_range=(0, 50))
        v2 = _random_sorted_pairs(rng, 1800, key_range=(100, 400),
                                  value_range=(0, 50))
        c1, c2 = kernels.asarray(v1), kernels.asarray(v2)
        for swap in (False, True):
            assert _as_list(kernels.merge_join(c1, c2, swap=swap)) == \
                _as_list(PYTHON_KERNELS.merge_join(v1, v2, swap=swap))
        assert _as_list(kernels.intersect(c1, c2)) == _as_list(
            PYTHON_KERNELS.intersect(v1, v2)
        )
        left = set(zip(v1[0::2], v1[1::2])) - set(zip(v2[0::2], v2[1::2]))
        assert _as_list(kernels.difference(c1, c2)) == [
            v for pair in sorted(left) for v in pair
        ]
        assert _as_list(kernels.consecutive_in_group(c1)) == _as_list(
            PYTHON_KERNELS.consecutive_in_group(v1)
        )

    def test_scans_and_bounds_match_reference(self, kernels):
        rng = random.Random(41)
        flat = _random_sorted_pairs(rng, 2 * BLOCK_PAIRS + 99,
                                    key_range=(0, 120))
        pairs = kernels.asarray(flat)
        assert list(kernels.distinct_evens(pairs)) == list(
            PYTHON_KERNELS.distinct_evens(flat)
        )
        for key in (-1, 0, 7, 60, 119, 120, 10_000):
            assert kernels.key_slice(pairs, key) == \
                PYTHON_KERNELS.key_slice(flat, key)
            assert kernels.key_lower_bound(pairs, key) == \
                PYTHON_KERNELS.key_lower_bound(flat, key)


class TestStructureSharing:
    def test_merge_reuses_untouched_blocks(self, kernels):
        rng = random.Random(51)
        main = kernels.sort_pairs(
            _random_sorted_pairs(rng, 10 * BLOCK_PAIRS), dedup=True
        )
        # A delta confined to the key range of the *last* block.
        last_block = kernels._raw(main)[-2 * BLOCK_PAIRS:]
        lo = int(last_block[0])
        delta = array("q", [lo + 1, -999_999_999])
        merged, _ = kernels.merge_new(main, delta)
        def block_ids(pairs):
            return {id(block) for block in pairs._blocks}

        shared = block_ids(main) & block_ids(merged)
        assert len(shared) >= len(block_ids(main)) - 2

    def test_flat_nbytes_deduplicates_shared_blocks(self, kernels):
        pairs = kernels.asarray(
            _random_sorted_pairs(random.Random(7), 3000)
        )
        alias = pairs  # a snapshot aliases the committed array
        seen = set()
        total = kernels.flat_nbytes(pairs, seen)
        assert total == pairs.nbytes()
        assert kernels.flat_nbytes(alias, seen) == 0

    def test_compression_beats_flat_encoding(self, kernels):
        # Dense dictionary ids: the motivating case must beat 4x.
        flat = array("q")
        for i in range(20_000):
            flat.append(i // 4)
            flat.append(i % 4 + i // 8)
        flat = PYTHON_KERNELS.sort_pairs(flat, dedup=True)
        pairs = kernels.asarray(flat)
        assert pairs.nbytes() * 4 <= 8 * len(flat)


class TestSerialization:
    def test_serialize_roundtrip_and_magic(self, kernels):
        flat = _random_sorted_pairs(random.Random(8), 2500)
        pairs = kernels.asarray(flat)
        blob = pairs.serialize()
        assert blob.startswith(_MAGIC)
        back = CompressedPairs.deserialize(blob, kernels._codec)
        assert len(back) == len(pairs)
        assert back.tolist() == _as_list(flat)

    def test_deserialize_rejects_raw_pairs(self, kernels):
        flat = _random_sorted_pairs(random.Random(9), 10)
        with pytest.raises(ValueError, match="not a serialized"):
            CompressedPairs.deserialize(flat.tobytes(), kernels._codec)


class TestBackendPlumbing:
    def test_name_and_inner(self, kernels):
        assert kernels.name == "compressed"
        assert kernels.inner_name in ("python", "numpy")

    def test_asarray_passthrough(self, kernels):
        pairs = kernels.asarray(array("q", [1, 2, 3, 4]))
        assert kernels.asarray(pairs) is pairs

    def test_odd_length_rejected(self, kernels):
        with pytest.raises(ValueError):
            kernels.asarray(array("q", [1, 2, 3]))
