"""Seeded randomized fuzz tests for the kernel primitives (ISSUE 1).

Every primitive of the NumPy backend is compared against the
pure-Python reference on adversarial pair distributions: duplicates,
empty tables, single-property skew, and max-ID boundary values around
2**32 — the edge of the NumPy backend's packed-uint64 fast path, so
both the packed and the structured-fallback code paths are exercised.

All randomness is seeded (no flaky inputs); each named distribution is
regenerated identically on every run.
"""

import random
import zlib
from array import array

import pytest

from repro.closure.nuutila import build_reach_index
from repro.kernels import get_backend
from repro.kernels.compressed_backend import CompressedKernels
from repro.kernels.python_backend import PYTHON_KERNELS

BOUNDARY = 2 ** 32  # packed fast-path limit in the numpy backend
SEED = 0xC0FFEE


def _flat(rng, n_pairs, key_pool, value_pool):
    out = []
    for _ in range(n_pairs):
        out.append(rng.choice(key_pool))
        out.append(rng.choice(value_pool))
    return out


def _distributions():
    rng = random.Random(SEED)
    small = list(range(8))
    dense = list(range(60))
    sparse = [rng.randrange(10 ** 7) for _ in range(40)]
    boundary = [0, 1, BOUNDARY - 2, BOUNDARY - 1, BOUNDARY, BOUNDARY + 1,
                2 ** 40, 2 ** 62]
    yield "empty", []
    yield "single", [3, 7]
    yield "one-pair-repeated", [5, 5] * 50
    yield "single-property-skew", _flat(rng, 300, [42], dense)
    yield "heavy-duplicates", _flat(rng, 250, small, small)
    yield "dense-random", _flat(rng, 400, dense, dense)
    yield "sparse-random", _flat(rng, 200, sparse, sparse)
    yield "boundary-2pow32", _flat(rng, 120, boundary, boundary)
    yield "mixed-boundary", _flat(rng, 150, dense, boundary)
    # The real dictionary layout: property ids just below the 2**32
    # split, resource ids just above it — absolute values exceed 32
    # bits but the spread is tiny, so the rebased packed path fires.
    dict_like = [BOUNDARY - d for d in range(1, 20)] + [
        BOUNDARY + d for d in range(1, 400)
    ]
    yield "dictionary-layout", _flat(rng, 300, dict_like, dict_like)


DISTRIBUTIONS = dict(_distributions())


def _interval_layouts():
    """cross_intervals inputs: groups of one or several members, reach
    of zero to four intervals (adjacent and disjoint), relabel ids on
    both sides of 2**40; plus two read off real reach indexes."""
    rng = random.Random(SEED ^ 0x7E7A)
    yield "no-groups", ([], [], [], [], [], [])
    for case in range(24):
        member_counts = [
            rng.choice((1, 1, 1, 2, 3, 6)) for _ in range(rng.randrange(1, 9))
        ]
        n_ids = sum(member_counts)
        member_lows = [sum(member_counts[:g]) for g in range(len(member_counts))]
        interval_counts, lows, highs = [], [], []
        for _ in member_counts:
            count, position = 0, rng.randrange(2)
            for _ in range(rng.randrange(5)):
                low = position + rng.choice((0, 0, 1, 3))
                high = low + rng.randrange(3)
                if high >= n_ids:
                    break
                lows.append(low)
                highs.append(high)
                count += 1
                position = high + 1
            interval_counts.append(count)
        relabel = [
            rng.choice((0, 2 ** 32, 2 ** 40, 2 ** 62)) + rng.randrange(2 ** 20)
            for _ in range(n_ids)
        ]
        yield f"random-{case}", (
            member_lows, member_counts, interval_counts, lows, highs, relabel
        )
    chain_and_cycle = [(i, i + 1) for i in range(9)] + [(20, 21), (21, 20)]
    yield "index-chain-cycle", build_reach_index(
        chain_and_cycle
    ).interval_columns()
    tree_with_loop = [(k, (k - 1) // 2) for k in range(1, 15)] + [(2, 2)]
    yield "index-tree-selfloop", build_reach_index(
        [(s + 2 ** 40, o + 2 ** 40) for s, o in tree_with_loop]
    ).interval_columns()


INTERVAL_LAYOUTS = dict(_interval_layouts())


def as_ints(flat):
    return [int(value) for value in flat]


@pytest.fixture(scope="module")
def np_kernels():
    return get_backend("numpy")


@pytest.fixture(params=sorted(DISTRIBUTIONS))
def dist(request):
    return request.param, list(DISTRIBUTIONS[request.param])


def test_sort_pairs_matches(np_kernels, dist):
    _, flat = dist
    for dedup in (True, False):
        expected = as_ints(PYTHON_KERNELS.sort_pairs(flat, dedup=dedup))
        got = as_ints(np_kernels.sort_pairs(flat, dedup=dedup))
        assert got == expected


def test_swap_and_os_view_match(np_kernels, dist):
    _, flat = dist
    assert as_ints(np_kernels.swap(flat)) == as_ints(PYTHON_KERNELS.swap(flat))
    sorted_flat = PYTHON_KERNELS.sort_pairs(flat, dedup=True)
    assert as_ints(np_kernels.os_view(sorted_flat)) == as_ints(
        PYTHON_KERNELS.os_view(sorted_flat)
    )


def test_merge_new_matches(np_kernels, dist):
    name, flat = dist
    rng = random.Random(SEED ^ zlib.crc32(name.encode()))
    # Split the distribution into main/inferred halves plus an overlap,
    # so duplicates across the two inputs are guaranteed.
    pairs = list(zip(flat[0::2], flat[1::2]))
    rng.shuffle(pairs)
    half = len(pairs) // 2
    main_pairs = pairs[:half] + pairs[: half // 2]
    inferred_pairs = pairs[half:] + pairs[: half // 3]
    main = PYTHON_KERNELS.sort_pairs(
        [v for p in main_pairs for v in p], dedup=True
    )
    inferred = PYTHON_KERNELS.sort_pairs(
        [v for p in inferred_pairs for v in p], dedup=True
    )
    expected_merged, expected_new = PYTHON_KERNELS.merge_new(main, inferred)
    got_merged, got_new = np_kernels.merge_new(main, inferred)
    assert as_ints(got_merged) == as_ints(expected_merged)
    assert as_ints(got_new) == as_ints(expected_new)


def test_merge_join_matches(np_kernels, dist):
    name, flat = dist
    rng = random.Random(SEED ^ zlib.crc32(name.encode()) ^ 1)
    other = list(flat)
    rng.shuffle(other)
    view1 = PYTHON_KERNELS.sort_pairs(flat, dedup=True)
    view2 = PYTHON_KERNELS.sort_pairs(other, dedup=True)
    for swap in (False, True):
        expected = as_ints(PYTHON_KERNELS.merge_join(view1, view2, swap=swap))
        got = as_ints(np_kernels.merge_join(view1, view2, swap=swap))
        assert got == expected


def test_merge_join_self_join_matches(np_kernels, dist):
    _, flat = dist
    sorted_flat = PYTHON_KERNELS.sort_pairs(flat, dedup=True)
    os_view = PYTHON_KERNELS.os_view(sorted_flat)
    expected = as_ints(PYTHON_KERNELS.merge_join(os_view, sorted_flat))
    got = as_ints(np_kernels.merge_join(os_view, sorted_flat))
    assert got == expected


def test_intersect_matches(np_kernels, dist):
    name, flat = dist
    rng = random.Random(SEED ^ zlib.crc32(name.encode()) ^ 2)
    other = list(flat)
    rng.shuffle(other)
    # Overlap guaranteed: second view reuses a pair-aligned prefix.
    other += flat[: 2 * (len(flat) // 4)]
    view1 = PYTHON_KERNELS.sort_pairs(flat, dedup=True)
    view2 = PYTHON_KERNELS.sort_pairs(other, dedup=True)
    assert as_ints(np_kernels.intersect(view1, view2)) == as_ints(
        PYTHON_KERNELS.intersect(view1, view2)
    )


def test_difference_matches(np_kernels, dist):
    """flat ∖ other on every backend, against set semantics: half the
    pairs removed, plus pairs of ``other`` that ``flat`` never had."""
    name, flat = dist
    rng = random.Random(SEED ^ zlib.crc32(name.encode()) ^ 3)
    pairs = list(zip(flat[0::2], flat[1::2]))
    rng.shuffle(pairs)
    removed = pairs[: len(pairs) // 2] + [(-1, -1), (BOUNDARY, 2 ** 62)]
    view1 = PYTHON_KERNELS.sort_pairs(flat, dedup=True)
    view2 = PYTHON_KERNELS.sort_pairs(
        [v for pair in removed for v in pair], dedup=True
    )
    expected = [
        v for pair in sorted(set(pairs) - set(removed)) for v in pair
    ]
    assert as_ints(PYTHON_KERNELS.difference(view1, view2)) == expected
    for kernels in (
        np_kernels,
        CompressedKernels(),
    ):
        got = kernels.difference(kernels.asarray(view1), view2)
        assert as_ints(got) == expected
        assert as_ints(kernels.difference(view1, view1[:0])) == as_ints(view1)


def test_consecutive_in_group_matches(np_kernels, dist):
    _, flat = dist
    sorted_flat = PYTHON_KERNELS.sort_pairs(flat, dedup=True)
    assert as_ints(np_kernels.consecutive_in_group(sorted_flat)) == as_ints(
        PYTHON_KERNELS.consecutive_in_group(sorted_flat)
    )


def test_distinct_and_slices_match(np_kernels, dist):
    _, flat = dist
    sorted_flat = PYTHON_KERNELS.sort_pairs(flat, dedup=True)
    expected_keys = as_ints(PYTHON_KERNELS.distinct_evens(sorted_flat))
    assert as_ints(np_kernels.distinct_evens(sorted_flat)) == expected_keys
    probes = expected_keys[:5] + [-1, 0, BOUNDARY, 2 ** 62 + 1]
    for key in probes:
        expected = PYTHON_KERNELS.key_slice(sorted_flat, key)
        got = np_kernels.key_slice(sorted_flat, key)
        assert tuple(int(x) for x in got) == expected


def test_pair_with_constant_and_concat_match(np_kernels, dist):
    _, flat = dist
    keys = as_ints(
        PYTHON_KERNELS.distinct_evens(
            PYTHON_KERNELS.sort_pairs(flat, dedup=True)
        )
    )
    for const_obj in (True, False):
        expected = as_ints(
            PYTHON_KERNELS.pair_with_constant(
                keys, 99, constant_as_object=const_obj
            )
        )
        got = as_ints(
            np_kernels.pair_with_constant(
                keys, 99, constant_as_object=const_obj
            )
        )
        assert got == expected
    chunks = [array("q", flat), array("q"), list(flat[: len(flat) // 2])]
    assert as_ints(np_kernels.concat(chunks)) == as_ints(
        PYTHON_KERNELS.concat(chunks)
    )


def test_column_primitives_match(np_kernels, dist):
    """index_by_key / take / where_equal / repeat — the column side of
    the BGP evaluator — on numpy and on compressed (which hands them to
    the numpy kernels) against the interpreted reference."""
    _, flat = dist
    native = np_kernels.concat([flat])
    rng = random.Random(len(flat))
    for kernels in (np_kernels, get_backend("compressed")):
        for column, mine in ((flat[0::2], native[0::2]),
                             (flat[1::2], native[1::2])):
            keyed = as_ints(kernels.index_by_key(mine))
            assert keyed == as_ints(PYTHON_KERNELS.index_by_key(column))
            # Sorted on the key, ties by row; companions are the rows.
            assert keyed[0::2] == sorted(column)
            assert [column[row] for row in keyed[1::2]] == keyed[0::2]
            rows = [rng.randrange(len(column)) for _ in column[:40]]
            assert as_ints(kernels.take(mine, kernels.concat([rows]))) == [
                column[row] for row in rows
            ]
            counts = [rng.randrange(4) for _ in column]
            assert as_ints(kernels.repeat(mine, counts)) == as_ints(
                PYTHON_KERNELS.repeat(column, counts)
            )
        agree = as_ints(kernels.where_equal(native[0::2], native[1::2]))
        assert agree == [
            i for i, (a, b) in enumerate(zip(flat[0::2], flat[1::2]))
            if a == b
        ]
        assert as_ints(kernels.repeat((7,), (3,))) == [7, 7, 7]
        assert as_ints(kernels.repeat(range(3), [2, 0, 1])) == [0, 0, 2]


@pytest.mark.parametrize("layout", sorted(INTERVAL_LAYOUTS))
def test_cross_intervals_matches(np_kernels, layout):
    """The θ emission primitive: python ≡ numpy ≡ compressed, order
    included."""
    columns = INTERVAL_LAYOUTS[layout]
    expected = as_ints(PYTHON_KERNELS.cross_intervals(*columns))
    _, member_counts, interval_counts, lows, highs, _ = columns
    widths = [high - low + 1 for low, high in zip(lows, highs)]
    ends = [sum(interval_counts[: g + 1]) for g in range(len(member_counts))]
    assert len(expected) == 2 * sum(
        count * sum(widths[end - n_intervals: end])
        for count, n_intervals, end in zip(member_counts, interval_counts, ends)
    )
    for kernels in (
        np_kernels,
        CompressedKernels(),
    ):
        assert as_ints(kernels.cross_intervals(*columns)) == expected


def test_cross_backend_array_adoption(np_kernels):
    """numpy kernels accept array('q') and python kernels accept ndarray."""
    flat = array("q", [4, 1, 2, 9, 2, 9, 0, 0])
    np_sorted = np_kernels.sort_pairs(flat)
    py_sorted = PYTHON_KERNELS.sort_pairs(np_sorted, dedup=False)
    assert as_ints(py_sorted) == as_ints(np_sorted)
    assert as_ints(PYTHON_KERNELS.asarray(np_sorted)) == as_ints(np_sorted)


def test_python_adopts_ndarray_buffers():
    """Contiguous int64 ndarrays are copied as bytes; strided and other
    dtypes are read value by value, to the same values."""
    import numpy as np

    base = np.arange(BOUNDARY - 6, BOUNDARY + 6, dtype=np.int64)
    narrow = np.arange(-6, 6, dtype=np.int32)
    for flat in (base, base[::2], base.reshape(-1, 2)[:, 1], narrow):
        adopted = PYTHON_KERNELS.asarray(flat)
        assert isinstance(adopted, array) and adopted.typecode == "q"
        assert list(adopted) == flat.tolist()
    adopted = PYTHON_KERNELS.asarray(base)
    adopted[0] = 0
    assert base[0] == BOUNDARY - 6  # a copy, not a view


def test_packed_fast_path_boundary_exactness(np_kernels):
    """Pairs straddling 2**32 must not be conflated by key packing."""
    tricky = [
        BOUNDARY - 1, 0,
        0, BOUNDARY - 1,
        1, 0,
        0, 1,
        BOUNDARY, 0,
        0, BOUNDARY,
    ]
    expected = as_ints(PYTHON_KERNELS.sort_pairs(tricky))
    assert as_ints(np_kernels.sort_pairs(tricky)) == expected


def test_packed_path_fires_on_real_dictionary_ids(np_kernels):
    """Rebased packing must cover the dense split numbering (ids ~2**32)."""
    from numpy import int64, asarray
    from repro.kernels.numpy_backend import _pack

    evens = asarray([BOUNDARY - 5, BOUNDARY + 9, BOUNDARY + 1000], int64)
    odds = asarray([BOUNDARY + 1, BOUNDARY + 2, BOUNDARY - 3], int64)
    assert _pack(evens, odds) is not None
    # but a genuine > 32-bit spread still falls back
    wide = asarray([0, 2 ** 40], int64)
    assert _pack(wide, odds[:2]) is None
