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
from repro.kernels.base import SMALL_SIDE_RATIO
from repro.kernels.compressed_backend import CompressedKernels
from repro.kernels.numpy_backend import RUN_COPY_MAX_ROWS, RUN_COPY_RATIO
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


def _small_deltas():
    """(table pairs, delta pairs): a delta of k rows against a table
    of n — the shapes of the numpy small-side path, which a side at
    most 1/SMALL_SIDE_RATIO of the other takes.  Each runs both ways
    round, so the large side is the first operand and the second."""
    rng = random.Random(SEED ^ 0x5DE1)
    ratio = SMALL_SIDE_RATIO

    def table(n_pairs, low=0, high=10 ** 6):
        rows = set()
        while len(rows) < n_pairs:
            rows.add((rng.randrange(low, high), rng.randrange(low, high)))
        return sorted(rows)

    def mixed(rows, n_present, n_absent, low=0, high=10 ** 6):
        delta = set(rng.sample(rows, n_present))
        while len(delta) < n_present + n_absent:
            pair = (rng.randrange(low, high), rng.randrange(low, high))
            if pair not in rows:
                delta.add(pair)
        return sorted(delta)

    big = table(2000)
    yield "small-k1-absent", (big, mixed(big, 0, 1))
    yield "small-k1-present", (big, mixed(big, 1, 0))
    yield "small-k5", (big, mixed(big, 2, 3))
    # R·k = n ± 1: one row either side of the path's threshold.
    for name, n_pairs in (("small-ratio-plus-1", 10 * ratio + 1),
                          ("small-ratio-minus-1", 10 * ratio - 1)):
        rows = table(n_pairs)
        yield name, (rows, mixed(rows, 4, 6))
    yield "small-all-duplicates", (big, mixed(big, 8, 0))
    yield "small-before-first", (table(1000, 100, 10 ** 6),
                                 [(0, 5), (1, 1), (1, 7), (99, 0), (99, 99)])
    yield "small-after-last", (table(1000), [(10 ** 6, 0), (10 ** 6, 4),
                                             (2 ** 40, 1), (2 ** 62, 0),
                                             (2 ** 62, 2 ** 62)])
    wide = sorted(set(table(700)) | {(0, 2 ** 40), (2 ** 33, 1),
                                     (2 ** 62, 2 ** 62)})
    yield "small-unpackable", (wide, mixed(wide, 2, 3) + [(2 ** 62, 3)])
    negative = table(900, -(10 ** 6), 10 ** 6)
    yield "small-negative", (negative, mixed(negative, 2, 3, -(10 ** 6), 0))

    # Edits either side of the run-by-run copy's crossover: k rows of
    # an n-row table copy run by run while k ≤ RUN_COPY_MAX_ROWS and
    # k · RUN_COPY_RATIO ≤ n.  The edit's rows are the delta's absent
    # ones (merge_new inserts them) or its present ones (difference
    # deletes them).
    copies, per_row = RUN_COPY_MAX_ROWS, RUN_COPY_RATIO
    capped = table(per_row * (copies + 1), 100, 10 ** 7)
    narrow = table(per_row * 8, 100, 10 ** 6)
    for runs, k in ((capped, copies), (capped, copies + 1),
                    (narrow, 8), (narrow, 9)):
        tag = f"runs-{k}-of-{len(runs)}"
        yield f"{tag}-absent", (runs, mixed(runs, 0, k, 100, 10 ** 6))
        yield f"{tag}-present", (runs, mixed(runs, k, 0))
        yield f"{tag}-ends", (runs, sorted(
            runs[:2] + runs[-2:]
            + [(0, i) for i in range((k - 4) // 2)]
            + [(10 ** 7 + i, 0) for i in range(k - 4 - (k - 4) // 2)]
        ))
        # Neighbouring table rows, and absent rows packed between two
        # neighbours (inserted at one position).
        start = len(runs) // 3
        between = [(runs[start][0], runs[start][1] + 1 + i)
                   for i in range(k // 2)]
        between = [p for p in between if p < runs[start + 1]]
        yield f"{tag}-adjacent", (runs, sorted(
            set(runs[start : start + k - len(between)] + between)
        ))
        wide = sorted(set(runs) | {(0, 2 ** 40), (2 ** 62, 2 ** 62)})
        yield f"{tag}-unpackable", (
            wide, mixed(wide, k // 2, k - k // 2) + [(2 ** 62, 2 ** 40)]
        )


SMALL_DELTAS = dict(_small_deltas())


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
    return request.param, list(DISTRIBUTIONS.get(request.param, ()))


def flat_of(pairs):
    return [v for pair in pairs for v in pair]


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


@pytest.mark.parametrize(
    "dist", sorted(DISTRIBUTIONS) + sorted(SMALL_DELTAS), indirect=True
)
def test_merge_new_matches(np_kernels, dist):
    name, flat = dist
    if name in SMALL_DELTAS:
        table, delta = SMALL_DELTAS[name]
        sides = [(table, delta), (delta, table)]
    else:
        rng = random.Random(SEED ^ zlib.crc32(name.encode()))
        # Split the distribution into main/inferred halves plus an
        # overlap, so duplicates across the two inputs are guaranteed.
        pairs = list(zip(flat[0::2], flat[1::2]))
        rng.shuffle(pairs)
        half = len(pairs) // 2
        sides = [(pairs[:half] + pairs[: half // 2],
                  pairs[half:] + pairs[: half // 3])]
    for main_pairs, inferred_pairs in sides:
        main = PYTHON_KERNELS.sort_pairs(flat_of(main_pairs), dedup=True)
        inferred = PYTHON_KERNELS.sort_pairs(
            flat_of(inferred_pairs), dedup=True
        )
        expected_merged, expected_new = PYTHON_KERNELS.merge_new(
            main, inferred
        )
        assert as_ints(expected_merged) == flat_of(
            sorted(set(main_pairs) | set(inferred_pairs))
        )
        assert as_ints(expected_new) == flat_of(
            sorted(set(inferred_pairs) - set(main_pairs))
        )
        for kernels in (np_kernels, CompressedKernels()):
            got_merged, got_new = kernels.merge_new(
                kernels.asarray(main), inferred
            )
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


@pytest.mark.parametrize(
    "dist", sorted(DISTRIBUTIONS) + sorted(SMALL_DELTAS), indirect=True
)
def test_difference_matches(np_kernels, dist):
    """flat ∖ other on every backend, against set semantics: half the
    pairs removed, plus pairs of ``other`` that ``flat`` never had; or
    a small delta removed from a table, and a table from a delta."""
    name, flat = dist
    if name in SMALL_DELTAS:
        table, delta = SMALL_DELTAS[name]
        sides = [(table, delta), (delta, table)]
    else:
        rng = random.Random(SEED ^ zlib.crc32(name.encode()) ^ 3)
        pairs = list(zip(flat[0::2], flat[1::2]))
        rng.shuffle(pairs)
        sides = [(pairs, pairs[: len(pairs) // 2]
                  + [(-1, -1), (BOUNDARY, 2 ** 62)])]
    for pairs, removed in sides:
        view1 = PYTHON_KERNELS.sort_pairs(flat_of(pairs), dedup=True)
        view2 = PYTHON_KERNELS.sort_pairs(flat_of(removed), dedup=True)
        expected = flat_of(sorted(set(pairs) - set(removed)))
        assert as_ints(PYTHON_KERNELS.difference(view1, view2)) == expected
        for kernels in (
            np_kernels,
            CompressedKernels(),
        ):
            got = kernels.difference(kernels.asarray(view1), view2)
            assert as_ints(got) == expected
            assert as_ints(
                kernels.difference(view1, view1[:0])
            ) == as_ints(view1)


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


def _memberships():
    """(table pairs, needle pairs) for ``where_present``: each needle
    row is looked up in the table's sorted ⟨s, o⟩ and ⟨o, s⟩ views."""
    rng = random.Random(SEED ^ 0x3E3B)

    def table(n_pairs, low=0, high=10 ** 6):
        rows = set()
        while len(rows) < n_pairs:
            rows.add((rng.randrange(low, high), rng.randrange(low, high)))
        return sorted(rows)

    def absent(rows, n, low=0, high=10 ** 6):
        taken, out = set(rows), []
        while len(out) < n:
            pair = (rng.randrange(low, high), rng.randrange(low, high))
            if pair not in taken:
                out.append(pair)
        return out

    rows = table(500)
    yield "empty-table", ([], rows[:3] + [(0, 0)])
    yield "empty-needles", (rows, [])
    yield "both-empty", ([], [])
    mixed = rng.sample(rows, 20) + absent(rows, 20)
    rng.shuffle(mixed)
    yield "absent-and-present", (rows, mixed)
    yield "duplicate-needles", (rows, [rows[7], rows[7], (1, 1), rows[0],
                                       (1, 1), rows[7], rows[-1]])
    # Both ends of the table, its neighbours, and rows past either end.
    yield "first-and-last", (rows, [rows[0], rows[-1], (rows[0][0], -1),
                                    (rows[-1][0], rows[-1][1] + 1),
                                    (-1, -1), (2 ** 62, 2 ** 62)])
    # A key's run: present and absent companions in it, and next to it.
    key = rows[250][0]
    run = [(key, value) for value in range(0, 10 ** 6, 997)]
    runs = sorted(set(rows) | set(run[::2]))
    yield "inside-a-run", (runs, run + [(key - 1, 0), (key + 1, 0)])
    # Runs far longer than SCAN_RUN_ROWS: numpy searches whole rows.
    hubs = sorted({(hub, rng.randrange(10 ** 6))
                   for hub in range(3) for _ in range(400)})
    yield "long-runs", (hubs, rng.sample(hubs, 10) + absent(hubs, 10, 0, 3))
    wide = sorted(set(rows[:200]) | {(0, 2 ** 40), (2 ** 33, 1),
                                     (2 ** 62, 2 ** 62), (BOUNDARY, 0)})
    yield "unpackable", (wide, [(0, 2 ** 40), (2 ** 33, 1), (2 ** 62, 2 ** 62),
                                (2 ** 33, 2), (BOUNDARY, 0), (BOUNDARY - 1, 0)]
                         + rng.sample(wide, 5))
    negative = table(300, -(10 ** 6), 10 ** 6)
    yield "negative", (negative, rng.sample(negative, 6)
                       + absent(negative, 6, -(10 ** 6), 0)
                       + [(-(2 ** 62), 0)])
    # Several compressed blocks: rows either side of every block edge.
    blocks = table(3000)
    edges = [blocks[i] for i in (0, 1023, 1024, 2047, 2048, 2999)]
    yield "block-edges", (blocks, edges + absent(blocks, 10)
                          + [(blocks[1023][0], blocks[1023][1] + 1)])


MEMBERSHIPS = dict(_memberships())


@pytest.mark.parametrize("scan_rows", [0, None, 10 ** 9])
@pytest.mark.parametrize("case", sorted(MEMBERSHIPS))
def test_where_present_matches(np_kernels, case, scan_rows, monkeypatch):
    """Row membership by binary search, on numpy (each of its paths:
    every run scanned, every row searched, the shipped bound, and one
    row alone) and
    on compressed (its blocks, and a plain array it hands to numpy),
    against the interpreted reference and set semantics."""
    from repro.kernels import numpy_backend

    if scan_rows is not None:
        monkeypatch.setattr(numpy_backend, "SCAN_RUN_ROWS", scan_rows)
    table, needles = MEMBERSHIPS[case]
    by_subject = PYTHON_KERNELS.sort_pairs(flat_of(table), dedup=True)
    compressed = CompressedKernels()
    for view in (by_subject, PYTHON_KERNELS.os_view(by_subject)):
        present = set(zip(as_ints(view[0::2]), as_ints(view[1::2])))
        expected = [i for i, row in enumerate(needles) if row in present]
        evens = [s for s, _ in needles]
        odds = [o for _, o in needles]
        assert as_ints(PYTHON_KERNELS.where_present(view, evens, odds)) \
            == expected
        native = np_kernels.concat([view])
        for kernels, flat in ((np_kernels, native),
                              (compressed, compressed.asarray(view)),
                              (compressed, native)):
            got = kernels.where_present(
                flat, np_kernels.concat([array("q", evens)]),
                np_kernels.concat([array("q", odds)]),
            )
            assert as_ints(got) == expected
            # One row at a time (numpy's one-row path).
            for i, (s, o) in enumerate(needles):
                alone = kernels.where_present(
                    flat, np_kernels.concat([array("q", [s])]),
                    np_kernels.concat([array("q", [o])]),
                )
                assert as_ints(alone) == ([0] if i in expected else [])
