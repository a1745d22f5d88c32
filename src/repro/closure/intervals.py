"""Interval sets: compact reachable-set representation (paper §4.1).

Cotton's implementation of Nuutila's algorithm stores reachable sets as
*sets of intervals* over densely-numbered nodes — compact, cache-friendly
and mergeable in linear time.  With the reverse-topological dense
numbering applied by :mod:`repro.closure.nuutila`, reachable sets
coalesce into few intervals, keeping them far below the quadratic
explicit-set size.

An :class:`IntervalSet` is an ordered list of disjoint, non-adjacent,
inclusive ``[lo, hi]`` intervals.  The hot operation is
:meth:`IntervalSet.union_update`, a single linear merge pass.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple


class IntervalSet:
    """Sorted disjoint inclusive integer intervals with set semantics."""

    __slots__ = ("_intervals",)

    def __init__(self) -> None:
        self._intervals: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def single(cls, low: int, high: int) -> "IntervalSet":
        """An interval set holding exactly ``[low, high]``."""
        if high < low:
            raise ValueError(f"empty interval [{low}, {high}]")
        out = cls()
        out._intervals.append((low, high))
        return out

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def union_update(self, other: "IntervalSet") -> None:
        """In-place union with ``other`` — one linear merge pass.

        This is the closure pipeline's hot loop; it mirrors the
        branch-light merging of the reference implementation.
        """
        mine = self._intervals
        theirs = other._intervals
        if not theirs:
            return
        if not mine:
            self._intervals = theirs[:]
            return
        merged: List[Tuple[int, int]] = []
        i = j = 0
        len_mine = len(mine)
        len_theirs = len(theirs)
        # Pick the next interval by start point, then coalesce into the
        # tail of `merged` whenever it overlaps or is adjacent.
        while i < len_mine or j < len_theirs:
            if j >= len_theirs or (i < len_mine and mine[i][0] <= theirs[j][0]):
                current = mine[i]
                i += 1
            else:
                current = theirs[j]
                j += 1
            if merged and current[0] <= merged[-1][1] + 1:
                if current[1] > merged[-1][1]:
                    merged[-1] = (merged[-1][0], current[1])
            else:
                merged.append(current)
        self._intervals = merged

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, value: int) -> bool:
        intervals = self._intervals
        low = 0
        high = len(intervals) - 1
        while low <= high:
            mid = (low + high) // 2
            lo, hi = intervals[mid]
            if value < lo:
                high = mid - 1
            elif value > hi:
                low = mid + 1
            else:
                return True
        return False

    def __len__(self) -> int:
        """Number of *values* covered (cardinality, not interval count)."""
        return sum(high - low + 1 for low, high in self._intervals)

    def __iter__(self) -> Iterator[int]:
        """Iterate every covered value in ascending order."""
        for low, high in self._intervals:
            yield from range(low, high + 1)

    def __bool__(self) -> bool:
        return bool(self._intervals)

    def intervals(self) -> List[Tuple[int, int]]:
        """Snapshot of the interval list."""
        return list(self._intervals)
