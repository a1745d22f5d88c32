"""Disjoint-set (UNION-FIND) with path compression and union by rank.

Used by the closure pipeline (paper §4.1) to split the schema graph into
connected components before dense renumbering, and by the same-as
machinery for equivalence classes.  Works over arbitrary hashable items.
"""

from __future__ import annotations

from typing import Dict, Hashable


class UnionFind:
    """Classic disjoint-set forest; items are added lazily on first use."""

    def __init__(self) -> None:
        self._parent: Dict[Hashable, Hashable] = {}
        self._rank: Dict[Hashable, int] = {}

    def add(self, item: Hashable) -> None:
        """Register ``item`` as a singleton set if unseen."""
        if item not in self._parent:
            self._parent[item] = item
            self._rank[item] = 0

    def find(self, item: Hashable) -> Hashable:
        """Representative of ``item``'s set (two-pass path compression)."""
        parent = self._parent
        if item not in parent:
            self.add(item)
            return item
        root = item
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    def union(self, a: Hashable, b: Hashable) -> Hashable:
        """Merge the sets of ``a`` and ``b``; returns the new root."""
        root_a = self.find(a)
        root_b = self.find(b)
        if root_a == root_b:
            return root_a
        rank = self._rank
        if rank[root_a] < rank[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        if rank[root_a] == rank[root_b]:
            rank[root_a] += 1
        return root_a
