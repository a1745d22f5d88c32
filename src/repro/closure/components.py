"""Component split + dense renumbering around Nuutila's closure (§4.1).

The paper reduces graph sparsity before the interval-based closure by
splitting the schema graph into (weakly) connected components with
UNION-FIND, renumbering nodes densely inside each component, and only
then applying Nuutila's algorithm.  The closure of each component is
appended to the output independently — which also makes the step
trivially parallelisable (the paper runs it per property).

:func:`closed_pairs` is the entry point used by the engine's
transitivity pre-pass.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from ..kernels.base import KernelBackend
from ..kernels.python_backend import PYTHON_KERNELS
from .nuutila import transitive_closure_pairs
from .unionfind import UnionFind

Edge = Tuple[int, int]


def connected_component_edges(edges: List[Edge]) -> List[List[Edge]]:
    """Partition edges by weakly-connected component (UNION-FIND)."""
    finder = UnionFind()
    for source, target in edges:
        finder.union(source, target)
    buckets: Dict[object, List[Edge]] = {}
    for edge in edges:
        buckets.setdefault(finder.find(edge[0]), []).append(edge)
    return list(buckets.values())


def closed_pairs(
    edges: Iterable[Edge], *, kernels: KernelBackend = PYTHON_KERNELS
):
    """Full transitive closure as a flat pair array.

    ``edges`` are directed edges over integer node ids; the result is in
    ``kernels``' native flat type, every closed pair once.  The edges are
    grouped by weakly connected component before closing: the reach
    index numbers nodes in first-seen order and its SCC pass visits them
    in that order, so each component gets its own contiguous run of
    closure ids — the output, order included, is the per-component
    closures concatenated, written by one kernel call.
    """
    grouped = [
        edge
        for component in connected_component_edges(list(edges))
        for edge in component
    ]
    return transitive_closure_pairs(grouped, kernels=kernels)


def symmetric_transitive_closure_pairs(
    edges: Iterable[Edge], *, kernels: KernelBackend = PYTHON_KERNELS
):
    """Closure for symmetric-transitive properties (owl:sameAs, §4.1).

    "To compute the transitivity closure on the symmetric property, we
    first add, for each triple, its symmetric value and then we apply
    the standard closure."  The result materialises every ⟨x, y⟩ within
    an equivalence class, including the reflexive pairs that arise from
    x ~ y ~ x.
    """
    doubled: List[Edge] = []
    for source, target in edges:
        doubled.append((source, target))
        doubled.append((target, source))
    return closed_pairs(doubled, kernels=kernels)
