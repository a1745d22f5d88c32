"""Nuutila-style transitive closure with interval reachable sets (§4.1).

The paper computes transitivity closures *outside* the fixed-point rule
loop, with the algorithm from Nuutila's thesis as implemented by Cotton
(stixar-graphlib): detect strongly connected components, build the
quotient (condensation) graph, walk it in reverse topological order and
accumulate reachable sets as unions of the successors' sets, stored
compactly as :class:`repro.closure.intervals.IntervalSet`.

Pipeline of :func:`transitive_closure_pairs`:

1. map arbitrary integer node ids to dense local ids (first-seen order);
2. iterative Tarjan SCC — components are emitted sinks-first, i.e. in
   reverse topological order of the condensation;
3. renumber nodes in emission order ("closure ids"), so each component
   occupies one contiguous id interval and sink-ward reachable sets
   coalesce into few intervals (Cotton's density trick);
4. one pass over components in emission order unions successor sets;
5. emit the closed edge list: the index, read as flat columns (each
   component's closure-id run, its reach intervals, the closure id →
   input id relabel), goes to the kernel backend's
   :meth:`~repro.kernels.base.KernelBackend.cross_intervals`, which
   writes every member × reached id pair in one pass (vectorised on the
   NumPy backend).

A component reaches itself iff it is non-trivial (size > 1) or carries a
self-loop, which yields the ⟨x, x⟩ pairs required by the semantics of
transitive properties over cycles.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from ..kernels.base import KernelBackend
from ..kernels.python_backend import PYTHON_KERNELS
from .intervals import IntervalSet

Edge = Tuple[int, int]


def _dense_node_map(edges: Sequence[Edge]) -> Tuple[Dict[int, int], List[int]]:
    """First-seen dense mapping: node id → local id, and its inverse."""
    to_local: Dict[int, int] = {}
    to_original: List[int] = []
    for source, target in edges:
        if source not in to_local:
            to_local[source] = len(to_original)
            to_original.append(source)
        if target not in to_local:
            to_local[target] = len(to_original)
            to_original.append(target)
    return to_local, to_original


def _build_adjacency(
    n_nodes: int, edges: Sequence[Edge], to_local: Dict[int, int]
) -> List[List[int]]:
    """Deduplicated adjacency lists over local ids."""
    seen = set()
    adjacency: List[List[int]] = [[] for _ in range(n_nodes)]
    for source, target in edges:
        key = (source, target)
        if key in seen:
            continue
        seen.add(key)
        adjacency[to_local[source]].append(to_local[target])
    return adjacency


def strongly_connected_components(
    adjacency: List[List[int]],
) -> List[List[int]]:
    """Iterative Tarjan SCC; components are emitted sinks-first.

    The emission order is the reverse topological order of the
    condensation, which is exactly what the interval-union pass needs.
    """
    n_nodes = len(adjacency)
    index_of = [-1] * n_nodes
    lowlink = [0] * n_nodes
    on_stack = [False] * n_nodes
    stack: List[int] = []
    components: List[List[int]] = []
    counter = 0

    for root in range(n_nodes):
        if index_of[root] != -1:
            continue
        # Explicit DFS stack of (node, iterator position).
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            node, child_pos = work[-1]
            if child_pos == 0:
                index_of[node] = counter
                lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            children = adjacency[node]
            while child_pos < len(children):
                child = children[child_pos]
                child_pos += 1
                if index_of[child] == -1:
                    work[-1] = (node, child_pos)
                    work.append((child, 0))
                    advanced = True
                    break
                if on_stack[child] and index_of[child] < lowlink[node]:
                    lowlink[node] = index_of[child]
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                if lowlink[node] < lowlink[parent]:
                    lowlink[parent] = lowlink[node]
    return components


class ReachIndex:
    """Dense closure-id numbering plus per-node interval reach sets.

    The reusable core of :func:`transitive_closure_pairs` (steps 1–4 of
    the module pipeline), kept around instead of flattened into an edge
    list.  Each input node gets a *closure id* — contiguous per SCC, in
    sinks-first emission order — and each SCC an :class:`IntervalSet` of
    the closure ids it reaches, so

    ``target reachable from source  ⟺  closure_id(target) ∈ reach(source)``

    with reachability meaning "via at least one edge" (a node reaches
    itself iff it lies on a cycle or carries a self-loop, matching the
    transitive-property semantics).  The ``closure_id_of`` /
    ``original_of_closure`` tables are the remap between the caller's id
    space (e.g. dictionary ids) and the interval-friendly closure ids;
    ``repro.litemat`` builds its hierarchy encoding directly on this
    index.
    """

    __slots__ = (
        "closure_id_of",
        "original_of_closure",
        "component_intervals",
        "component_reach",
        "_component_of_closure",
    )

    def __init__(
        self,
        closure_id_of: Dict[int, int],
        original_of_closure: List[int],
        component_intervals: List[Tuple[int, int]],
        component_reach: List[IntervalSet],
        component_of_closure: List[int],
    ):
        self.closure_id_of = closure_id_of
        self.original_of_closure = original_of_closure
        self.component_intervals = component_intervals
        self.component_reach = component_reach
        self._component_of_closure = component_of_closure

    def nodes(self):
        """Original node ids, in closure-id order."""
        return iter(self.original_of_closure)

    def reach_of(self, node: int):
        """The node's reach as an IntervalSet of closure ids.

        ``None`` for nodes the graph never mentioned (their reach is
        empty).  All members of one SCC share the same set object.
        """
        cid = self.closure_id_of.get(node)
        if cid is None:
            return None
        return self.component_reach[self._component_of_closure[cid]]

    def reaches(self, source: int, target: int) -> bool:
        """Whether ``target`` is reachable from ``source`` (≥ 1 edge)."""
        target_cid = self.closure_id_of.get(target)
        if target_cid is None:
            return False
        reachable = self.reach_of(source)
        return reachable is not None and target_cid in reachable

    def reachable_nodes(self, node: int) -> List[int]:
        """Original ids reachable from ``node``, in closure-id order."""
        reachable = self.reach_of(node)
        if reachable is None:
            return []
        originals = self.original_of_closure
        return [originals[cid] for cid in reachable]

    def interval_columns(self):
        """The index as flat columns, one row per component in emission
        order: ``(member_lows, member_counts, interval_counts,
        interval_lows, interval_highs, relabel)``.

        Component *g* holds closure ids ``member_lows[g]`` to
        ``member_lows[g] + member_counts[g] - 1``; its reach is the next
        ``interval_counts[g]`` inclusive ``[interval_lows[i],
        interval_highs[i]]`` intervals (none when it reaches nothing);
        ``relabel`` is :attr:`original_of_closure`.  This is the argument
        list of :meth:`~repro.kernels.base.KernelBackend.cross_intervals`.
        """
        member_lows: List[int] = []
        member_counts: List[int] = []
        interval_counts: List[int] = []
        interval_lows: List[int] = []
        interval_highs: List[int] = []
        for (low, high), reachable in zip(
            self.component_intervals, self.component_reach
        ):
            member_lows.append(low)
            member_counts.append(high - low + 1)
            intervals = reachable.intervals()
            interval_counts.append(len(intervals))
            for start, end in intervals:
                interval_lows.append(start)
                interval_highs.append(end)
        return (
            member_lows,
            member_counts,
            interval_counts,
            interval_lows,
            interval_highs,
            self.original_of_closure,
        )

    def n_reach_pairs(self) -> int:
        """Size of the closed edge relation this index encodes."""
        return sum(
            (high - low + 1) * len(reachable)
            for (low, high), reachable in zip(
                self.component_intervals, self.component_reach
            )
        )


def build_reach_index(edges: Iterable[Edge]) -> ReachIndex:
    """Run steps 1–4 of the closure pipeline and keep the index.

    Accepts arbitrary 64-bit integer node ids; cycles and duplicate
    edges are fine.  An empty edge list yields an empty index.
    """
    edge_list = list(edges)
    to_local, to_original = _dense_node_map(edge_list)
    n_nodes = len(to_original)
    adjacency = _build_adjacency(n_nodes, edge_list, to_local)
    has_self_loop = [False] * n_nodes
    for node, children in enumerate(adjacency):
        if node in children:
            has_self_loop[node] = True

    components = strongly_connected_components(adjacency)

    # Closure ids: contiguous per component, in emission (sinks-first)
    # order — Cotton's dense renumbering.
    component_of = [0] * n_nodes
    closure_id = [0] * n_nodes
    component_interval: List[Tuple[int, int]] = []
    next_id = 0
    for comp_index, members in enumerate(components):
        base = next_id
        for member in members:
            component_of[member] = comp_index
            closure_id[member] = next_id
            next_id += 1
        component_interval.append((base, next_id - 1))

    original_of_closure = [0] * n_nodes
    component_of_closure = [0] * n_nodes
    for node in range(n_nodes):
        original_of_closure[closure_id[node]] = to_original[node]
        component_of_closure[closure_id[node]] = component_of[node]

    # Reverse-topological interval-union pass.
    reach: List[IntervalSet] = []
    for comp_index, members in enumerate(components):
        reachable = IntervalSet()
        successor_components = set()
        loops = False
        for member in members:
            if has_self_loop[member]:
                loops = True
            for child in adjacency[member]:
                child_comp = component_of[child]
                if child_comp != comp_index:
                    successor_components.add(child_comp)
        for child_comp in successor_components:
            low, high = component_interval[child_comp]
            reachable.union_update(IntervalSet.single(low, high))
            reachable.union_update(reach[child_comp])
        if len(members) > 1 or loops:
            low, high = component_interval[comp_index]
            reachable.union_update(IntervalSet.single(low, high))
        reach.append(reachable)

    closure_id_of = {
        to_original[node]: closure_id[node] for node in range(n_nodes)
    }
    return ReachIndex(
        closure_id_of,
        original_of_closure,
        component_interval,
        reach,
        component_of_closure,
    )


def transitive_closure_pairs(
    edges: Iterable[Edge],
    *,
    kernels: KernelBackend = PYTHON_KERNELS,
):
    """Closed edge set of a digraph, as a flat ⟨s, o⟩ pair array.

    Parameters
    ----------
    edges:
        Directed edges over arbitrary (64-bit) integer node ids; cycles
        and duplicates are fine.
    kernels:
        The backend that writes the pairs; the result is its native
        flat type (an int64 ndarray for the engine's default NumPy
        kernels, ``array('q')`` for this helper's pure-Python default).

    Returns
    -------
    Flat pair array, one ⟨source, target⟩ per closed edge, each exactly
    once, grouped by component emission order (callers sort as needed).
    """
    return kernels.cross_intervals(
        *build_reach_index(edges).interval_columns()
    )
