"""Unit and property tests for the Nuutila closure vs networkx."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.closure.nuutila import (
    build_reach_index,
    strongly_connected_components,
    transitive_closure_pairs,
)


def transitive_closure(edges):
    """The closure as a set of (source, target) pairs."""
    flat = transitive_closure_pairs(edges)
    return set(zip(flat[0::2], flat[1::2]))


def nx_closure(edges):
    """Reference closure: pairs (u, v) with a non-empty path u→v.

    ``reflexive=False`` keeps exactly the cycle-induced self-loops,
    matching the semantics of a transitive property (x p x holds iff x
    lies on a cycle); ``reflexive=None`` would strip even those.
    """
    graph = nx.DiGraph(edges)
    closed = nx.transitive_closure(graph, reflexive=False)
    return {(u, v) for u, v in closed.edges()}


class TestSCC:
    def test_chain_all_singletons(self):
        adjacency = [[1], [2], []]
        comps = strongly_connected_components(adjacency)
        assert sorted(len(c) for c in comps) == [1, 1, 1]

    def test_cycle_single_component(self):
        adjacency = [[1], [2], [0]]
        comps = strongly_connected_components(adjacency)
        assert len(comps) == 1
        assert sorted(comps[0]) == [0, 1, 2]

    def test_emission_is_reverse_topological(self):
        # 0 -> 1 -> 2: sink (2) must be emitted before 1, before 0.
        adjacency = [[1], [2], []]
        comps = strongly_connected_components(adjacency)
        assert comps == [[2], [1], [0]]

    def test_two_cycles_bridge(self):
        # (0<->1) -> (2<->3)
        adjacency = [[1], [0, 2], [3], [2]]
        comps = strongly_connected_components(adjacency)
        assert sorted(sorted(c) for c in comps) == [[0, 1], [2, 3]]
        # the sink cycle {2,3} is emitted first
        assert sorted(comps[0]) == [2, 3]

    def test_disconnected(self):
        adjacency = [[1], [], [3], []]
        comps = strongly_connected_components(adjacency)
        assert len(comps) == 4


class TestClosureSmall:
    def test_empty(self):
        assert transitive_closure([]) == set()

    def test_single_edge(self):
        assert transitive_closure([(1, 2)]) == {(1, 2)}

    def test_chain(self):
        closure = transitive_closure([(1, 2), (2, 3)])
        assert closure == {(1, 2), (2, 3), (1, 3)}

    def test_self_loop(self):
        assert transitive_closure([(1, 1)]) == {(1, 1)}

    def test_cycle_includes_reflexive(self):
        closure = transitive_closure([(1, 2), (2, 1)])
        assert closure == {(1, 2), (2, 1), (1, 1), (2, 2)}

    def test_cycle_with_tail(self):
        closure = transitive_closure([(1, 2), (2, 3), (3, 1), (3, 4)])
        assert (1, 1) in closure
        assert (2, 4) in closure
        assert (4, 4) not in closure
        assert (4, 1) not in closure

    def test_duplicate_edges_ignored(self):
        closure = transitive_closure([(1, 2), (1, 2), (2, 3)])
        assert closure == {(1, 2), (2, 3), (1, 3)}

    def test_sparse_node_ids(self):
        # Node ids far apart (the dense-renumbering path).
        big = 1 << 40
        closure = transitive_closure([(big, big + 7), (big + 7, 3)])
        assert (big, 3) in closure

    def test_diamond(self):
        closure = transitive_closure([(1, 2), (1, 3), (2, 4), (3, 4)])
        assert (1, 4) in closure
        assert len(closure) == 5


class TestClosureShapes:
    @pytest.mark.parametrize("n", [2, 5, 20, 60])
    def test_chain_size_formula(self, n):
        edges = [(i, i + 1) for i in range(n - 1)]
        flat = transitive_closure_pairs(edges)
        assert len(flat) // 2 == n * (n - 1) // 2

    def test_full_cycle_closure_is_square(self):
        n = 12
        edges = [(i, (i + 1) % n) for i in range(n)]
        flat = transitive_closure_pairs(edges)
        assert len(flat) // 2 == n * n

    def test_binary_tree_toward_root(self):
        edges = [(k, (k - 1) // 2) for k in range(1, 15)]
        closure = transitive_closure(edges)
        assert closure == nx_closure(edges)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 14), st.integers(0, 14)),
        max_size=40,
    )
)
def test_closure_matches_networkx(edges):
    """Random digraphs (with cycles/self-loops) match the oracle, and
    the reach index counts exactly the pairs it emits."""
    expected = nx_closure(edges)
    assert transitive_closure(edges) == expected
    assert build_reach_index(edges).n_reach_pairs() == len(expected)
