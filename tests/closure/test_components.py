"""Unit tests for the component split and symmetric closures."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.closure.components import (
    closed_pairs,
    connected_component_edges,
    symmetric_transitive_closure_pairs,
)
from repro.closure.nuutila import transitive_closure_pairs
from repro.kernels import get_backend

BACKENDS = ["python", "compressed", "numpy"]


def as_pairs(flat):
    return set(zip(flat[0::2], flat[1::2]))


def nx_closure(edges):
    """Pairs (u, v) joined by a non-empty path (see test_nuutila)."""
    closed = nx.transitive_closure(nx.DiGraph(edges), reflexive=False)
    return set(closed.edges())


class TestComponentSplit:
    def test_single_component(self):
        groups = connected_component_edges([(1, 2), (2, 3)])
        assert len(groups) == 1

    def test_two_components(self):
        groups = connected_component_edges([(1, 2), (10, 11), (11, 12)])
        assert sorted(len(g) for g in groups) == [1, 2]

    def test_weakly_connected_merges_directions(self):
        # 1->2 and 3->2 are weakly connected through 2.
        groups = connected_component_edges([(1, 2), (3, 2)])
        assert len(groups) == 1

    def test_empty(self):
        assert connected_component_edges([]) == []


class TestClosedPairs:
    def test_empty(self):
        assert len(closed_pairs([])) == 0

    def test_split_equals_no_split(self):
        # transitive_closure_pairs runs Nuutila over the whole, unsplit
        # graph.
        edges = [(1, 2), (2, 3), (10, 11), (11, 10), (20, 21)]
        assert as_pairs(closed_pairs(edges)) == as_pairs(
            transitive_closure_pairs(edges)
        )

    def test_matches_nuutila(self):
        edges = [(1, 2), (2, 3), (3, 1), (5, 6)]
        assert as_pairs(closed_pairs(edges)) == as_pairs(
            transitive_closure_pairs(edges)
        )


class TestSymmetricClosure:
    def test_pair_becomes_clique(self):
        flat = symmetric_transitive_closure_pairs([(1, 2)])
        assert as_pairs(flat) == {(1, 2), (2, 1), (1, 1), (2, 2)}

    def test_chain_becomes_full_clique(self):
        flat = symmetric_transitive_closure_pairs([(1, 2), (2, 3), (3, 4)])
        nodes = {1, 2, 3, 4}
        assert as_pairs(flat) == {(a, b) for a in nodes for b in nodes}

    def test_two_islands(self):
        flat = symmetric_transitive_closure_pairs([(1, 2), (10, 11)])
        pairs = as_pairs(flat)
        assert (1, 10) not in pairs
        assert (10, 11) in pairs and (11, 10) in pairs

    def test_empty(self):
        assert len(symmetric_transitive_closure_pairs([])) == 0


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=30
    )
)
def test_split_invariance_property(edges):
    """Component splitting never changes the closure, and one run over
    the grouped edges emits exactly the per-component runs in turn."""
    assert as_pairs(closed_pairs(edges)) == as_pairs(
        transitive_closure_pairs(edges)
    )
    per_component = []
    for component in connected_component_edges(edges):
        per_component += transitive_closure_pairs(component)
    assert list(closed_pairs(edges)) == per_component


@st.composite
def digraphs(draw):
    """Edges over up to three disjoint id ranges — several weak
    components, ids past 2⁴⁰ — with cycles, self-loops and duplicate
    edges all reachable by the draw."""
    edges = []
    for part in range(draw(st.integers(1, 3))):
        base = part << 40
        edges += [
            (base + s, base + o)
            for s, o in draw(
                st.lists(
                    st.tuples(st.integers(0, 9), st.integers(0, 9)),
                    max_size=18,
                )
            )
        ]
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=6))
    return edges


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(edges=digraphs())
def test_closures_match_networkx_on_every_backend(backend, edges):
    """Each closed pair once, and exactly the oracle's pairs, whatever
    backend emits them (``closure_pairs`` counts rely on both)."""
    kernels = get_backend(backend)
    doubled = edges + [(o, s) for s, o in edges]
    for close, oracle in (
        (closed_pairs, nx_closure(edges)),
        (symmetric_transitive_closure_pairs, nx_closure(doubled)),
    ):
        flat = [int(value) for value in close(edges, kernels=kernels)]
        pairs = list(zip(flat[0::2], flat[1::2]))
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == oracle


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(edges=digraphs())
def test_closure_contains_its_input_edges(backend, edges):
    """The premise of installing a θ pre-pass closure as the table
    itself (no merge with the edges it closed): every input edge,
    self-loops included, is among the closed pairs."""
    kernels = get_backend(backend)
    for close in (closed_pairs, symmetric_transitive_closure_pairs):
        flat = [int(value) for value in close(edges, kernels=kernels)]
        assert set(edges) <= set(zip(flat[0::2], flat[1::2]))


@pytest.mark.parametrize("backend", BACKENDS)
def test_self_loops_survive_the_closure(backend):
    kernels = get_backend(backend)
    edges = [(1, 1), (2, 3), (3, 3), (4, 5), (5, 4)]
    for close in (closed_pairs, symmetric_transitive_closure_pairs):
        assert set(edges) <= as_pairs(
            [int(value) for value in close(edges, kernels=kernels)]
        )
