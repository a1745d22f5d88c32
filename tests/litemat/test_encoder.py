"""Property tests for the LiteMat-style interval hierarchy encoder.

The encoder's contract is exact reachability: ``is_subclass(c1, c2)``
iff the subClassOf graph has a non-empty path c1 → c2.  networkx's
transitive closure is the oracle, over random DAGs *and* arbitrary
digraphs (multi-parent diamonds, cycles) — the documented non-tree
fallback (multiple intervals per node, SCC-shared reach sets) must stay
exact, never approximate.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.litemat.encoder import (
    ENCODING_PAYLOAD_VERSION,
    HierarchyEncoding,
    encode_hierarchies,
)


def nx_reach(edges):
    """Oracle: pairs (u, v) with a non-empty path u → v."""
    graph = nx.DiGraph(edges)
    closed = nx.transitive_closure(graph, reflexive=False)
    return {(u, v) for u, v in closed.edges()}


edge_lists = st.lists(
    st.tuples(st.integers(0, 14), st.integers(0, 14)),
    min_size=0,
    max_size=40,
)

dag_edge_lists = st.lists(
    # (u, v) with u < v is acyclic by construction.
    st.tuples(st.integers(0, 13), st.integers(1, 14)).map(
        lambda p: (min(p), max(p[0] + 1, p[1]))
    ),
    min_size=0,
    max_size=40,
)


class TestSubclassPredicate:
    @settings(max_examples=120, deadline=None)
    @given(dag_edge_lists)
    def test_random_dags_match_oracle(self, edges):
        encoding = encode_hierarchies(edges, [])
        expected = nx_reach(edges)
        nodes = {n for edge in edges for n in edge}
        for a in nodes:
            for b in nodes:
                assert encoding.is_subclass(a, b) == ((a, b) in expected)

    @settings(max_examples=120, deadline=None)
    @given(edge_lists)
    def test_arbitrary_digraphs_match_oracle(self, edges):
        # Cycles included: equivalent classes must see each other (and
        # themselves) as sub/superclasses.
        encoding = encode_hierarchies(edges, [])
        expected = nx_reach(edges)
        nodes = {n for edge in edges for n in edge}
        for a in nodes:
            for b in nodes:
                assert encoding.is_subclass(a, b) == ((a, b) in expected)

    @settings(max_examples=80, deadline=None)
    @given(edge_lists)
    def test_property_graph_is_independent(self, edges):
        encoding = encode_hierarchies([], edges)
        expected = nx_reach(edges)
        nodes = {n for edge in edges for n in edge}
        for a in nodes:
            for b in nodes:
                assert encoding.is_subproperty(a, b) == ((a, b) in expected)
                assert not encoding.is_subclass(a, b)


class TestEnumerations:
    @settings(max_examples=80, deadline=None)
    @given(edge_lists)
    def test_sets_are_inclusive_and_match_predicate(self, edges):
        encoding = encode_hierarchies(edges, [])
        expected = nx_reach(edges)
        nodes = {n for edge in edges for n in edge}
        for c in nodes:
            ups = encoding.superclass_set(c)
            assert c in ups  # inclusive
            assert ups - {c} >= {b for (a, b) in expected if a == c} - {c}
            assert ups == {c} | {b for (a, b) in expected if a == c}
            downs = set(encoding.subclasses(c))
            assert downs == {a for (a, b) in expected if b == c}

    def test_diamond_multi_parent(self):
        # A ⊑ B, A ⊑ C, B ⊑ D, C ⊑ D: the classic non-tree lattice.
        edges = [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")]
        ids = {name: i for i, name in enumerate("ABCD")}
        encoding = encode_hierarchies(
            [(ids[a], ids[b]) for a, b in edges], []
        )
        assert encoding.is_subclass(ids["A"], ids["D"])
        assert encoding.is_subclass(ids["A"], ids["B"])
        assert encoding.is_subclass(ids["A"], ids["C"])
        assert not encoding.is_subclass(ids["B"], ids["C"])
        assert not encoding.is_subclass(ids["D"], ids["A"])
        assert encoding.superclass_set(ids["A"]) == set(ids.values())

    def test_cycle_collapses_to_equivalence(self):
        # A ⊑ B ⊑ A: both classes reach each other and themselves.
        encoding = encode_hierarchies([(0, 1), (1, 0)], [])
        for a in (0, 1):
            for b in (0, 1):
                assert encoding.is_subclass(a, b)
        assert encoding.superclass_set(0) == {0, 1}

    def test_strict_enumerations_exclude_self_on_dags(self):
        encoding = encode_hierarchies([(0, 1), (1, 2)], [])
        assert set(encoding.superclasses(0)) == {1, 2}
        assert set(encoding.subclasses(2)) == {0, 1}
        assert set(encoding.superclasses(2)) == set()


class TestPayload:
    @settings(max_examples=40, deadline=None)
    @given(edge_lists, edge_lists)
    def test_round_trip_preserves_answers(self, class_edges, prop_edges):
        encoding = encode_hierarchies(class_edges, prop_edges)
        restored = HierarchyEncoding.from_payload(encoding.to_payload())
        nodes = {n for e in class_edges for n in e}
        for a in nodes:
            for b in nodes:
                assert restored.is_subclass(a, b) == encoding.is_subclass(
                    a, b
                )
        pnodes = {n for e in prop_edges for n in e}
        for a in pnodes:
            for b in pnodes:
                assert restored.is_subproperty(
                    a, b
                ) == encoding.is_subproperty(a, b)

    def test_version_mismatch_rejected(self):
        payload = encode_hierarchies([(0, 1)], []).to_payload()
        payload["version"] = ENCODING_PAYLOAD_VERSION + 1
        with pytest.raises(ValueError):
            HierarchyEncoding.from_payload(payload)
