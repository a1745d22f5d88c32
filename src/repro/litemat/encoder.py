"""LiteMat-style hierarchy encoder over the schema lattice.

The encoder runs the Nuutila/interval closure machinery
(:func:`repro.closure.nuutila.build_reach_index` +
:class:`repro.closure.intervals.IntervalSet`) over the schema's
``rdfs:subClassOf`` and ``rdfs:subPropertyOf`` graphs and assigns every
class/property a *closure id* plus an interval set such that

    ``c1 ⊑ c2  ⟺  closure_id(c1) ∈ intervals(c2)``

(with ``⊑`` the ≥1-edge reachability of the subsumption graph).  The
:class:`~repro.closure.nuutila.ReachIndex` tables double as the remap
between the dictionary id space of :mod:`repro.dictionary.encoding`
(arbitrary 64-bit ids, properties numbered down from ``PROPERTY_BASE``)
and the dense interval-friendly closure ids — no dictionary ids are
reassigned, so existing stores, persistence files and snapshots keep
their encoded triples unchanged.

Fallback for non-tree lattices
------------------------------
LiteMat's original scheme assigns *one* prefix-coded id per class and
breaks on multi-parent lattices.  Here a node's subsumers are an
:class:`IntervalSet` — a sorted list of id ranges — so:

* **multi-parent DAGs** (diamonds, general lattices) stay *exact*: a
  node reachable through several parents simply carries more than one
  interval; membership tests remain binary searches.
* **cycles** collapse into one SCC sharing a contiguous id block and
  one reach set; every member is a sub- and super-class of every other
  (including itself), matching the materialized closure's semantics
  over subsumption cycles.

The cost of the fallback is bounded by the number of intervals, never
wrong answers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from ..closure.nuutila import ReachIndex, build_reach_index

Edge = Tuple[int, int]

#: Payload schema version for persisted encodings (see ``to_payload``).
ENCODING_PAYLOAD_VERSION = 1


def _normalized_edges(edges: Iterable[Edge]) -> List[Edge]:
    """Sorted-unique edge list (canonical form for payloads/rebuilds)."""
    return sorted({(int(s), int(o)) for s, o in edges})


class HierarchyEncoding:
    """Interval-encoded subClassOf/subPropertyOf lattices.

    Four :class:`ReachIndex` instances — the class and property graphs,
    each in the *up* (as asserted: node → superclass) and *down*
    (reversed: node → subclass) direction.  All predicates follow the
    closure semantics of the materialized engine: reachability via at
    least one edge, so a node subsumes itself only when it lies on a
    cycle; the ``*_inclusive`` helpers add the reflexive element the
    rule rewrites need.
    """

    __slots__ = (
        "class_edges",
        "property_edges",
        "classes_up",
        "classes_down",
        "props_up",
        "props_down",
        "_superclass_memo",
    )

    def __init__(
        self,
        class_edges: Iterable[Edge],
        property_edges: Iterable[Edge],
    ):
        self.class_edges = _normalized_edges(class_edges)
        self.property_edges = _normalized_edges(property_edges)
        self.classes_up = build_reach_index(self.class_edges)
        self.classes_down = build_reach_index(
            [(o, s) for s, o in self.class_edges]
        )
        self.props_up = build_reach_index(self.property_edges)
        self.props_down = build_reach_index(
            [(o, s) for s, o in self.property_edges]
        )
        self._superclass_memo: Dict[int, frozenset] = {}

    # -- subsumption predicates (rdfs9/rdfs7 guards, rdfs5/rdfs11) ------
    def is_subclass(self, sub: int, sup: int) -> bool:
        """``⟨sub, subClassOf, sup⟩`` entailed by the schema closure."""
        return self.classes_up.reaches(sub, sup)

    def is_subproperty(self, sub: int, sup: int) -> bool:
        """``⟨sub, subPropertyOf, sup⟩`` entailed by the schema closure."""
        return self.props_up.reaches(sub, sup)

    # -- strict reach enumerations (closure-id order) -------------------
    def superclasses(self, cls: int) -> List[int]:
        return self.classes_up.reachable_nodes(cls)

    def subclasses(self, cls: int) -> List[int]:
        return self.classes_down.reachable_nodes(cls)

    def superproperties(self, prop: int) -> List[int]:
        return self.props_up.reachable_nodes(prop)

    def subproperties(self, prop: int) -> List[int]:
        return self.props_down.reachable_nodes(prop)

    # -- reflexive-transitive sets (what the rule rewrites consume) -----
    def superclass_set(self, cls: int) -> frozenset:
        """``{cls} ∪ superclasses(cls)``, memoized (schema-sized)."""
        cached = self._superclass_memo.get(cls)
        if cached is None:
            cached = frozenset((cls, *self.classes_up.reachable_nodes(cls)))
            self._superclass_memo[cls] = cached
        return cached

    def subproperty_set(self, prop: int) -> frozenset:
        return frozenset((prop, *self.props_down.reachable_nodes(prop)))

    # -- persistence ----------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        """JSON-serializable form.

        The interval assignment is a pure function of the (canonically
        ordered) edge lists, so persisting the edges is enough — the
        loader rebuilds identical indexes, and the payload stays
        schema-sized rather than closure-sized.
        """
        return {
            "version": ENCODING_PAYLOAD_VERSION,
            "class_edges": [list(edge) for edge in self.class_edges],
            "property_edges": [list(edge) for edge in self.property_edges],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "HierarchyEncoding":
        version = payload.get("version")
        if version != ENCODING_PAYLOAD_VERSION:
            raise ValueError(
                f"unsupported litemat encoding payload version {version!r}"
            )
        return cls(
            [tuple(edge) for edge in payload["class_edges"]],
            [tuple(edge) for edge in payload["property_edges"]],
        )


def encode_hierarchies(
    subclass_pairs: Sequence[Edge],
    subproperty_pairs: Sequence[Edge],
) -> HierarchyEncoding:
    """Build the encoding from stored schema pair iterables."""
    return HierarchyEncoding(subclass_pairs, subproperty_pairs)
