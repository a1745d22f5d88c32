"""Rule→rule dependency graph over the Table-5 catalogue.

The hybrid planner (:mod:`repro.litemat.planner`) needs to know *which
rule outputs can feed which rule inputs*.  Each Table-5 rule reads a
small set of property classes (its body's predicates) and writes
another (its head's); rule ``r1`` **feeds** ``r2`` when something
``r1`` can derive lands in a table ``r2`` joins on.  The analysis is
symbolic and read off each rule's description: property classes are
the vocabulary names of constant predicates (``"subClassOf"``,
``"type"``, …) plus the wildcard :data:`ANY` for a variable predicate
(the δ copies, the sameAs substitution, PRP-TRP, RDFS4 — a
``subPropertyOf`` row may name *any* property, including schema
vocabulary, so the wildcard must stay conservative; see
``tests/integration/test_differential.py::test_schema_of_schema``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Sequence

from .spec import Rule, is_var

__all__ = ["ANY", "RuleDependencyGraph", "RuleIO", "rule_io"]

#: Wildcard property class: "any property table" (data or schema).
ANY = "*"


@dataclass(frozen=True)
class RuleIO:
    """The property classes one rule executor reads and writes."""

    reads: FrozenSet[str]
    writes: FrozenSet[str]

    def feeds(self, other: "RuleIO") -> bool:
        """Whether this rule's outputs can reach ``other``'s inputs."""
        if not self.writes or not other.reads:
            return False
        if ANY in self.writes or ANY in other.reads:
            return True
        return not self.writes.isdisjoint(other.reads)


def rule_io(rule: Rule) -> RuleIO:
    """Symbolic read/write sets, read off the rule's descriptions.

    A constant body predicate is read, a constant head predicate
    written, and a variable predicate means :data:`ANY`.  A rule without
    descriptions gets the conservative ``({ANY}, {ANY})`` — correct (it
    only adds edges) if pessimal.
    """
    if not rule.descriptions:
        return RuleIO(frozenset({ANY}), frozenset({ANY}))

    def predicates(atoms) -> FrozenSet[str]:
        return frozenset(ANY if is_var(prop) else prop for _, prop, _ in atoms)

    descriptions = rule.descriptions
    return RuleIO(
        frozenset().union(*(predicates(d.body) for d in descriptions)),
        frozenset().union(*(predicates(d.head) for d in descriptions)),
    )


class RuleDependencyGraph:
    """Feeds-edges between rule executors.

    Node *i* is ``rules[i]``; edge *i → j* means rule *i*'s head can
    produce triples that rule *j*'s body consumes.
    """

    def __init__(self, rules: Sequence[Rule]):
        self.rules: List[Rule] = list(rules)
        self.io: List[RuleIO] = [rule_io(rule) for rule in self.rules]
        n = len(self.rules)
        self._succ: List[List[int]] = [
            [j for j in range(n) if self.io[i].feeds(self.io[j])]
            for i in range(n)
        ]

    def feeds(self, i: int) -> List[int]:
        """Successor rule indexes of rule ``i`` (sorted)."""
        return list(self._succ[i])

    def fed_by(self, i: int) -> List[int]:
        """Predecessor rule indexes of rule ``i`` (sorted).

        The reverse of :meth:`feeds`: every rule whose head can produce
        triples rule ``i``'s body consumes.  The hybrid planner
        (:mod:`repro.litemat.planner`) uses this to eject an absorbed
        rule when a still-materialized rule could write into one of the
        virtual tables the encoding answers from.
        """
        return [j for j in range(len(self.rules)) if i in self._succ[j]]
