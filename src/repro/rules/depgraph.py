"""Rule→rule dependency graph over the Table-5 catalogue.

Parallel rule firing needs to know *which rule outputs can feed which
rule inputs*.  Each Table-5 rule reads a small set of property classes
(its body's predicates) and writes another (its head's); rule ``r1``
**feeds** ``r2`` when something ``r1`` can derive lands in a table
``r2`` joins on.  The analysis is symbolic and read off each rule's
description: property classes are the vocabulary names of constant
predicates (``"subClassOf"``, ``"type"``, …) plus the wildcard
:data:`ANY` for a variable predicate (the δ copies, the sameAs
substitution, PRP-TRP, RDFS4 — a ``subPropertyOf`` row may name *any*
property, including schema vocabulary, so the wildcard must stay
conservative; see ``tests/integration/test_differential.py::
test_schema_of_schema``).

:meth:`RuleDependencyGraph.stratify` condenses the graph's strongly
connected components (RDFS is mutually recursive through the schema
vocabulary, so full rulesets typically collapse into one component —
that recursion is exactly why Algorithm 1 iterates to a fixed point)
and layers the condensation by longest path into **waves**: rules in
wave *k* are never fed by rules in waves > *k*, and rules within one
wave either belong to the same recursive component or are mutually
independent.  The scheduler (:mod:`repro.core.scheduler`) fires each
wave's rules concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

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
    """Feeds-edges between rule executors, plus wave stratification.

    Node *i* is ``rules[i]``; edge *i → j* means rule *i*'s head can
    produce triples that rule *j*'s body consumes.  All derived
    structure (edges, components, waves) is deterministic in the input
    rule order, which the scheduler relies on for reproducible
    commit order.
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

    def edges(self) -> List[Tuple[int, int]]:
        """All feeds-edges as (producer, consumer) index pairs."""
        return [(i, j) for i in range(len(self.rules)) for j in self._succ[i]]

    # ------------------------------------------------------------------
    # Strongly connected components (iterative Tarjan)
    # ------------------------------------------------------------------
    def sccs(self) -> List[List[int]]:
        """Strongly connected components, each sorted by rule index.

        Components are returned in reverse topological order of the
        condensation (consumers before their producers), the order
        Tarjan's algorithm emits them in.
        """
        n = len(self.rules)
        index = [-1] * n
        low = [0] * n
        on_stack = [False] * n
        stack: List[int] = []
        components: List[List[int]] = []
        counter = 0
        for root in range(n):
            if index[root] != -1:
                continue
            # Iterative Tarjan: (node, iterator position) work stack.
            work = [(root, 0)]
            while work:
                node, child_pos = work.pop()
                if child_pos == 0:
                    index[node] = low[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack[node] = True
                recurse = False
                successors = self._succ[node]
                for pos in range(child_pos, len(successors)):
                    succ = successors[pos]
                    if index[succ] == -1:
                        work.append((node, pos + 1))
                        work.append((succ, 0))
                        recurse = True
                        break
                    if on_stack[succ]:
                        low[node] = min(low[node], index[succ])
                if recurse:
                    continue
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component.append(member)
                        if member == node:
                            break
                    components.append(sorted(component))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
        return components

    # ------------------------------------------------------------------
    # Wave stratification
    # ------------------------------------------------------------------
    def stratify(self) -> List[List[int]]:
        """Topological waves of rule indexes.

        Wave *k* holds the rules whose longest producer chain through
        the condensation has depth *k*: an edge *i → j* with *i*, *j*
        in different components always crosses from a lower wave to a
        strictly higher one, and rules sharing a wave are either
        mutually recursive (same component — the fixed-point loop
        resolves them) or independent.  Rules within a wave keep their
        catalogue order.
        """
        components = self.sccs()
        comp_of: Dict[int, int] = {}
        for comp_index, members in enumerate(components):
            for member in members:
                comp_of[member] = comp_index
        n_comps = len(components)
        comp_succ: List[set] = [set() for _ in range(n_comps)]
        indegree = [0] * n_comps
        for i, j in self.edges():
            ci, cj = comp_of[i], comp_of[j]
            if ci != cj and cj not in comp_succ[ci]:
                comp_succ[ci].add(cj)
                indegree[cj] += 1
        # Longest-path layering via Kahn's algorithm.
        depth = [0] * n_comps
        ready = sorted(c for c in range(n_comps) if indegree[c] == 0)
        order: List[int] = []
        while ready:
            comp = ready.pop(0)
            order.append(comp)
            for succ in sorted(comp_succ[comp]):
                depth[succ] = max(depth[succ], depth[comp] + 1)
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
            ready.sort()
        assert len(order) == n_comps, "condensation must be acyclic"
        n_waves = max(depth, default=-1) + 1
        waves: List[List[int]] = [[] for _ in range(n_waves)]
        for comp_index, members in enumerate(components):
            waves[depth[comp_index]].extend(members)
        for wave in waves:
            wave.sort()
        return [wave for wave in waves if wave]
