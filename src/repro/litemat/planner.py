"""Hybrid planner: which rules does the hierarchy encoding absorb?

Given a rule catalogue, decide per ruleset which Table-5 rules the
interval encoding can answer at query time (*absorbed* — they never run
on flush) and which must still materialize.  A rule is taken for an
absorbable or hierarchy-aware rule only when its description equals
the catalogue's for its name (the executor is never inspected).  The
decision consults
:class:`repro.rules.depgraph.RuleDependencyGraph`: an absorbed rule's
virtual output must never flow into a still-materialized rule (that
rule would fire over an incomplete table), and a materialized rule must
never write into a table the encoding answers from (the encoding is
built once per flush, from the stored schema).

The only exemption is the pair of *hierarchy-aware* rules PRP-DOM /
PRP-RNG: the engine's hybrid flush compensates for their interaction
with the encoding — a schema-sized pre-pass types the subjects/objects
of sub-property tables, and the virtual ``rdf:type`` expansion covers
the superclass closure of their output (see
``InferrayEngine._hybrid_prepass``).

One non-local coupling is enforced on top of the feeds-graph fixed
point: absorbing SCM-DOM1 / SCM-RNG1 (class-expansion of domain/range
rows) while PRP-DOM / PRP-RNG materialize requires the virtual
``rdf:type`` expansion (CAX-SCO absorbed) — otherwise full mode would
materialize ``type(s, c′)`` for the expanded classes and hybrid would
answer without them.

Resulting plans for the built-in rulesets:

================  ====================================================
ruleset           absorbed
================  ====================================================
rdfs-default      CAX-SCO, PRP-SPO1, SCM-SCO, SCM-SPO, SCM-DOM1,
                  SCM-DOM2, SCM-RNG1, SCM-RNG2  (PRP-DOM/PRP-RNG run)
rho-df            CAX-SCO, PRP-SPO1, SCM-SCO, SCM-SPO, SCM-DOM2,
                  SCM-RNG2  (the ρdf profile has no DOM1/RNG1)
rdfs-full         ∅ — the axiomatic rules (RDFS4/8/10/12…) read every
                  table and write subClassOf/subPropertyOf
rdfs-plus(-full)  ∅ — equality reasoning (EQ-REP*, sameAs) reads every
                  table
================  ====================================================

An empty plan is valid: hybrid mode then runs the full catalogue and
behaves exactly like ``materialize="full"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from ..rules.depgraph import RuleDependencyGraph
from ..rules.spec import Rule
from ..rules.table5 import BY_NAME

ABSORBABLE_RULES = (
    "CAX-SCO",
    "PRP-SPO1",
    "SCM-SCO",
    "SCM-SPO",
    "SCM-DOM1",
    "SCM-DOM2",
    "SCM-RNG1",
    "SCM-RNG2",
)

#: Materialized rules the hybrid flush compensates for (see module doc).
HIERARCHY_AWARE_RULES = ("PRP-DOM", "PRP-RNG")


def _catalogued(rule: Rule, names: Sequence[str]) -> bool:
    """One of ``names``, firing exactly the catalogue's description for
    that name (so a same-named custom rule is neither)."""
    return rule.name in names and rule.descriptions == (
        BY_NAME[rule.name].description,
    )


@dataclass(frozen=True)
class HybridPlan:
    """The per-ruleset split between absorbed and materialized rules."""

    ruleset: str
    absorbed: Tuple[str, ...]
    materialized: Tuple[str, ...]
    reduced_rules: List[Rule] = field(compare=False)

    # Per-capability flags the query rewrite consults (each names the
    # absorbed rule whose virtual semantics it switches on).
    @property
    def expand_type(self) -> bool:  # CAX-SCO / rdfs9
        return "CAX-SCO" in self.absorbed

    @property
    def copy_data(self) -> bool:  # PRP-SPO1 / rdfs7
        return "PRP-SPO1" in self.absorbed

    @property
    def close_subclass(self) -> bool:  # SCM-SCO / rdfs11
        return "SCM-SCO" in self.absorbed

    @property
    def close_subproperty(self) -> bool:  # SCM-SPO / rdfs5
        return "SCM-SPO" in self.absorbed

    @property
    def expand_domain_classes(self) -> bool:  # SCM-DOM1
        return "SCM-DOM1" in self.absorbed

    @property
    def expand_domain_properties(self) -> bool:  # SCM-DOM2
        return "SCM-DOM2" in self.absorbed

    @property
    def expand_range_classes(self) -> bool:  # SCM-RNG1
        return "SCM-RNG1" in self.absorbed

    @property
    def expand_range_properties(self) -> bool:  # SCM-RNG2
        return "SCM-RNG2" in self.absorbed


def plan_hybrid(rules: Sequence[Rule], ruleset_name: str) -> HybridPlan:
    """Split ``rules`` into absorbed and materialized sets.

    Starts from every absorbable rule whose description is the
    catalogue's and ejects to a
    fixed point (ejecting one rule can strand another):

    * the absorbed rule feeds a materialized, non-aware rule — that
      rule would fire over the absorbed rule's *virtual* output;
    * a materialized, non-aware rule feeds the absorbed rule — the
      flush could write into a table the encoding answered from;
    * the SCM-DOM1/SCM-RNG1 coupling described in the module docstring.
    """
    rules = list(rules)
    graph = RuleDependencyGraph(rules)
    absorbed_idx = {
        i for i, rule in enumerate(rules)
        if _catalogued(rule, ABSORBABLE_RULES)
    }
    aware_idx = {
        i for i, rule in enumerate(rules)
        if _catalogued(rule, HIERARCHY_AWARE_RULES)
    }

    def exempt(j: int) -> bool:
        return j in absorbed_idx or j in aware_idx

    changed = True
    while changed:
        changed = False
        for i in sorted(absorbed_idx):
            conflict = any(
                j != i and not exempt(j) for j in graph.feeds(i)
            ) or any(j != i and not exempt(j) for j in graph.fed_by(i))
            if conflict:
                absorbed_idx.discard(i)
                changed = True
        absorbed_names = {rules[i].name for i in absorbed_idx}
        if "CAX-SCO" not in absorbed_names and aware_idx:
            for i in sorted(absorbed_idx):
                if rules[i].name in ("SCM-DOM1", "SCM-RNG1"):
                    absorbed_idx.discard(i)
                    changed = True

    absorbed = tuple(
        rules[i].name for i in range(len(rules)) if i in absorbed_idx
    )
    materialized = tuple(
        rules[i].name for i in range(len(rules)) if i not in absorbed_idx
    )
    reduced = [
        rule for i, rule in enumerate(rules) if i not in absorbed_idx
    ]
    return HybridPlan(
        ruleset=ruleset_name,
        absorbed=absorbed,
        materialized=materialized,
        reduced_rules=reduced,
    )
