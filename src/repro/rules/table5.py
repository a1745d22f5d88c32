"""The 38-rule catalogue of the paper's Table 5, as declarative data.

Each entry records the paper's row number, rule name, ruleset
memberships (``True`` = filled circle, ``"full"`` = half circle — rules
that "do not produce meaningful triples and are used only in full
versions of rulesets"), the paper's class label (α/β/γ/δ/θ/same-as/–)
and the rule itself: its body and head atoms over :class:`Vocab` names
and ``?variables``.  That description is the one statement of the
rule's shape.  Executors are built from it (:func:`make_rules`) — by
shape (:func:`repro.rules.classes.shaped_rule`), unless the entry names
one of the special executors — and the dependency graph, the self-fed
test, the hybrid planner and the datalog oracle all read it.

The three EQ-REP rows share one :class:`SameAsRule`: the paper "handles
the four rules with a single loop" (EQ-SYM, the fourth, is the trivial
single-antecedent case).

RDFS8's head is printed garbled in the paper's PDF; we implement the
W3C RDF-Semantics form ``x rdf:type rdfs:Class → x rdfs:subClassOf
rdfs:Resource`` (DESIGN.md §6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from .classes import FunctionalPropertyRule, SameAsRule, ThetaRule, shaped_rule
from .spec import Description, Rule

Membership = Union[bool, str]  # True, False, or "full"


@dataclass(frozen=True)
class RuleEntry:
    """One Table-5 row."""

    number: int
    name: str
    rdfs: Membership
    rho_df: Membership
    rdfs_plus: Membership
    paper_class: str
    description: Description
    #: A special executor class; ``None`` builds one by body shape.
    executor: Optional[type] = None
    #: For rows sharing one executor (EQ-REP-*), the executor's name.
    shared_executor: Optional[str] = None


def _row(number, name, rdfs, rho_df, rdfs_plus, paper_class, body, head,
         executor=None, shared_executor=None, not_equal=()):
    return RuleEntry(
        number, name, rdfs, rho_df, rdfs_plus, paper_class,
        Description.of(body, head, not_equal), executor, shared_executor,
    )


T, F, H = True, False, "full"

TABLE5: List[RuleEntry] = [
    _row(1, "CAX-EQC1", F, F, T, "alpha",
         "?c1 equivalentClass ?c2 . ?x type ?c1", "?x type ?c2"),
    _row(2, "CAX-EQC2", F, F, T, "alpha",
         "?c1 equivalentClass ?c2 . ?x type ?c2", "?x type ?c1"),
    _row(3, "CAX-SCO", T, T, T, "alpha",
         "?c1 subClassOf ?c2 . ?x type ?c1", "?x type ?c2"),
    _row(4, "EQ-REP-O", F, F, T, "same-as",
         "?o1 sameAs ?o2 . ?s ?p ?o2", "?s ?p ?o1", SameAsRule, "EQ-REP"),
    _row(5, "EQ-REP-P", F, F, T, "same-as",
         "?p1 sameAs ?p2 . ?s ?p2 ?o", "?s ?p1 ?o", SameAsRule, "EQ-REP"),
    _row(6, "EQ-REP-S", F, F, T, "same-as",
         "?s1 sameAs ?s2 . ?s2 ?p ?o", "?s1 ?p ?o", SameAsRule, "EQ-REP"),
    _row(7, "EQ-SYM", F, F, T, "trivial", "?x sameAs ?y", "?y sameAs ?x"),
    _row(8, "EQ-TRANS", F, F, T, "theta",
         "?x sameAs ?y . ?y sameAs ?z", "?x sameAs ?z", ThetaRule),
    _row(9, "PRP-DOM", T, T, T, "gamma",
         "?p domain ?c . ?x ?p ?y", "?x type ?c"),
    _row(10, "PRP-EQP1", F, F, T, "delta",
         "?p1 equivalentProperty ?p2 . ?x ?p1 ?y", "?x ?p2 ?y"),
    _row(11, "PRP-EQP2", F, F, T, "delta",
         "?p1 equivalentProperty ?p2 . ?x ?p2 ?y", "?x ?p1 ?y"),
    _row(12, "PRP-FP", F, F, T, "functional",
         "?p type FunctionalProperty . ?x ?p ?y1 . ?x ?p ?y2",
         "?y1 sameAs ?y2", FunctionalPropertyRule,
         not_equal=[("?y1", "?y2")]),
    _row(13, "PRP-IFP", F, F, T, "functional",
         "?p type InverseFunctionalProperty . ?x1 ?p ?y . ?x2 ?p ?y",
         "?x1 sameAs ?x2", FunctionalPropertyRule,
         not_equal=[("?x1", "?x2")]),
    _row(14, "PRP-INV1", F, F, T, "delta",
         "?p1 inverseOf ?p2 . ?x ?p1 ?y", "?y ?p2 ?x"),
    _row(15, "PRP-INV2", F, F, T, "delta",
         "?p1 inverseOf ?p2 . ?x ?p2 ?y", "?y ?p1 ?x"),
    _row(16, "PRP-RNG", T, T, T, "gamma",
         "?p range ?c . ?x ?p ?y", "?y type ?c"),
    _row(17, "PRP-SPO1", T, T, T, "gamma",
         "?p1 subPropertyOf ?p2 . ?x ?p1 ?y", "?x ?p2 ?y"),
    _row(18, "PRP-SYMP", F, F, T, "gamma",
         "?p type SymmetricProperty . ?x ?p ?y", "?y ?p ?x"),
    _row(19, "PRP-TRP", F, F, T, "theta",
         "?p type TransitiveProperty . ?x ?p ?y . ?y ?p ?z", "?x ?p ?z",
         ThetaRule),
    _row(20, "SCM-DOM1", T, F, T, "alpha",
         "?p domain ?c1 . ?c1 subClassOf ?c2", "?p domain ?c2"),
    _row(21, "SCM-DOM2", T, T, T, "alpha",
         "?p2 domain ?c . ?p1 subPropertyOf ?p2", "?p1 domain ?c"),
    _row(22, "SCM-EQC1", F, F, T, "trivial", "?c1 equivalentClass ?c2",
         "?c1 subClassOf ?c2 . ?c2 subClassOf ?c1"),
    _row(23, "SCM-EQC2", F, F, T, "beta",
         "?c1 subClassOf ?c2 . ?c2 subClassOf ?c1", "?c1 equivalentClass ?c2"),
    _row(24, "SCM-EQP1", F, F, T, "trivial", "?p1 equivalentProperty ?p2",
         "?p1 subPropertyOf ?p2 . ?p2 subPropertyOf ?p1"),
    _row(25, "SCM-EQP2", F, F, T, "beta",
         "?p1 subPropertyOf ?p2 . ?p2 subPropertyOf ?p1",
         "?p1 equivalentProperty ?p2"),
    _row(26, "SCM-RNG1", T, F, T, "alpha",
         "?p range ?c1 . ?c1 subClassOf ?c2", "?p range ?c2"),
    _row(27, "SCM-RNG2", T, T, T, "alpha",
         "?p2 range ?c . ?p1 subPropertyOf ?p2", "?p1 range ?c"),
    _row(28, "SCM-SCO", T, T, T, "theta",
         "?c1 subClassOf ?c2 . ?c2 subClassOf ?c3", "?c1 subClassOf ?c3",
         ThetaRule),
    _row(29, "SCM-SPO", T, T, T, "theta",
         "?p1 subPropertyOf ?p2 . ?p2 subPropertyOf ?p3",
         "?p1 subPropertyOf ?p3", ThetaRule),
    _row(30, "SCM-CLS", F, F, H, "trivial", "?c type owlClass",
         "?c subClassOf ?c . ?c equivalentClass ?c . ?c subClassOf Thing"
         " . Nothing subClassOf ?c"),
    _row(31, "SCM-DP", F, F, H, "trivial", "?p type DatatypeProperty",
         "?p subPropertyOf ?p . ?p equivalentProperty ?p"),
    _row(32, "SCM-OP", F, F, H, "trivial", "?p type ObjectProperty",
         "?p subPropertyOf ?p . ?p equivalentProperty ?p"),
    _row(33, "RDFS4", H, H, H, "trivial", "?x ?p ?y",
         "?x type Resource . ?y type Resource"),
    _row(34, "RDFS8", H, F, F, "trivial", "?x type rdfsClass",
         "?x subClassOf Resource"),
    _row(35, "RDFS12", H, F, F, "trivial",
         "?x type ContainerMembershipProperty", "?x subPropertyOf member"),
    _row(36, "RDFS13", H, F, F, "trivial", "?x type Datatype",
         "?x subClassOf Literal"),
    _row(37, "RDFS6", H, F, F, "trivial", "?x type Property",
         "?x subPropertyOf ?x"),
    _row(38, "RDFS10", H, F, F, "trivial", "?x type rdfsClass",
         "?x subClassOf ?x"),
]

BY_NAME: Dict[str, RuleEntry] = {entry.name: entry for entry in TABLE5}


def make_rules(names: List[str]) -> List[Rule]:
    """Instantiate executors for rule names, deduplicating shared ones."""
    rules: List[Rule] = []
    seen_shared = set()
    for name in names:
        entry = BY_NAME[name]
        shared = entry.shared_executor
        if shared is None:
            build = entry.executor or shaped_rule
            rules.append(build(name, entry.description, entry.paper_class))
        elif shared not in seen_shared:
            seen_shared.add(shared)
            rules.append(entry.executor(
                shared,
                [e.description for e in TABLE5 if e.shared_executor == shared],
                entry.paper_class,
            ))
    return rules
