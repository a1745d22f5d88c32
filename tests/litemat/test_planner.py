"""Exact absorption decisions of the hybrid planner, per ruleset.

The absorbed set is a correctness contract, not a heuristic: absorbing
a rule the encoding cannot answer loses entailments; absorbing a rule
that feeds (or is fed by) a still-materialized rule breaks the flush.
These tests pin the planner's output for every built-in ruleset and
check the description validation that protects custom catalogues.
"""

import pytest

from repro.core.store_api import Store
from repro.litemat.planner import (
    ABSORBABLE_RULES,
    HIERARCHY_AWARE_RULES,
    plan_hybrid,
)
from repro.rdf.terms import IRI, Triple
from repro.rdf.vocabulary import RDF, RDFS
from repro.rules.classes import shaped_rule
from repro.rules.rulesets import RULESET_NAMES, get_ruleset
from repro.rules.spec import Description

#: Expected absorbed set per built-in ruleset (sorted tuples).
EXPECTED = {
    # Full RDFS-default absorption: both θ closures, the α expansions
    # of type/domain/range and the sub-property data copy.
    "rdfs-default": (
        "CAX-SCO",
        "PRP-SPO1",
        "SCM-DOM1",
        "SCM-DOM2",
        "SCM-RNG1",
        "SCM-RNG2",
        "SCM-SCO",
        "SCM-SPO",
    ),
    # ρdf has PRP-DOM/PRP-RNG materialized without CAX-SCO's α
    # SCM-DOM1/SCM-RNG1 companions present... it lacks those two rules
    # entirely, so the remaining six absorb.
    "rho-df": (
        "CAX-SCO",
        "PRP-SPO1",
        "SCM-DOM2",
        "SCM-RNG2",
        "SCM-SCO",
        "SCM-SPO",
    ),
    # RDFS4 (body ⟨x ?p y⟩) reads every triple, so any absorbed rule
    # would starve it; nothing absorbs.
    "rdfs-full": (),
    # The sameAs/equivalence rules read and write arbitrary
    # properties; the ejection fixed point clears the absorbed set.
    "rdfs-plus": (),
    "rdfs-plus-full": (),
}


@pytest.mark.parametrize("ruleset", sorted(RULESET_NAMES))
def test_absorbed_sets_are_exact(ruleset):
    plan = plan_hybrid(get_ruleset(ruleset), ruleset)
    assert plan.absorbed == EXPECTED[ruleset]
    # absorbed + materialized partition the catalogue.
    names = {rule.name for rule in get_ruleset(ruleset)}
    assert set(plan.absorbed) | set(plan.materialized) == names
    assert not set(plan.absorbed) & set(plan.materialized)
    assert [r.name for r in plan.reduced_rules] == list(plan.materialized)


def test_absorbed_rules_are_declared_absorbable():
    for ruleset in RULESET_NAMES:
        plan = plan_hybrid(get_ruleset(ruleset), ruleset)
        assert set(plan.absorbed) <= set(ABSORBABLE_RULES)


def test_plan_flags_follow_absorption():
    plan = plan_hybrid(get_ruleset("rdfs-default"), "rdfs-default")
    assert plan.expand_type
    assert plan.copy_data
    assert plan.close_subclass
    assert plan.close_subproperty
    assert plan.expand_domain_classes
    assert plan.expand_range_properties
    empty = plan_hybrid(get_ruleset("rdfs-full"), "rdfs-full")
    assert not empty.expand_type
    assert not empty.copy_data


def test_name_collision_with_wrong_executor_is_not_absorbed():
    # A custom catalogue may reuse an absorbable *name* on a different
    # executor; the planner must validate the shape, not the label.
    rules = get_ruleset("rdfs-default")
    impostor = next(r for r in rules if r.name == "PRP-DOM")
    impostor.name = "CAX-SCO"
    victims = [r for r in rules if r is impostor or r.name != "CAX-SCO"]
    plan = plan_hybrid(victims, "custom")
    assert "CAX-SCO" not in plan.absorbed


def test_hierarchy_aware_rules_stay_materialized():
    for ruleset in RULESET_NAMES:
        plan = plan_hybrid(get_ruleset(ruleset), ruleset)
        for name in HIERARCHY_AWARE_RULES:
            assert name not in plan.absorbed


def test_same_named_custom_hierarchy_rule_is_not_aware():
    # "PRP-DOM" that types subjects with the *range* class: the hybrid
    # pre-pass compensates only for the catalogue's PRP-DOM, so this
    # rule must not be exempted — hybrid must answer what full derives.
    def catalogue():
        custom = shaped_rule("PRP-DOM", Description.of(
            "?p range ?c . ?x ?p ?y", "?x type ?c"
        ), "gamma")
        return [custom if r.name == "PRP-DOM" else r
                for r in get_ruleset("rdfs-default")]

    ex = lambda name: IRI(f"http://example.org/{name}")
    data = [
        Triple(ex("sub"), RDFS.subPropertyOf, ex("p")),
        Triple(ex("p"), RDFS.domain, ex("C")),
        Triple(ex("p"), RDFS.range, ex("D")),
        Triple(ex("a"), ex("sub"), ex("b")),
    ]
    full = Store(data, ruleset=catalogue(), materialize="full")
    hybrid = Store(data, ruleset=catalogue(), materialize="hybrid")
    assert Triple(ex("a"), RDF.type, ex("D")) in set(full.triples())
    assert Triple(ex("a"), RDF.type, ex("C")) not in set(full.triples())
    assert sorted(t.n3() for t in hybrid.triples()) == sorted(
        t.n3() for t in full.triples()
    )
