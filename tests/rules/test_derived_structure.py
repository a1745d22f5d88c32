"""Structure derived from the rule descriptions, pinned as literals.

Per-rule read/write sets, self-fed trims, hybrid absorption and the
α / iterative-θ join inputs, for the five built-in rulesets,
RDFS-default without its θ rules, and the iterative θ beside
CAX-SCO.  The literals are what the per-class executors
(before the descriptions) produced; a change here changes the
scheduler"s or the planner"s decisions.
"""

import pytest

from repro.core.engine import InferrayEngine
from repro.litemat.planner import plan_hybrid
from repro.rdf.terms import IRI, Triple
from repro.rdf.vocabulary import RDF, RDFS
from repro.rules.classes import self_fed_rules, shaped_rule
from repro.rules.depgraph import rule_io
from repro.rules.rulesets import RULESET_NAMES, get_ruleset, ruleset_rule_names
from repro.rules.table5 import BY_NAME, make_rules


def catalogue(name):
    if name in RULESET_NAMES:
        return get_ruleset(name)
    if name == "rdfs-default-no-theta":
        return make_rules([
            rule for rule in ruleset_rule_names("rdfs-default")
            if rule not in ("SCM-SCO", "SCM-SPO")
        ])
    return [
        shaped_rule("ITER", BY_NAME["SCM-SCO"].description, "theta-iterative")
    ] + make_rules(["CAX-SCO"])


CATALOGUES = (
    "rho-df",
    "rdfs-default",
    "rdfs-full",
    "rdfs-plus",
    "rdfs-plus-full",
    "rdfs-default-no-theta",
    "iterative+cax",
)

#: Executor name → (reads, writes), sorted.
IO = {
    "CAX-EQC1": (("equivalentClass", "type"), ("type",)),
    "CAX-EQC2": (("equivalentClass", "type"), ("type",)),
    "CAX-SCO": (("subClassOf", "type"), ("type",)),
    "EQ-REP": (("*", "sameAs"), ("*",)),
    "EQ-SYM": (("sameAs",), ("sameAs",)),
    "EQ-TRANS": (("sameAs",), ("sameAs",)),
    "ITER": (("subClassOf",), ("subClassOf",)),
    "PRP-DOM": (("*", "domain"), ("type",)),
    "PRP-EQP1": (("*", "equivalentProperty"), ("*",)),
    "PRP-EQP2": (("*", "equivalentProperty"), ("*",)),
    "PRP-FP": (("*", "type"), ("sameAs",)),
    "PRP-IFP": (("*", "type"), ("sameAs",)),
    "PRP-INV1": (("*", "inverseOf"), ("*",)),
    "PRP-INV2": (("*", "inverseOf"), ("*",)),
    "PRP-RNG": (("*", "range"), ("type",)),
    "PRP-SPO1": (("*", "subPropertyOf"), ("*",)),
    "PRP-SYMP": (("*", "type"), ("*",)),
    "PRP-TRP": (("*", "type"), ("*",)),
    "RDFS10": (("type",), ("subClassOf",)),
    "RDFS12": (("type",), ("subPropertyOf",)),
    "RDFS13": (("type",), ("subClassOf",)),
    "RDFS4": (("*",), ("type",)),
    "RDFS6": (("type",), ("subPropertyOf",)),
    "RDFS8": (("type",), ("subClassOf",)),
    "SCM-CLS": (("type",), ("equivalentClass", "subClassOf")),
    "SCM-DOM1": (("domain", "subClassOf"), ("domain",)),
    "SCM-DOM2": (("domain", "subPropertyOf"), ("domain",)),
    "SCM-DP": (("type",), ("equivalentProperty", "subPropertyOf")),
    "SCM-EQC1": (("equivalentClass",), ("subClassOf",)),
    "SCM-EQC2": (("subClassOf",), ("equivalentClass",)),
    "SCM-EQP1": (("equivalentProperty",), ("subPropertyOf",)),
    "SCM-EQP2": (("subPropertyOf",), ("equivalentProperty",)),
    "SCM-OP": (("type",), ("equivalentProperty", "subPropertyOf")),
    "SCM-RNG1": (("range", "subClassOf"), ("range",)),
    "SCM-RNG2": (("range", "subPropertyOf"), ("range",)),
    "SCM-SCO": (("subClassOf",), ("subClassOf",)),
    "SCM-SPO": (("subPropertyOf",), ("subPropertyOf",)),
}

SELF_FED = {
    "iterative+cax": {},
    "rdfs-default": {
        "CAX-SCO": "subClassOf",
        "PRP-SPO1": "subPropertyOf",
        "SCM-DOM1": "subClassOf",
        "SCM-DOM2": "subPropertyOf",
        "SCM-RNG1": "subClassOf",
        "SCM-RNG2": "subPropertyOf",
    },
    "rdfs-default-no-theta": {},
    "rdfs-full": {
        "CAX-SCO": "subClassOf",
        "PRP-SPO1": "subPropertyOf",
        "SCM-DOM1": "subClassOf",
        "SCM-DOM2": "subPropertyOf",
        "SCM-RNG1": "subClassOf",
        "SCM-RNG2": "subPropertyOf",
    },
    "rdfs-plus": {
        "CAX-SCO": "subClassOf",
        "PRP-SPO1": "subPropertyOf",
        "SCM-DOM1": "subClassOf",
        "SCM-DOM2": "subPropertyOf",
        "SCM-RNG1": "subClassOf",
        "SCM-RNG2": "subPropertyOf",
    },
    "rdfs-plus-full": {
        "CAX-SCO": "subClassOf",
        "PRP-SPO1": "subPropertyOf",
        "SCM-DOM1": "subClassOf",
        "SCM-DOM2": "subPropertyOf",
        "SCM-RNG1": "subClassOf",
        "SCM-RNG2": "subPropertyOf",
    },
    "rho-df": {
        "CAX-SCO": "subClassOf",
        "PRP-SPO1": "subPropertyOf",
        "SCM-DOM2": "subPropertyOf",
        "SCM-RNG2": "subPropertyOf",
    },
}

ABSORBED = {
    "iterative+cax": (),
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
    "rdfs-default-no-theta": (
        "CAX-SCO",
        "PRP-SPO1",
        "SCM-DOM1",
        "SCM-DOM2",
        "SCM-RNG1",
        "SCM-RNG2",
    ),
    "rdfs-full": (),
    "rdfs-plus": (),
    "rdfs-plus-full": (),
    "rho-df": (
        "CAX-SCO",
        "PRP-SPO1",
        "SCM-DOM2",
        "SCM-RNG2",
        "SCM-SCO",
        "SCM-SPO",
    ),
}

#: Pairs the α / iterative-θ join legs read on STORE: (batch run, one
#: leg; delta = store copy, both legs).
ESTIMATES = {
    "CAX-EQC1": (0, 0),
    "CAX-EQC2": (0, 0),
    "CAX-SCO": (4, 8),
    "ITER": (4, 8),
    "SCM-DOM1": (3, 6),
    "SCM-DOM2": (2, 4),
    "SCM-RNG1": (3, 6),
    "SCM-RNG2": (2, 4),
}


def ex(name):
    return IRI(f"http://ex.org/{name}")


STORE = [
    Triple(ex("A"), RDFS.subClassOf, ex("B")),
    Triple(ex("B"), RDFS.subClassOf, ex("C")),
    Triple(ex("p"), RDFS.subPropertyOf, ex("q")),
    Triple(ex("q"), RDFS.domain, ex("A")),
    Triple(ex("q"), RDFS.range, ex("B")),
    Triple(ex("x"), RDF.type, ex("A")),
    Triple(ex("y"), RDF.type, ex("B")),
    Triple(ex("x"), ex("p"), ex("y")),
]


@pytest.mark.parametrize("name", CATALOGUES)
def test_rule_io(name):
    for rule in catalogue(name):
        io = rule_io(rule)
        assert (tuple(sorted(io.reads)), tuple(sorted(io.writes))) == (
            IO[rule.name]
        ), rule.name


@pytest.mark.parametrize("name", CATALOGUES)
def test_self_fed(name):
    rules = catalogue(name)
    trims = self_fed_rules(rules)
    assert {rules[i].name: s for i, s in trims.items()} == SELF_FED[name]


@pytest.mark.parametrize("name", CATALOGUES)
def test_absorbed(name):
    assert plan_hybrid(catalogue(name), name).absorbed == ABSORBED[name]


@pytest.mark.parametrize("name", CATALOGUES)
def test_join_estimates(name):
    rules = catalogue(name)
    engine = InferrayEngine(rules, backend="python")
    engine.load_triples(STORE)
    main, vocab = engine.main, engine.vocab

    def join_input(rule, new):
        return sum(
            table1.n_pairs + table2.n_pairs
            for table1, table2 in rule._tables(new, main, vocab)
        )

    for rule in rules:
        if rule.name in ESTIMATES:
            assert (
                join_input(rule, main),
                join_input(rule, main.share_view()),
            ) == ESTIMATES[rule.name], rule.name
