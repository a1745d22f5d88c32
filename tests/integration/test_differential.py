"""Differential tests: all four engines must compute identical closures.

This is the repository's strongest correctness guarantee: Inferray's
sort-merge machinery, the naive oracle, the hash-join engine and the
RETE engine are four structurally independent implementations of the
same rulesets — any divergence is a bug in at least one of them.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.hashjoin import HashJoinEngine
from repro.baselines.naive import NaiveEngine
from repro.baselines.rete import ReteEngine
from repro.core.engine import InferrayEngine
from repro.datasets.bsbm import bsbm_like
from repro.datasets.chains import (
    sameas_chain,
    subclass_chain,
    subclass_tree,
    transitive_property_chain,
)
from repro.datasets.lubm import lubm_like
from repro.datasets.realworld import wikipedia_like, wordnet_like, yago_like
from repro.rdf.terms import IRI, Triple
from repro.rdf.vocabulary import OWL, RDF, RDFS
from repro.rules.rulesets import ruleset_rule_names
from repro.rules.table5 import make_rules

ALL_RULESETS = (
    "rho-df",
    "rdfs-default",
    "rdfs-full",
    "rdfs-plus",
    "rdfs-plus-full",
)


def closure_of(engine_class, ruleset, data):
    engine = engine_class(ruleset)
    engine.load_triples(data)
    engine.materialize()
    if isinstance(engine, InferrayEngine):
        return set(engine.triples())
    return engine.as_decoded_set()


def assert_engines_agree(data, rulesets=ALL_RULESETS, baselines=None):
    if baselines is None:
        baselines = (NaiveEngine, HashJoinEngine, ReteEngine)
    for ruleset in rulesets:
        reference = closure_of(InferrayEngine, ruleset, data)
        for engine_class in baselines:
            other = closure_of(engine_class, ruleset, data)
            missing = reference - other
            extra = other - reference
            assert other == reference, (
                f"{engine_class.__name__}/{ruleset}: "
                f"missing={sorted(t.n3() for t in missing)[:5]} "
                f"extra={sorted(t.n3() for t in extra)[:5]}"
            )


def ex(name):
    return IRI(f"ex:{name}")


class TestHandcraftedWorkloads:
    def test_rdfs_plus_feature_mix(self):
        data = [
            Triple(ex("A"), RDFS.subClassOf, ex("B")),
            Triple(ex("B"), RDFS.subClassOf, ex("C")),
            Triple(ex("C"), RDFS.subClassOf, ex("A")),  # cycle
            Triple(ex("i"), RDF.type, ex("A")),
            Triple(ex("p1"), RDFS.subPropertyOf, ex("p2")),
            Triple(ex("p2"), RDFS.domain, ex("D")),
            Triple(ex("p2"), RDFS.range, ex("R")),
            Triple(ex("x"), ex("p1"), ex("y")),
            Triple(ex("A"), OWL.equivalentClass, ex("E")),
            Triple(ex("p1"), OWL.equivalentProperty, ex("q1")),
            Triple(ex("p3"), OWL.inverseOf, ex("p4")),
            Triple(ex("u"), ex("p3"), ex("v")),
            Triple(ex("near"), RDF.type, OWL.SymmetricProperty),
            Triple(ex("near"), RDF.type, OWL.TransitiveProperty),
            Triple(ex("a"), ex("near"), ex("b")),
            Triple(ex("b"), ex("near"), ex("c")),
            Triple(ex("x"), OWL.sameAs, ex("x2")),
            Triple(ex("mother"), RDF.type, OWL.FunctionalProperty),
            Triple(ex("kid"), ex("mother"), ex("m1")),
            Triple(ex("kid"), ex("mother"), ex("m2")),
            Triple(ex("ssn"), RDF.type, OWL.InverseFunctionalProperty),
            Triple(ex("per1"), ex("ssn"), ex("s1")),
            Triple(ex("per2"), ex("ssn"), ex("s1")),
        ]
        assert_engines_agree(data)

    def test_subclass_chain(self):
        assert_engines_agree(subclass_chain(12))

    def test_subclass_tree(self):
        assert_engines_agree(subclass_tree(3, branching=3))

    def test_transitive_chain(self):
        assert_engines_agree(
            transitive_property_chain(8), rulesets=("rdfs-plus",)
        )

    def test_sameas_chain(self):
        assert_engines_agree(sameas_chain(5), rulesets=("rdfs-plus",))

    def test_schema_only(self):
        data = [
            Triple(ex("p"), RDFS.domain, ex("c1")),
            Triple(ex("c1"), RDFS.subClassOf, ex("c2")),
            Triple(ex("q"), RDFS.range, ex("c1")),
        ]
        assert_engines_agree(data)

    def test_schema_of_schema(self):
        # rdfs vocabulary used as plain data: subClassOf of subClassOf.
        data = [
            Triple(RDFS.subClassOf, RDF.type, RDF.Property),
            Triple(ex("myRel"), RDFS.subPropertyOf, RDFS.subClassOf),
            Triple(ex("a"), ex("myRel"), ex("b")),
            Triple(ex("b"), ex("myRel"), ex("c")),
            Triple(ex("i"), RDF.type, ex("a")),
        ]
        assert_engines_agree(data)

    def test_reflexive_sameas(self):
        data = [
            Triple(ex("a"), OWL.sameAs, ex("a")),
            Triple(ex("a"), ex("p"), ex("b")),
        ]
        assert_engines_agree(data, rulesets=("rdfs-plus",))


class TestGeneratedWorkloads:
    def test_lubm_small(self):
        assert_engines_agree(
            lubm_like(2),
            rulesets=("rdfs-default", "rdfs-plus"),
            baselines=(HashJoinEngine,),
        )

    def test_bsbm_small(self):
        assert_engines_agree(
            bsbm_like(60),
            rulesets=("rho-df", "rdfs-default"),
            baselines=(HashJoinEngine,),
        )

    def test_yago_small(self):
        assert_engines_agree(
            yago_like(1),
            rulesets=("rdfs-default",),
            baselines=(HashJoinEngine,),
        )

    def test_wikipedia_small(self):
        assert_engines_agree(
            wikipedia_like(1),
            rulesets=("rdfs-default",),
            baselines=(HashJoinEngine,),
        )

    def test_wordnet_small(self):
        assert_engines_agree(
            wordnet_like(1),
            rulesets=("rdfs-plus",),
            baselines=(HashJoinEngine,),
        )

    def test_lubm_full_rulesets_vs_naive(self):
        assert_engines_agree(
            lubm_like(1),
            rulesets=("rdfs-full", "rdfs-plus-full"),
            baselines=(NaiveEngine,),
        )


# A small closed world of terms so random triples collide interestingly.
from repro.rdf.terms import BlankNode, Literal  # noqa: E402

_CLASSES = [ex(f"C{i}") for i in range(4)]
_PROPS = [ex(f"p{i}") for i in range(3)]
_INDIVIDUALS = [ex(f"i{i}") for i in range(3)] + [BlankNode("b0")]
_LITERALS = [Literal("v1"), Literal("v2", language="en")]
_SCHEMA_PREDICATES = [
    RDFS.subClassOf,
    RDFS.subPropertyOf,
    RDFS.domain,
    RDFS.range,
    RDF.type,
]


@st.composite
def random_dataset(draw):
    triples = []
    n = draw(st.integers(1, 12))
    for _ in range(n):
        choice = draw(st.integers(0, 5))
        if choice == 0:
            triples.append(
                Triple(
                    draw(st.sampled_from(_CLASSES)),
                    RDFS.subClassOf,
                    draw(st.sampled_from(_CLASSES)),
                )
            )
        elif choice == 1:
            triples.append(
                Triple(
                    draw(st.sampled_from(_PROPS)),
                    draw(st.sampled_from([RDFS.subPropertyOf])),
                    draw(st.sampled_from(_PROPS)),
                )
            )
        elif choice == 2:
            triples.append(
                Triple(
                    draw(st.sampled_from(_PROPS)),
                    draw(st.sampled_from([RDFS.domain, RDFS.range])),
                    draw(st.sampled_from(_CLASSES)),
                )
            )
        elif choice == 3:
            triples.append(
                Triple(
                    draw(st.sampled_from(_INDIVIDUALS)),
                    RDF.type,
                    draw(st.sampled_from(_CLASSES)),
                )
            )
        elif choice == 4:
            triples.append(
                Triple(
                    draw(st.sampled_from(_INDIVIDUALS)),
                    draw(st.sampled_from(_PROPS)),
                    draw(st.sampled_from(_INDIVIDUALS + _LITERALS)),
                )
            )
        else:
            triples.append(
                Triple(
                    draw(st.sampled_from(_INDIVIDUALS)),
                    OWL.sameAs,
                    draw(st.sampled_from(_INDIVIDUALS)),
                )
            )
    return triples


@settings(max_examples=40, deadline=None)
@given(random_dataset())
def test_random_datasets_rdfs_default(data):
    assert_engines_agree(data, rulesets=("rdfs-default",))


@settings(max_examples=25, deadline=None)
@given(random_dataset())
def test_random_datasets_rdfs_plus(data):
    assert_engines_agree(
        data, rulesets=("rdfs-plus",), baselines=(NaiveEngine, HashJoinEngine)
    )


@settings(max_examples=20, deadline=None)
@given(random_dataset())
def test_random_datasets_rdfs_full(data):
    """RDFS-Full adds the axiom rules (RDFS4/6/8/10/12/13) — the heavy
    duplicate generators the paper blames for Inferray's Table-2 gap."""
    assert_engines_agree(
        data, rulesets=("rdfs-full",), baselines=(HashJoinEngine,)
    )


# ----------------------------------------------------------------------
# A generator that can see a wrong delta trim
# ----------------------------------------------------------------------
# The rules over a θ-closed schema drop their own last output from
# their next delta (``repro.rules.classes.self_fed_rules``).  A wrong
# trim only shows on chains deep enough to need a second pass, on
# schema rows that rules derive, and on rules that write into the
# schema tables themselves — shapes ``random_dataset`` never draws.
_K = [ex(f"K{i}") for i in range(6)]
_Q = [ex(f"q{i}") for i in range(5)]
_J = [ex(f"j{i}") for i in range(4)] + [BlankNode("b1")]

DECLARED = [Triple(q, RDF.type, RDF.Property) for q in _Q]

SHAPES = (
    "subClassOf chain",
    "subPropertyOf chain",
    "domain/range",
    "inverseOf",
    "TransitiveProperty",
    "equivalentClass",
    "equivalentProperty",
    "sameAs",
    "sub-property of subPropertyOf",
    "sub-property of type",
    "loose fact",
)


@st.composite
def shaped_dataset(draw):
    """``(triples, shapes)``: a few shapes, each with the facts it needs
    to fire, drawn over small term pools so shapes overlap."""
    triples, shapes = [], []
    individual = st.sampled_from(_J)
    cls = st.sampled_from(_K)
    prop = st.sampled_from(_Q)
    for _ in range(draw(st.integers(1, 5))):
        shape = draw(st.sampled_from(SHAPES))
        shapes.append(shape)
        if shape in ("subClassOf chain", "subPropertyOf chain"):
            pool, link = (
                (_K, RDFS.subClassOf)
                if shape == "subClassOf chain"
                else (_Q, RDFS.subPropertyOf)
            )
            chain = draw(
                st.lists(st.sampled_from(pool), min_size=2, max_size=5,
                         unique=True)
            )
            triples += [Triple(a, link, b) for a, b in zip(chain, chain[1:])]
            # A fact at the bottom of the chain.
            if link == RDFS.subClassOf:
                triples.append(Triple(draw(individual), RDF.type, chain[0]))
            else:
                triples.append(
                    Triple(draw(individual), chain[0], draw(individual))
                )
        elif shape == "domain/range":
            triples.append(
                Triple(
                    draw(prop),
                    draw(st.sampled_from([RDFS.domain, RDFS.range])),
                    draw(cls),
                )
            )
        elif shape == "inverseOf":
            p, q = draw(prop), draw(prop)
            triples += [
                Triple(p, OWL.inverseOf, q),
                Triple(draw(individual), p, draw(individual)),
            ]
        elif shape == "TransitiveProperty":
            p = draw(prop)
            a, b, c = (draw(individual) for _ in range(3))
            triples += [
                Triple(p, RDF.type, OWL.TransitiveProperty),
                Triple(a, p, b),
                Triple(b, p, c),
            ]
        elif shape == "equivalentClass":
            triples.append(Triple(draw(cls), OWL.equivalentClass, draw(cls)))
        elif shape == "equivalentProperty":
            triples.append(
                Triple(draw(prop), OWL.equivalentProperty, draw(prop))
            )
        elif shape == "sameAs":
            triples.append(
                Triple(draw(individual), OWL.sameAs, draw(individual))
            )
        elif shape == "sub-property of subPropertyOf":
            # Rows of p are schema rows: PRP-SPO1 writes its own S.
            p = draw(prop)
            triples += [
                Triple(p, RDFS.subPropertyOf, RDFS.subPropertyOf),
                Triple(draw(prop), p, draw(prop)),
            ]
        elif shape == "sub-property of type":
            # Rows of p are typings: PRP-SPO1 feeds CAX-SCO's data.
            p = draw(prop)
            triples += [
                Triple(p, RDFS.subPropertyOf, RDF.type),
                Triple(draw(individual), p, draw(cls)),
            ]
        else:
            triples.append(
                draw(
                    st.sampled_from(
                        [
                            Triple(draw(individual), RDF.type, draw(cls)),
                            Triple(draw(individual), draw(prop),
                                   draw(individual)),
                            Triple(draw(cls), RDFS.subClassOf, draw(cls)),
                        ]
                    )
                )
            )
    return triples, shapes


#: Every ruleset, plus RDFS-default without its θ rules: nothing closes
#: the schema there, so nothing may be trimmed.
CATALOGUES = {name: name for name in ALL_RULESETS}
CATALOGUES["rdfs-default without θ"] = [
    name for name in ruleset_rule_names("rdfs-default")
    if name not in ("SCM-SCO", "SCM-SPO")
]


def oracle_closure(catalogue, triples):
    oracle = HashJoinEngine(catalogue)
    oracle.load_triples(triples)
    oracle.materialize()
    return oracle.as_decoded_set()


def inferray_closure(catalogue, first, then=()):
    """Batch over ``first``, then ``then`` through the incremental path."""
    rules = catalogue if isinstance(catalogue, str) else make_rules(catalogue)
    engine = InferrayEngine(rules)
    engine.load_triples(first)
    engine.materialize()
    if then:
        engine.materialize_incremental(then)
    return set(engine.triples())


def test_shaped_generator_reaches_every_shape():
    """Each shape lands in a real share of the generated datasets."""
    seen = Counter()

    @settings(max_examples=300, deadline=None, database=None,
              derandomize=True)
    @given(shaped_dataset())
    def tally(drawn):
        seen["datasets"] += 1
        seen.update(set(drawn[1]))

    tally()
    for shape in SHAPES:
        assert seen[shape] >= seen["datasets"] // 30, (shape, seen)


@pytest.mark.parametrize("catalogue", sorted(CATALOGUES))
@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(drawn=shaped_dataset())
def test_shaped_datasets_match_the_oracle(catalogue, drawn):
    """Batch, and half-then-incremental, both equal the hash-join
    closure of the whole dataset."""
    rules = CATALOGUES[catalogue]
    triples, _ = drawn
    half = len(triples) // 2
    # Declared up front: the incremental path cannot promote a term it
    # already numbered as a resource to a property id.
    first, then = DECLARED + triples[:half], triples[half:]
    expected = oracle_closure(rules, first + then)
    assert inferray_closure(rules, first + then) == expected
    assert inferray_closure(rules, first, then) == expected
