"""Random BGPs: set-at-a-time evaluator ≡ tuple-at-a-time oracle ≡ brute force.

Every generated query is answered three ways — ``repro.query.bgp`` over
id columns, the retired tuple-at-a-time evaluator (``oracle.py``) over
the same store's decoded ``query()``, and nested loops over the decoded
closure — and the three must agree as multisets, on every kernel
backend and in both entailment modes.  ``GET /query`` and ``select``
are checked against ``solutions`` on the same queries.
"""

import functools
import http.client
import json
import random
import urllib.parse
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracle import TooBig, TupleAtATimeQuery, brute_force, multiset
from repro import Store
from repro.datasets import (
    bsbm_like,
    lubm_like,
    subclass_chain,
    subclass_tree,
    subproperty_chain,
)
from repro.kernels import numpy_available
from repro.query.bgp import Query, TriplePattern, Var, parse_bgp
from repro.rdf.terms import IRI, Literal, Triple
from repro.rdf.vocabulary import RDF, RDFS, XSD
from repro.serving import ServerThread

NS = "http://example.org/"
LABEL = IRI(NS + "label")
VARIABLES = [Var(name) for name in "xyzw"]
#: Constants no store has ever encoded.
NEVER_ENCODED = [
    IRI(NS + "never/encoded"),
    IRI(NS + "never/either"),
    Literal("never encoded"),
]


def _with_literals(triples, seed):
    """``triples`` plus labels: a plain literal shared by two subjects
    (so a literal can join), a typed and a language-tagged one."""
    rng = random.Random(seed)
    subjects = sorted({t.subject for t in triples}, key=str)
    labelled = rng.sample(subjects, 6)
    literals = [
        Literal("shared"), Literal("shared"), Literal("solo"),
        Literal("7", XSD.prefix + "integer"), Literal("sept", None, "fr"),
        Literal("a \"quoted\" one"),
    ]
    return triples + [
        Triple(subject, LABEL, literal)
        for subject, literal in zip(labelled, literals)
    ]


def _taxonomy():
    """The ledger's taxonomy shape at toy size: a class tree with typed
    instances, a subClassOf chain, a sub-property chain with a domain
    axiom on top and facts on the bottom."""
    rng = random.Random(5)
    triples = subclass_tree(3) + subclass_chain(7) + subproperty_chain(4)
    leaves = [IRI(f"{NS}tree/n{k}") for k in range(7, 15)]
    triples += [
        Triple(IRI(f"{NS}inst/i{i}"), RDF.type, rng.choice(leaves))
        for i in range(16)
    ]
    triples.append(Triple(IRI(NS + "pchain/n3"), RDFS.domain, leaves[0]))
    triples += [
        Triple(IRI(f"{NS}f/s{rng.randrange(6)}"), IRI(NS + "pchain/n0"),
               IRI(f"{NS}f/o{i}"))
        for i in range(12)
    ]
    return triples


DATASETS = {
    "bsbm": (lambda: bsbm_like(12, seed=3), "rdfs-default"),
    "lubm": (lambda: lubm_like(1, seed=3), "rdfs-plus"),
    "taxonomy": (_taxonomy, "rdfs-default"),
}
BACKENDS = ["python", "compressed"] + (["numpy"] if numpy_available() else [])
MODES = ["full", "hybrid"]


class World:
    """One dataset closed under every configuration."""

    def __init__(self, name):
        build, ruleset = DATASETS[name]
        triples = _with_literals(build(), seed=len(name))
        self.stores = {
            (backend, mode): Store(
                triples, ruleset=ruleset, backend=backend, materialize=mode
            )
            for backend in BACKENDS
            for mode in MODES
        }
        self.snapshots = {
            config: store.snapshot() for config, store in self.stores.items()
        }
        closures = {
            config: frozenset(snapshot.triples())
            for config, snapshot in self.snapshots.items()
        }
        assert len(set(closures.values())) == 1, "closures differ"
        self.closure = sorted(
            next(iter(closures.values())),
            key=lambda t: (str(t.subject), str(t.predicate), t.object.n3()),
        )
        self.by_subject = {}
        self.by_term = {}
        for triple in self.closure:
            self.by_subject.setdefault(triple.subject, []).append(triple)
            for term in (triple.subject, triple.object):
                self.by_term.setdefault(term, []).append(triple)
        self.predicates = {t.predicate for t in self.closure}
        #: Triples a predicate variable can join to through s or o.
        self.about_predicates = [
            t for t in self.closure
            if t.subject in self.predicates or t.object in self.predicates
        ]
        self.with_literal = [
            t for t in self.closure if isinstance(t.object, Literal)
        ]
        self.terms = sorted(
            {term for t in self.closure for term in t}, key=lambda t: t.n3()
        )


@functools.lru_cache(maxsize=None)
def world(name):
    return World(name)


# ----------------------------------------------------------------------
# Generated BGPs
# ----------------------------------------------------------------------
SHAPES = ["star", "chain", "repeat", "predicate", "ground", "cross",
          "literal", "random"]


def _witnesses(draw, w, shape):
    """Concrete triples of the closure the query is abstracted from,
    and the terms that must become variables for the shape to show."""
    pick = lambda pool: draw(st.sampled_from(pool))
    first = pick(w.closure)
    if shape == "star":
        centre = pick([s for s, ts in w.by_subject.items() if len(ts) > 1])
        count = draw(st.integers(2, 3))
        return [pick(w.by_subject[centre]) for _ in range(count)], {centre}
    if shape == "chain":
        links = [t for t in w.closure if t.object in w.by_subject]
        chain = [pick(links)]
        for _ in range(draw(st.integers(1, 2))):
            if chain[-1].object not in w.by_subject:
                break
            chain.append(pick(w.by_subject[chain[-1].object]))
        return chain, {t.object for t in chain[:-1]}
    if shape == "repeat":
        return [first] + ([pick(w.closure)] if draw(st.booleans()) else []), \
            {first.subject, first.object}
    if shape == "predicate":
        about = pick(w.about_predicates)
        predicate = (about.subject if about.subject in w.predicates
                     else about.object)
        usage = pick([t for t in w.closure if t.predicate == predicate])
        return [usage, about], {predicate}
    if shape == "ground":
        return [first] + ([pick(w.closure)] if draw(st.booleans()) else []), \
            set()
    if shape == "cross":
        return [first, pick(w.closure)], {first.subject}
    if shape == "literal":
        labelled = pick(w.with_literal)
        return [labelled, pick(w.by_term[labelled.subject])], set()
    count = draw(st.integers(1, 4))
    return [pick(w.closure) for _ in range(count)], set()


@st.composite
def bgps(draw, w):
    """1–4 patterns abstracted from closure triples: a term keeps one
    variable wherever it occurs (so shared terms become joins), some
    constants are swapped for others or for never-encoded ones, a
    zero-match pattern may be put first or last, and the order is
    shuffled."""
    shape = draw(st.sampled_from(SHAPES))
    witnesses, forced = _witnesses(draw, w, shape)
    variable_of = {}
    if shape == "repeat":
        variable_of = dict.fromkeys(forced, VARIABLES[0])
    else:
        for term in forced:
            variable_of[term] = VARIABLES[len(variable_of)]
    abstract = st.integers(0, 99)

    def position(term, share):
        if term in variable_of:
            return variable_of[term]
        if shape == "ground" or draw(abstract) >= share:
            return term
        unused = [v for v in VARIABLES if v not in variable_of.values()]
        if not unused or (variable_of and draw(abstract) < 10):
            # Two terms under one variable: rarely a solution, always
            # a filter the evaluator has to apply.
            variable_of[term] = draw(st.sampled_from(VARIABLES))
        else:
            variable_of[term] = unused[0]
        return variable_of[term]

    patterns = []
    for triple in witnesses:
        # Cross products stay small: the disconnected shape keeps its
        # objects constant.
        object_share = 0 if shape == "cross" else 50
        patterns.append(TriplePattern(
            position(triple.subject, 60),
            position(triple.predicate, 25),
            position(triple.object, object_share),
        ))
    mutation = draw(st.sampled_from(
        ["none", "none", "none", "swap", "unknown", "zero_first", "zero_last"]
    ))
    if mutation in ("swap", "unknown"):
        index = draw(st.integers(0, len(patterns) - 1))
        terms = list(
            (patterns[index].subject, patterns[index].predicate,
             patterns[index].object)
        )
        constants = [i for i, t in enumerate(terms) if not isinstance(t, Var)]
        if constants:
            pool = w.terms if mutation == "swap" else NEVER_ENCODED
            terms[draw(st.sampled_from(constants))] = draw(
                st.sampled_from(pool)
            )
            patterns[index] = TriplePattern(*terms)
    order = draw(st.permutations(range(len(patterns))))
    patterns = [patterns[i] for i in order]
    if mutation.startswith("zero") and len(patterns) < 4:
        seed = draw(st.sampled_from(w.closure))
        empty = TriplePattern(
            seed.object if isinstance(seed.object, IRI) else seed.subject,
            seed.predicate,
            draw(st.sampled_from(NEVER_ENCODED + [seed.subject])),
        )
        assume(not brute_force(w.closure, [empty]))
        if mutation == "zero_first":
            patterns.insert(0, empty)
        else:
            patterns.append(empty)
    return patterns


#: Comparisons one brute-force pass may make before a query is skipped.
BUDGET = 400_000


def features(closure, patterns):
    """The shapes a query shows, by inspection of the query itself."""
    found = set()
    subjects = Counter()
    objects, connected = set(), []
    for pattern in patterns:
        terms = (pattern.subject, pattern.predicate, pattern.object)
        variables = [t for t in terms if isinstance(t, Var)]
        if isinstance(pattern.subject, Var):
            subjects[pattern.subject] += 1
        if isinstance(pattern.object, Var):
            objects.add(pattern.object)
        if len(set(variables)) < len(variables):
            found.add("variable repeated in a pattern")
        if not variables:
            found.add("ground pattern")
        if any(isinstance(t, Literal) for t in terms):
            found.add("literal constant")
        if any(t in NEVER_ENCODED for t in terms):
            found.add("never-encoded constant")
        if variables:
            touching = [g for g in connected if g & set(variables)]
            merged = set(variables).union(*touching)
            connected = [g for g in connected if g not in touching]
            connected.append(merged)
    if len(connected) > 1:
        found.add("cross product")
    if any(count > 1 for count in subjects.values()):
        found.add("star join")
    if objects & set(subjects):
        found.add("chain join")
    predicate_variables = {
        p.predicate for p in patterns if isinstance(p.predicate, Var)
    }
    if predicate_variables & (set(subjects) | objects):
        found.add("predicate variable joined to a subject/object")
    if len(patterns) > 1:
        if not brute_force(closure, patterns[:1]):
            found.add("zero-match pattern first")
        if not brute_force(closure, patterns[-1:]):
            found.add("zero-match pattern last")
    return found


REQUIRED_FEATURES = [
    "star join", "chain join", "variable repeated in a pattern",
    "predicate variable joined to a subject/object", "ground pattern",
    "cross product", "literal constant", "never-encoded constant",
    "zero-match pattern first", "zero-match pattern last",
]


@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_generator_reaches_every_shape(dataset):
    """The strategy is not vacuous: each shape the evaluator treats
    differently shows up in a real share of the generated queries, and
    a real share of them has answers."""
    w = world(dataset)
    seen = Counter()

    @settings(max_examples=300, deadline=None, database=None,
              derandomize=True)
    @given(bgps(w))
    def tally(patterns):
        seen["queries"] += 1
        seen.update(features(w.closure, patterns))
        try:
            if brute_force(w.closure, patterns, BUDGET):
                seen["with answers"] += 1
        except TooBig:
            seen["too big"] += 1

    tally()
    for feature in REQUIRED_FEATURES:
        assert seen[feature] >= seen["queries"] // 30, (feature, seen)
    assert seen["with answers"] >= seen["queries"] // 4, seen
    assert seen["too big"] <= seen["queries"] // 10, seen


@pytest.mark.parametrize("dataset", sorted(DATASETS))
@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_evaluator_oracle_and_brute_force_agree(dataset, data):
    w = world(dataset)
    patterns = data.draw(bgps(w))
    try:
        expected = multiset(brute_force(w.closure, patterns, BUDGET))
    except TooBig:
        assume(False)
    query = Query(patterns)
    names = query.variables()
    projection = data.draw(
        st.lists(st.sampled_from(names), unique=True) if names
        else st.just([])
    )
    for config, snapshot in w.snapshots.items():
        solutions = snapshot.solutions(query)
        assert multiset(solutions) == expected, (config, patterns)
        assert multiset(
            TupleAtATimeQuery(patterns).execute(snapshot)
        ) == expected, (config, "oracle", patterns)
        assert multiset(query.execute(snapshot)) == expected
        assert len(snapshot.evaluate(query)) == len(solutions)
        assert all(list(s) == names for s in solutions)
        # select ≡ the distinct projection of solutions, same order.
        rows = [tuple(s[name] for name in projection) for s in solutions]
        assert snapshot.select(query, *projection) == list(
            dict.fromkeys(rows)
        ), (config, patterns, projection)


def test_engine_store_and_snapshot_are_all_accepted():
    w = world("lubm")
    store = next(iter(w.stores.values()))
    query = Query(parse_bgp("?x a ?t . ?x ?p ?o"))
    expected = multiset(query.execute(store.snapshot()))
    assert expected
    assert multiset(query.execute(store)) == expected
    assert multiset(query.execute(store.engine)) == expected


# ----------------------------------------------------------------------
# GET /query ≡ Snapshot.solutions
# ----------------------------------------------------------------------
def _bgp_text(patterns):
    return " . ".join(
        " ".join(
            f"?{term.name}" if isinstance(term, Var) else term.n3()
            for term in (p.subject, p.predicate, p.object)
        )
        for p in patterns
    )


@pytest.mark.parametrize("mode", MODES)
def test_http_query_returns_what_the_snapshot_returns(mode):
    w = world("bsbm")
    store = w.stores[(BACKENDS[-1], mode)]
    snapshot = w.snapshots[(BACKENDS[-1], mode)]
    with ServerThread(store, port=0) as handle:
        connection = http.client.HTTPConnection(*handle.address, timeout=30)

        @settings(max_examples=60, deadline=None, database=None,
                  derandomize=True)
        @given(bgps(w))
        def check(patterns):
            text = _bgp_text(patterns)
            assert parse_bgp(text) == patterns
            try:
                brute_force(w.closure, patterns, BUDGET)
            except TooBig:
                assume(False)
            connection.request(
                "GET", "/query?limit=-1&q=" + urllib.parse.quote(text)
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 200, payload
            expected = [
                {name: term.n3() for name, term in solution.items()}
                for solution in snapshot.solutions(text)
            ]
            assert payload["n"] == payload["returned"] == len(expected)
            assert multiset(payload["solutions"]) == multiset(expected)

        try:
            check()
        finally:
            connection.close()
