"""Workload builders: every input the benchmark runs is made here, from a seed.

A workload is one set of inputs — a dataset written to an N-Triples
file, the ruleset it is closed under, a seeded query mix and a stream of
small writes.  The same pipeline (file → closure → store file → queries →
updates → HTTP) runs over each; what differs is which layer the input
loads.  The seed reaches the generators here and nothing else: the
program under test only ever sees the generated inputs.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from repro.datasets import (
    bsbm_like,
    lubm_like,
    subclass_chain,
    subclass_tree,
    subproperty_chain,
)
from repro.rdf.terms import IRI, Triple
from repro.rdf.vocabulary import RDF, RDFS

QUERY_CLASSES = ("selective", "scan", "join")

#: One period of the query mix: 60 % selective, 20 % scan, 20 % join,
#: interleaved so that any prefix a time-boxed stage reaches keeps the
#: shares.
_MIX_PERIOD = ("selective", "selective", "scan", "selective", "join")

#: Templates of a class are drawn in strict rotation; only their constants
#: are random.  A class's metric is the median over its distinct templates
#: of each template's median latency: shapes differ in cost tenfold, and a
#: median pooled over all of them sits where one cost cluster meets the
#: next and jumps between the two from run to run.
Template = Callable[[random.Random], str]


def _centred(cheap: Template, middle: Template, dear: Template
             ) -> List[Template]:
    """A rotation of three shapes of clearly different cost in which the
    middle one — the one the class's metric therefore reports — is drawn
    three times in five, so it also has the most samples."""
    return [middle, cheap, middle, dear, middle]


@dataclass
class Dataset:
    """One generated input set."""

    ruleset: str
    triples: List[Triple]
    templates: Dict[str, List[Template]]
    #: The one-pattern scan the HTTP read mix sends with ``limit=100``.
    http_scan: str
    #: Predicate of every generated write, and the class its domain
    #: axiom types the subject with (the inferred consequence probed).
    link: IRI
    link_domain: IRI
    namespace: str

    def query_mix(self, seed: int, count: int) -> List[Tuple[str, int, str]]:
        """``count`` (class, template number, BGP text) triples in the
        60/20/20 shares."""
        rng = random.Random(seed * 7919 + 1)
        cursor = {cls: 0 for cls in QUERY_CLASSES}
        mix = []
        for index in range(count):
            cls = _MIX_PERIOD[index % len(_MIX_PERIOD)]
            templates = self.templates[cls]
            template = templates[cursor[cls] % len(templates)]
            cursor[cls] += 1
            mix.append((cls, templates.index(template), template(rng)))
        return mix

    def class_queries(self, cls: str, seed: int
                      ) -> Iterator[Tuple[str, int, str]]:
        """An endless stream of one class's queries, templates in
        rotation: what a stage timing that class alone draws from."""
        rng = random.Random(seed * 7919 + 11 + QUERY_CLASSES.index(cls))
        templates = self.templates[cls]
        for template in itertools.cycle(templates):
            yield cls, templates.index(template), template(rng)

    def representative_queries(self, seed: int) -> List[Tuple[str, str]]:
        """One instance of every template, for the answer-digest gate."""
        rng = random.Random(seed * 104729 + 3)
        return [
            (cls, template(rng))
            for cls in QUERY_CLASSES
            for template in self.templates[cls]
        ]

    def fresh_batch(self, tag: str, index: int, size: int) -> List[Triple]:
        """``size`` new facts about one new subject, over ``link``.

        Subject and objects are IRIs the store has never seen, so a write
        grows the dictionary and fires the domain/range (and, on the
        taxonomy, sub-property) rules; nothing else can entail the facts,
        so once removed they must be gone.
        """
        subject = IRI(f"{self.namespace}w/{tag}{index}")
        return [
            Triple(subject, self.link, IRI(f"{self.namespace}w/{tag}{index}o{i}"))
            for i in range(size)
        ]


def _by_predicate(triples: Sequence[Triple]) -> Dict[IRI, List[Triple]]:
    index: Dict[IRI, List[Triple]] = {}
    for triple in triples:
        index.setdefault(triple.predicate, []).append(triple)
    return index


def _bound_subject(pool: List[Triple]) -> Template:
    return lambda rng: f"<{rng.choice(pool).subject.value}> ?p ?o"


def _bound_object(pool: List[Triple]) -> Template:
    def template(rng: random.Random) -> str:
        triple = rng.choice(pool)
        return f"?s <{triple.predicate.value}> <{triple.object.value}>"

    return template


def _types_of(pool: List[Triple]) -> Template:
    return lambda rng: f"<{rng.choice(pool).subject.value}> a ?t"


def _class_scan(classes: List[str]) -> List[Template]:
    return [(lambda rng, c=c: f"?x a <{c}>") for c in classes]


# ----------------------------------------------------------------------
# BSBM: instance-heavy, shallow schema
# ----------------------------------------------------------------------
def bsbm(scale: int, seed: int) -> Dataset:
    ns = "http://example.org/bsbm#"
    triples = bsbm_like(scale, seed=seed)
    by_pred = _by_predicate(triples)
    producer = by_pred[IRI(ns + "producer")]
    offer_of = by_pred[IRI(ns + "offerOf")]
    review_for = by_pred[IRI(ns + "reviewFor")]
    n_types = max(8, scale // 40)
    branching = max(2, round(n_types ** 0.25))

    def subtree(rng: random.Random) -> str:
        # Children of the root: the largest subtrees short of the whole
        # tree (< 100 answers at every scale used).
        return f"?c rdfs:subClassOf <{ns}ProductType{rng.randint(1, branching)}>"

    def class_times_edge(rng: random.Random) -> str:
        # Class constant listed first, selective edge second: both have
        # two bound positions, so the evaluator scans the class.
        who = rng.choice(producer).object.value
        return f"?p a <{ns}Product> . ?p <{ns}producer> <{who}>"

    def big_class_times_edge(rng: random.Random) -> str:
        product = rng.choice(offer_of).object.value
        return f"?o a <{ns}Offer> . ?o <{ns}offerOf> <{product}>"

    def ancestors(rng: random.Random) -> str:
        # A walk up the transitive subClassOf closure the θ prepass built.
        leaf = rng.randrange(n_types // 2, n_types)
        return f"<{ns}ProductType{leaf}> rdfs:subClassOf ?y"

    def reviewers_of(rng: random.Random) -> str:
        product = rng.choice(review_for).object.value
        return (f"?r <{ns}reviewFor> <{product}> . ?r <{ns}reviewer> ?w . "
                f"?w a <{ns}Person>")

    return Dataset(
        ruleset="rdfs-default",
        triples=triples,
        templates={
            "selective": [_bound_subject(producer), _bound_object(producer),
                          subtree, ancestors, _types_of(producer)],
            "scan": _centred(*_class_scan(
                [ns + "Agent", ns + "Product", ns + "Offer"])),
            "join": _centred(reviewers_of, class_times_edge,
                             big_class_times_edge),
        },
        http_scan=f"?p a <{ns}Product>",
        link=IRI(ns + "productFeature"),
        link_domain=IRI(ns + "Product"),
        namespace=ns,
    )


# ----------------------------------------------------------------------
# LUBM: RDFS-Plus (transitive, inverse, sub-property) over a university world
# ----------------------------------------------------------------------
def lubm(scale: int, seed: int) -> Dataset:
    ns = "http://example.org/lubm#"
    triples = lubm_like(scale, seed=seed)
    by_pred = _by_predicate(triples)
    takes = by_pred[IRI(ns + "takesCourse")]
    member_of = by_pred[IRI(ns + "memberOf")]
    works_for = by_pred[IRI(ns + "worksFor")]

    def suborganization(rng: random.Random) -> str:
        group = rng.randrange(scale)
        return f"<{ns}Group{group}> <{ns}subOrganizationOf> ?o"

    def schema(rng: random.Random) -> str:
        cls = rng.choice(["Person", "Employee", "Organization", "Student"])
        return f"?c rdfs:subClassOf <{ns}{cls}>"

    def class_times_edge(rng: random.Random) -> str:
        dept = rng.choice(member_of).object.value
        return f"?x a <{ns}GraduateStudent> . ?x <{ns}memberOf> <{dept}>"

    def big_class_times_edge(rng: random.Random) -> str:
        dept = rng.choice(member_of).object.value
        return f"?x a <{ns}Student> . ?x <{ns}memberOf> <{dept}>"

    def taught_students(rng: random.Random) -> str:
        dept = rng.choice(works_for).object.value
        return (f"?p <{ns}worksFor> <{dept}> . ?p <{ns}teacherOf> ?c . "
                f"?s <{ns}takesCourse> ?c")

    return Dataset(
        ruleset="rdfs-plus",
        triples=triples,
        templates={
            "selective": [_bound_subject(takes), _bound_object(takes),
                          schema, suborganization, _types_of(takes)],
            "scan": _centred(*_class_scan(
                [ns + "Professor", ns + "GraduateStudent",
                 ns + "UndergraduateStudent"])),
            "join": _centred(taught_students, class_times_edge,
                             big_class_times_edge),
        },
        http_scan=f"?x a <{ns}GraduateStudent>",
        link=IRI(ns + "takesCourse"),
        link_domain=IRI(ns + "Student"),
        namespace=ns,
    )


# ----------------------------------------------------------------------
# Taxonomy: a small input with a large closure
# ----------------------------------------------------------------------
def taxonomy(scale: float, seed: int) -> Dataset:
    """Binary class tree with typed instances, a subClassOf chain, and a
    sub-property chain with a domain axiom on top and facts on the bottom.

    At scale 1: depth 9 (1 023 classes, 512 leaves × 12 instances), a
    1 000-node chain (≈500 k closure pairs), a 32-node property chain
    over 4 000 facts — ≈12 k asserted triples, ≈0.7 M in the closure.
    """
    ns = "http://example.org/"
    rng = random.Random(seed)
    depth = max(3, min(9, 9 + round(math.log2(scale))))
    chain = max(12, round(1000 * scale))
    props = max(4, round(32 * math.sqrt(scale)))
    facts = max(24, round(4000 * scale))

    def node(k: int) -> IRI:
        return IRI(f"{ns}tree/n{k}")

    triples = list(subclass_tree(depth))
    first_leaf = 2 ** depth - 1
    leaves = [node(k) for k in range(first_leaf, 2 ** (depth + 1) - 1)]
    instances = []
    for i in range(12 * len(leaves)):
        instance = Triple(IRI(f"{ns}inst/i{i}"), RDF.type, rng.choice(leaves))
        instances.append(instance)
    triples += instances
    triples += subclass_chain(chain)
    triples += subproperty_chain(props)
    bottom = IRI(f"{ns}pchain/n0")
    top = IRI(f"{ns}pchain/n{props - 1}")
    triples.append(Triple(top, RDFS.domain, leaves[0]))
    fact_triples = [
        Triple(IRI(f"{ns}f/s{rng.randrange(facts // 2)}"), bottom,
               IRI(f"{ns}f/o{i}"))
        for i in range(facts)
    ]
    triples += fact_triples

    # A class whose subtree holds fewer than 100 classes.
    small_level = max(1, depth - 5)
    small = range(2 ** small_level - 1, 2 ** (small_level + 1) - 1)

    def subtree(rng: random.Random) -> str:
        return f"?x rdfs:subClassOf <{node(rng.choice(small)).value}>"

    def chain_tail(rng: random.Random) -> str:
        k = rng.randrange(max(0, chain - 90), chain - 1)
        return f"<{ns}chain/n{k}> rdfs:subClassOf ?y"

    def class_times_edge(rng: random.Random) -> str:
        leaf = rng.choice(leaves).value
        return f"?x a <{node(1).value}> . ?x a <{leaf}>"

    def big_class_times_edge(rng: random.Random) -> str:
        leaf = rng.choice(leaves).value
        return f"?x a <{node(0).value}> . ?x a <{leaf}>"

    def fact_types(rng: random.Random) -> str:
        subject = rng.choice(fact_triples).subject.value
        return f"<{subject}> <{top.value}> ?o . <{subject}> a ?t"

    return Dataset(
        ruleset="rdfs-default",
        triples=triples,
        templates={
            "selective": [_types_of(instances), subtree, chain_tail,
                          _bound_subject(fact_triples),
                          _bound_object(fact_triples)],
            "scan": _centred(*_class_scan(
                [node(3).value, node(1).value, node(0).value])),
            "join": _centred(fact_types, class_times_edge,
                             big_class_times_edge),
        },
        http_scan=f"?x a <{node(1).value}>",
        link=bottom,
        link_domain=leaves[0],
        namespace=ns,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[float, int], Dataset]


def _scaled(count: int, scale: float, floor: int) -> int:
    return max(floor, round(count * scale))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "ingest-bsbm",
            "instance-heavy, shallow schema: parse, dictionary and commit "
            "own file-to-closure; rule firing is a sliver",
            lambda scale, seed: bsbm(_scaled(10000, scale, 60), seed),
        ),
        Workload(
            "closure-taxonomy",
            "12 k triples closing to 0.7 M: theta prepass, rule firing and "
            "the merge own file-to-closure; parse is small",
            taxonomy,
        ),
        Workload(
            "query-update-lubm",
            "RDFS-Plus closure read through the BGP evaluator and changed "
            "by small adds and deletes; rebuild-on-delete is the cost",
            lambda scale, seed: lubm(_scaled(500, scale, 10), seed),
        ),
        Workload(
            "serve-mixed-bsbm",
            "small store, so HTTP parse, thread hop, render, WAL fsync and "
            "checkpoint dominate each request, not the engine",
            lambda scale, seed: bsbm(_scaled(3000, scale, 60), seed),
        ),
    )
}
