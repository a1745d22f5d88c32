"""Per-rule cases generated from the Table-5 descriptions.

For each of the 38 catalogue entries, fired alone on every available
kernel backend, with each body variable given a fresh IRI:

* positive — the grounded body derives every grounded head atom;
* near miss — with any one body atom dropped, no head atom is derived;
* boundary — with every variable bound to one IRI (the self-loop), the
  closure equals the hash-join oracle's.

The cases read only the descriptions; the hand-written conformance
fixtures stay the check that does not.
"""

import pytest

from repro.baselines.hashjoin import HashJoinEngine
from repro.core.engine import InferrayEngine
from repro.kernels import numpy_available
from repro.rdf.terms import IRI, Triple
from repro.rules.spec import Vocab, is_var
from repro.rules.table5 import TABLE5, make_rules

BACKENDS = ["python", "compressed"] + (["numpy"] if numpy_available() else [])

#: Vocab name → the term it resolves.
TERMS = {**Vocab._PROPERTY_TERMS, **Vocab._RESOURCE_TERMS}

NAMES = [entry.name for entry in TABLE5]


def ground(atoms, iri_of):
    return [
        Triple(*(iri_of(t) if is_var(t) else TERMS[t] for t in atom))
        for atom in atoms
    ]


def fresh(var):
    return IRI(f"http://example.org/gen/{var[1:]}")


def self_loop(var):
    return IRI("http://example.org/gen/a")


def closure(name, backend, triples):
    engine = InferrayEngine(make_rules([name]), backend=backend)
    engine.load_triples(triples)
    engine.materialize()
    return set(engine.triples())


def description(name):
    return next(e.description for e in TABLE5 if e.name == name)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", NAMES)
def test_body_derives_head(name, backend):
    rule = description(name)
    derived = closure(name, backend, ground(rule.body, fresh))
    for head in ground(rule.head, fresh):
        assert head in derived, head


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", NAMES)
def test_body_without_one_atom_derives_no_head(name, backend):
    rule = description(name)
    heads = ground(rule.head, fresh)
    for dropped in range(len(rule.body)):
        body = rule.body[:dropped] + rule.body[dropped + 1:]
        derived = closure(name, backend, ground(body, fresh))
        assert not derived & set(heads), (dropped, derived & set(heads))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", NAMES)
def test_self_loop_matches_oracle(name, backend):
    triples = ground(description(name).body, self_loop)
    oracle = HashJoinEngine([name])
    oracle.load_triples(triples)
    oracle.materialize()
    assert closure(name, backend, triples) == oracle.as_decoded_set()
