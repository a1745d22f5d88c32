"""``derivable`` against a brute-force one-step evaluation.

The oracle joins every description's body over the store triple by
triple, with the inequalities, and keeps the head rows that are
candidates.  ``derivable`` must return exactly that set: each derivable
candidate at least once, and nothing else.
"""

import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.core.engine import InferrayEngine
from repro.rdf.terms import IRI, Triple
from repro.rdf.vocabulary import RDF, RDFS
from repro.rules.derivation import derivable
from repro.rules.rulesets import RULESET_NAMES
from repro.rules.spec import Description, Rule, is_var
from repro.store.triple_store import TripleStore

BACKENDS = ["numpy", "compressed", "python"]

_spec = importlib.util.spec_from_file_location(
    "incremental_property",
    Path(__file__).parents[1] / "integration" / "test_incremental_property.py",
)
_incremental = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_incremental)
schema_and_data = _incremental.schema_and_data


def ex(name):
    return IRI(f"ex:{name}")


def one_step(descriptions, vocab, triples):
    """Every head row a description derives from ``triples`` in one
    step, by nested loops over the triples."""
    out = set()

    def value(term, binding):
        return binding[term] if is_var(term) else vocab[term]

    def solve(description, atoms, binding):
        if not atoms:
            if all(value(left, binding) != value(right, binding)
                   for left, right in description.not_equal):
                out.update(
                    tuple(value(term, binding) for term in atom)
                    for atom in description.head
                )
            return
        for row in triples:
            extended = dict(binding)
            for term, id_ in zip(atoms[0], row):
                if not is_var(term):
                    if vocab[term] != id_:
                        break
                elif extended.setdefault(term, id_) != id_:
                    break
            else:
                solve(description, atoms[1:], extended)

    for description in descriptions:
        solve(description, description.body, {})
    return out


def derived(buffers):
    """The (s, p, o) rows of ``derivable``'s output, as a set."""
    rows = set()
    for pid, chunks in buffers.chunk_items():
        for chunk in chunks:
            values = list(chunk.tolist())
            rows.update((s, pid, o) for s, o in zip(values[0::2], values[1::2]))
    return rows


def store_of(engine, rows):
    store = TripleStore(backend=engine.kernels)
    store.add_encoded(rows)
    return store


def check(engine, rules, candidates, store_rows):
    """``derivable`` ≡ the oracle for ``candidates`` over ``store_rows``."""
    descriptions = [d for rule in rules for d in rule.descriptions]
    expected = one_step(descriptions, engine.vocab, store_rows)
    got = derived(derivable(rules, engine.vocab, store_of(engine, candidates),
                            store_of(engine, store_rows)))
    assert got == expected & set(candidates)
    return got


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("ruleset", RULESET_NAMES)
def test_matches_one_step_oracle(ruleset, backend):
    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(schema_and_data())
    def run(triples):
        engine = InferrayEngine(ruleset, backend=backend)
        engine.load_triples(triples)
        engine.materialize()
        closure = sorted(engine.main.triples())
        rng = random.Random(len(closure))
        # DRed's shape: part of the closure gone from the store, and
        # asked for again; plus rows nothing derives.
        store_rows = [row for row in closure if rng.random() < 0.7]
        candidates = [row for row in closure if rng.random() < 0.5]
        ids = sorted({term for row in closure for term in row[::2]})
        candidates += [(s, row[1], o) for row in closure[:3]
                       for s, o in zip(ids, ids[::-1])]
        check(engine, engine.rules, candidates, store_rows)

    run()


def encoded(triples, extra=()):
    """An engine that has numbered every term of ``triples`` and
    ``extra``, and the id rows of ``triples`` and of ``extra``."""
    engine = InferrayEngine("rdfs-default")
    engine.load_triples(list(triples) + list(extra))
    ids = engine.dictionary.ids_of
    return engine, [ids(t) for t in triples], [ids(t) for t in extra]


def test_proven_only_by_the_last_of_three_groups():
    # q has three sub-properties; ⟨a q b⟩ holds only through the one
    # whose table is read last, ⟨c q d⟩ through the first too, so it is
    # dropped before the later groups are read; ⟨e q f⟩ through none.
    subs = [ex(f"p{i}") for i in range(3)]
    schema = [Triple(p, RDFS.subPropertyOf, ex("q")) for p in subs]
    facts = [Triple(ex(s), p, ex(o)) for p in subs
             for s, o in (("a", "b"), ("c", "d"))]
    asked = [Triple(ex(s), ex("q"), ex(o))
             for s, o in (("a", "b"), ("c", "d"), ("e", "f"))]
    engine, rows, candidates = encoded(schema + facts, asked)
    first, *_, last = sorted(subs, key=engine.dictionary.id_of)
    kept = {Triple(ex("a"), last, ex("b")), Triple(ex("c"), first, ex("d")),
            Triple(ex("c"), last, ex("d"))}
    store_rows = rows[:len(schema)] + [
        row for t, row in zip(facts, rows[len(schema):]) if t in kept
    ]
    rules = [r for r in engine.rules if r.name == "PRP-SPO1"]
    assert check(engine, rules, candidates, store_rows) == set(candidates[:2])


def test_domain_proven_by_the_last_group():
    props = [ex(f"p{i}") for i in range(4)]
    schema = [Triple(p, RDFS.domain, ex("C")) for p in props]
    facts = [Triple(ex("a"), p, ex("b")) for p in props]
    asked = [Triple(ex("a"), RDF.type, ex("C")),
             Triple(ex("b"), RDF.type, ex("C"))]
    engine, rows, candidates = encoded(schema + facts, asked)
    last = max(props, key=engine.dictionary.id_of)
    store_rows = rows[:len(schema)] + [rows[len(schema) + props.index(last)]]
    rules = [r for r in engine.rules if r.name == "PRP-DOM"]
    assert check(engine, rules, candidates, store_rows) == {candidates[0]}


class _Described(Rule):
    """A rule that is only its description (``derivable`` reads no more)."""

    def __init__(self, body, head, not_equal=()):
        super().__init__("custom", [Description.of(body, head, not_equal)])


def test_inequality_is_checked_before_a_candidate_counts_as_proven():
    # ⟨a pᵢ a⟩ joins in every property but breaks ?x ≠ ?y; a holds only
    # through ⟨a p z⟩ in the table read last, and b has the loop only.
    props = [ex(f"p{i}") for i in range(4)]
    rule = _Described("?x ?p ?y", "?x type Resource", [("?x", "?y")])
    loops = [Triple(ex("a"), p, ex("a")) for p in props]
    loops.append(Triple(ex("b"), props[0], ex("b")))
    links = [Triple(ex("a"), p, ex("z")) for p in props]
    asked = [Triple(ex(s), RDF.type, RDFS.Resource) for s in ("a", "b", "z")]
    engine, rows, candidates = encoded(loops + links, asked)
    # ?p is unbound: the tables are read in the store's property order.
    order = store_of(engine, rows[:len(loops)]).property_ids()
    last = max(props, key=lambda p: order.index(engine.dictionary.id_of(p)))
    store_rows = rows[:len(loops)] + [rows[len(loops) + props.index(last)]]
    assert check(engine, [rule], candidates, store_rows) == {candidates[0]}


def test_one_variable_as_subject_and_object():
    # ⟨?x ?p ?x⟩: a row filter on ⟨x, x⟩ in every property's table.
    rule = _Described("?x ?p ?x", "?x type Resource")
    facts = [Triple(ex("a"), ex("p0"), ex("b")),
             Triple(ex("a"), ex("p2"), ex("a")),
             Triple(ex("b"), ex("p1"), ex("a")),
             Triple(ex("c"), ex("p1"), ex("c"))]
    asked = [Triple(ex(s), RDF.type, RDFS.Resource) for s in ("a", "b", "c")]
    engine, store_rows, candidates = encoded(facts, asked)
    assert check(engine, [rule], candidates, store_rows) == {
        candidates[0], candidates[2]
    }


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_candidates_derive_nothing(backend):
    engine = InferrayEngine("rdfs-plus", backend=backend)
    engine.load_triples([Triple(ex("a"), RDF.type, ex("C")),
                         Triple(ex("C"), RDFS.subClassOf, ex("D"))])
    engine.materialize()
    empty = TripleStore(backend=engine.kernels)
    assert not derivable(engine.rules, engine.vocab, empty, engine.main)
