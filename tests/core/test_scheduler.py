"""Unit tests for the rule scheduler: which rules fire, and in what order."""

import contextlib
from itertools import groupby
from operator import itemgetter
from unittest import mock

import pytest

import repro.core.engine as engine_module
import repro.rules.classes as classes_module

from repro.core.engine import InferrayEngine
from repro.core.store_api import StoreConfig
from repro.datasets.chains import (
    sameas_chain,
    subclass_chain,
    transitive_property_chain,
)
from repro.datasets.lubm import lubm_like
from repro.rdf.terms import IRI, Triple
from repro.rdf.vocabulary import OWL, RDF, RDFS
from repro.rules.classes import shaped_rule
from repro.rules.depgraph import ANY, rule_io
from repro.rules.rulesets import RULESET_NAMES, get_ruleset
from repro.rules.spec import Description, table_or_none


def contains(engine, triple):
    """Whether the engine's closure holds ``triple`` (its read view)."""
    return any(engine.query(*triple))


def ex(name):
    return IRI(f"ex:{name}")


INTRO = [
    Triple(ex("human"), RDFS.subClassOf, ex("mammal")),
    Triple(ex("mammal"), RDFS.subClassOf, ex("animal")),
    Triple(ex("Bart"), RDF.type, ex("human")),
]


def recording(rules, fired):
    """``rules`` with each firing appending the rule's name to ``fired``."""

    def wrap(rule):
        apply = rule.apply

        def recorded(ctx):
            fired.append(rule.name)
            apply(ctx)

        rule.apply = recorded
        return rule

    return [wrap(rule) for rule in rules]


def firing_log(engine, rules):
    """Per ``run_iteration`` call of the engine's scheduler, the names
    of the rules it fired (in firing order) and the properties with a
    table in its delta."""
    fired, log = [], []
    recording(rules, fired)
    run = engine.scheduler.run_iteration

    def logged(**kwargs):
        start = len(fired)
        outcome = run(**kwargs)
        log.append((fired[start:], set(kwargs["new"].property_ids())))
        return outcome

    engine.scheduler.run_iteration = logged
    return log


def reads_the_delta(engine, rule, tables):
    """The firing invariant: the body has a variable predicate, or a
    constant one with a table in the delta."""
    reads = rule_io(rule).reads
    return ANY in reads or any(
        engine.vocab[name] in tables for name in reads - {ANY}
    )


LISA_KNOWS = Triple(ex("Lisa"), ex("knows"), ex("Bart"))


def add_delete_and_log(ruleset):
    """A batch run, an add and a DRed delete, logged per iteration."""
    rules = get_ruleset(ruleset)
    engine = InferrayEngine(rules)
    log = firing_log(engine, rules)
    engine.load_triples(INTRO + [LISA_KNOWS])
    engine.materialize()
    engine.materialize_incremental([Triple(ex("Maggie"), RDF.type,
                                           ex("human"))])
    with mock.patch.object(engine_module, "DRED_MAX_OVERDELETE_SHARE", 1.0):
        stats = engine.retract_and_rematerialize([INTRO[2]])
    assert stats.deletion["route"] == "dred"
    return engine, rules, log


class TestRunIteration:
    @pytest.mark.parametrize("ruleset", RULESET_NAMES)
    def test_a_rule_fires_iff_its_body_reads_the_delta(self, ruleset):
        engine, rules, log = add_delete_and_log(ruleset)
        skipped = 0
        for fired, tables in log:
            expected = [
                rule.name for rule in rules
                if reads_the_delta(engine, rule, tables)
            ]
            assert sorted(fired) == sorted(expected)
            skipped += len(rules) - len(expected)
        # A delta of rdf:type rows alone skips every rule that reads
        # only schema tables.
        assert skipped > 0

    @pytest.mark.parametrize("ruleset", RULESET_NAMES)
    def test_inline_firing_keeps_catalogue_order(self, ruleset):
        engine, rules, log = add_delete_and_log(ruleset)
        names = [rule.name for rule in rules]
        for fired, _ in log:
            assert fired == [name for name in names if name in fired]
            assert len(set(fired)) == len(fired)


#: A LUBM-like ontology (sub-properties, domains, ranges, inverses)
#: with θ input for every ruleset: a subClassOf chain, a transitive
#: property and a sameAs chain.
SKIP_BASE = (
    lubm_like(1) + subclass_chain(6) + transitive_property_chain(5)
    + sameas_chain(3)
)
SKIP_ADDS = [
    Triple(ex("Maggie"), RDF.type, ex("human")),
    Triple(ex("human"), RDFS.subClassOf, ex("mammal")),
    Triple(ex("Maggie"), ex("knows"), ex("Bart")),
    Triple(ex("knows"), RDFS.domain, ex("human")),
]
#: Instance rows of non-transitive properties: a delete DRed keeps.
SKIP_VICTIMS = [
    t for t in SKIP_BASE if t.predicate.value.endswith(
        ("#takesCourse", "#memberOf", "#advisor")
    )
][::4]


def observed(engine, stats):
    """What the skip must not change: the stored tables, byte for
    byte, the per-rule counts and each iteration's (derived, new)."""
    tables = [(pid, flat.tobytes()) for pid, flat in engine.main.table_arrays()]
    iterations = [(record.derived, record.new)
                  for record in stats.per_iteration]
    return tables, dict(stats.per_rule), iterations, stats.deletion


class TestSkipDifferential:
    """Firing every rule every iteration (the filter patched away) and
    skipping the rules that read none of the delta close alike: a
    batch run, an incremental add and a delete, full and hybrid (whose
    reduced catalogue runs through the same filter)."""

    @staticmethod
    def runs(ruleset, mode, fire_all):
        engine = InferrayEngine(ruleset, materialize_mode=mode)
        if fire_all:
            for scheduler in (engine.scheduler, engine._reduced_scheduler):
                if scheduler is not None:
                    scheduler.reads = [frozenset({ANY})] * len(scheduler.rules)
        engine.load_triples(SKIP_BASE)
        with mock.patch.object(engine_module, "DRED_MAX_OVERDELETE_SHARE",
                               1.0):
            runs = {
                "batch": observed(engine, engine.materialize()),
                "add": observed(
                    engine, engine.materialize_incremental(SKIP_ADDS)
                ),
                "delete": observed(
                    engine, engine.retract_and_rematerialize(SKIP_VICTIMS)
                ),
            }
        return runs

    @pytest.mark.parametrize("mode", ("full", "hybrid"))
    @pytest.mark.parametrize("ruleset", RULESET_NAMES)
    def test_fire_all_and_skip_agree(self, ruleset, mode):
        skip = self.runs(ruleset, mode, fire_all=False)
        assert skip == self.runs(ruleset, mode, fire_all=True)
        route = "dred" if mode == "full" else "rebuild"
        assert skip["delete"][3]["route"] == route
        assert len(SKIP_VICTIMS) >= 4


#: A 50-triple add: SKIP_ADDS and facts over a property with a domain
#: and a range, so the γ rules' Δ legs meet several Δ tables.
DELTA_WALK_ADDS = SKIP_ADDS + [
    Triple(ex(f"w{i}"), IRI("http://example.org/lubm#takesCourse"),
           ex(f"course{i % 7}"))
    for i in range(50 - len(SKIP_ADDS))
]


def row_walk(rule, schema, data_store, ctx):
    """The reference pairing for ``SchemaRule._named``: every schema row
    in one sorted pass, grouped by the table it names, each table
    looked up in ``data_store``."""
    if rule.marker is not None:
        rows = [(pid, pid)
                for pid in sorted(schema.subjects_of(ctx.vocab[rule.marker]))]
    else:
        flat = (schema.os_pairs() if rule.source == 1
                else schema.pairs).tolist()
        if rule.target == rule.source:
            flat[1::2] = flat[0::2]
        rows = zip(flat[0::2], flat[1::2])
    for pid, named in groupby(rows, key=itemgetter(0)):
        table = table_or_none(data_store, pid)
        if table is not None:
            yield pid, table, [target for _, target in named]


class TestDeltaWalkDifferential:
    """A γ/δ leg walking the data store's tables (each table's schema
    rows looked up by key) closes like the reference walk over every
    schema row (patched in): a batch run, a 50-triple add and a DRed
    delete."""

    @staticmethod
    def runs(ruleset, mode, by_rows):
        engine = InferrayEngine(ruleset, materialize_mode=mode)
        engine.load_triples(SKIP_BASE)
        walk = (mock.patch.object(classes_module.SchemaRule, "_named",
                                  row_walk)
                if by_rows else contextlib.nullcontext())
        with mock.patch.object(engine_module, "DRED_MAX_OVERDELETE_SHARE",
                               1.0), walk:
            return {
                "batch": observed(engine, engine.materialize()),
                "add": observed(
                    engine, engine.materialize_incremental(DELTA_WALK_ADDS)
                ),
                "delete": observed(
                    engine, engine.retract_and_rematerialize(SKIP_VICTIMS)
                ),
            }

    @pytest.mark.parametrize("mode", ("full", "hybrid"))
    @pytest.mark.parametrize("ruleset", RULESET_NAMES)
    def test_table_walk_and_row_walk_agree(self, ruleset, mode):
        by_tables = self.runs(ruleset, mode, False)
        assert by_tables == self.runs(ruleset, mode, True)
        route = "dred" if mode == "full" else "rebuild"
        assert by_tables["delete"][3]["route"] == route
        assert len(DELTA_WALK_ADDS) == 50

    @pytest.mark.parametrize("walks_rows", (False, True))
    def test_marker_and_kept_predicate_rules(self, walks_rows):
        # Three marked properties and three inverseOf rows against a Δ
        # of two tables, walked by table or (patched in) by row.  The
        # second rule's head keeps the named table (?p both ways).
        rules = [
            shaped_rule("SYMP", Description.of(
                "?p type SymmetricProperty . ?x ?p ?y", "?y ?p ?x")),
            shaped_rule("KEEP", Description.of(
                "?p inverseOf ?q . ?x ?p ?y", "?y ?p ?x")),
        ]
        engine = InferrayEngine(rules)
        engine.load_triples(
            [Triple(ex(p), RDF.type, OWL.SymmetricProperty)
             for p in ("knows", "likes", "sees")]
            + [Triple(ex(f"p{i}"), OWL.inverseOf, ex(f"q{i}"))
               for i in range(3)]
        )
        engine.materialize()
        adds = [Triple(ex("a"), ex("knows"), ex("b")),
                Triple(ex("c"), ex("p1"), ex("d"))]
        with (mock.patch.object(classes_module.SchemaRule, "_named", row_walk)
              if walks_rows else contextlib.nullcontext()):
            engine.materialize_incremental(adds)
        closure = set(engine.triples())
        assert {Triple(ex("b"), ex("knows"), ex("a")),
                Triple(ex("d"), ex("p1"), ex("c"))} <= closure
        assert len(closure) == 6 + 4


class TestEngineIntegration:
    def test_closure_and_stats(self):
        engine = InferrayEngine("rdfs-default")
        engine.load_triples(INTRO)
        stats = engine.materialize()
        assert contains(engine, Triple(ex("Bart"), RDF.type, ex("animal")))
        assert stats.per_rule_seconds  # per-rule timings populated

    def test_repeated_materializations_reuse_scheduler(self):
        engine = InferrayEngine("rdfs-default")
        scheduler = engine.scheduler
        engine.load_triples(INTRO[:1])
        engine.materialize()
        engine.load_triples(INTRO[1:])
        engine.materialize()
        engine.materialize_incremental(
            [Triple(ex("Maggie"), RDF.type, ex("human"))]
        )
        assert engine.scheduler is scheduler
        assert contains(engine,
            Triple(ex("Maggie"), RDF.type, ex("animal"))
        )


class TestRetiredExecutorKeywords:
    """The engine still takes ``parallel_mode`` for the pipeline
    ledger (tests/core/test_ledger_pinned_calls.py), but only the
    values it used to accept."""

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="parallel mode"):
            InferrayEngine(
                "rdfs-default", workers=2, parallel_mode="fibers"
            )

    def test_process_mode_is_rejected(self):
        with pytest.raises(ValueError, match="parallel mode 'process'"):
            InferrayEngine(
                "rdfs-default", workers=2, parallel_mode="process"
            )

    def test_auto_mode_is_rejected(self):
        with pytest.raises(ValueError, match="parallel mode 'auto'"):
            InferrayEngine("rdfs-default", workers=2, parallel_mode="auto")

    def test_store_takes_no_executor_keywords(self):
        with pytest.raises(TypeError, match="workers"):
            StoreConfig(workers=2)
        with pytest.raises(TypeError, match="parallel_mode"):
            StoreConfig(parallel_mode="thread")
