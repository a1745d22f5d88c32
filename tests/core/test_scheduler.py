"""Unit tests for the parallel rule scheduler and worker resolution."""

import contextlib
import threading
from itertools import groupby
from operator import itemgetter
from unittest import mock

import pytest

import repro.core.engine as engine_module
import repro.rules.classes as classes_module

from repro.core.engine import (
    FixedPointError,
    InferrayEngine,
    MaterializationTimeout,
)
from repro.core.scheduler import ParallelRuleScheduler, resolve_workers
from repro.core.store_api import Store, StoreConfig
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
from repro.rules.spec import Description, Rule, table_or_none
from repro.rules.table5 import BY_NAME


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


class TestResolveWorkers:
    def test_default_is_sequential(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(2) == 2

    def test_zero_means_all_cores(self):
        import os

        assert resolve_workers(0) == (os.cpu_count() or 1)
        assert resolve_workers(-1) == (os.cpu_count() or 1)

    def test_env_zero_means_all_cores(self, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert resolve_workers(None) == (os.cpu_count() or 1)

    # A stray shell export must never crash or oversubscribe an engine:
    # env values are sanitized with a warning, explicit API values are
    # trusted (test matrices pin exact counts).
    def test_bad_env_value_warns_and_runs_sequentially(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.warns(RuntimeWarning, match="REPRO_WORKERS"):
            assert resolve_workers(None) == 1

    def test_negative_env_value_warns_and_uses_all_cores(self, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_WORKERS", "-3")
        with pytest.warns(RuntimeWarning, match="negative"):
            assert resolve_workers(None) == (os.cpu_count() or 1)

    def test_oversubscribing_env_value_warns_and_clamps(self, monkeypatch):
        import os

        cores = os.cpu_count() or 1
        monkeypatch.setenv("REPRO_WORKERS", str(cores * 4 + 1))
        with pytest.warns(RuntimeWarning, match="oversubscribe"):
            assert resolve_workers(None) == cores * 4

    def test_env_value_at_the_ceiling_passes_unclamped(self, monkeypatch):
        import os
        import warnings

        cores = os.cpu_count() or 1
        monkeypatch.setenv("REPRO_WORKERS", str(cores * 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_workers(None) == cores * 4

    def test_absurd_env_value_still_materializes(self, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_WORKERS", str((os.cpu_count() or 1) * 100))
        with pytest.warns(RuntimeWarning, match="clamping"):
            engine = InferrayEngine("rdfs-default")
        engine.load_triples(INTRO)
        engine.materialize()
        assert contains(engine, Triple(ex("Bart"), RDF.type, ex("animal")))


class TestSchedulerStructure:
    def test_session_sequential_yields_no_executor(self):
        scheduler = ParallelRuleScheduler(get_ruleset("rho-df"), workers=1)
        with scheduler.session() as executor:
            assert executor is None
        assert scheduler.mode == "sequential"

    def test_session_parallel_yields_executor(self):
        scheduler = ParallelRuleScheduler(get_ruleset("rho-df"), workers=3)
        assert scheduler.mode == "thread"
        with scheduler.session() as executor:
            assert executor is not None
            assert executor.submit(lambda: 41 + 1).result() == 42
        scheduler.close()


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


def add_delete_and_log(ruleset, workers):
    """A batch run, an add and a DRed delete, logged per iteration."""
    rules = get_ruleset(ruleset)
    engine = InferrayEngine(rules, workers=workers)
    log = firing_log(engine, rules)
    engine.load_triples(INTRO + [LISA_KNOWS])
    try:
        engine.materialize()
        engine.materialize_incremental([Triple(ex("Maggie"), RDF.type,
                                               ex("human"))])
        with mock.patch.object(engine_module, "DRED_MAX_OVERDELETE_SHARE",
                               1.0):
            stats = engine.retract_and_rematerialize([INTRO[2]])
    finally:
        engine.close()
    assert stats.deletion["route"] == "dred"
    return engine, rules, log


class TestRunIteration:
    @pytest.mark.parametrize("ruleset", RULESET_NAMES)
    @pytest.mark.parametrize("workers", (1, 2))
    def test_a_rule_fires_iff_its_body_reads_the_delta(self, workers,
                                                       ruleset):
        engine, rules, log = add_delete_and_log(ruleset, workers)
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
        engine, rules, log = add_delete_and_log(ruleset, 1)
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
            for scheduler in engine.schedulers:
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
    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_closure_and_stats(self, workers):
        engine = InferrayEngine("rdfs-default", workers=workers)
        engine.load_triples(INTRO)
        stats = engine.materialize()
        assert contains(engine, Triple(ex("Bart"), RDF.type, ex("animal")))
        assert stats.workers == workers
        assert stats.per_rule_seconds  # per-rule timings populated
        assert stats.rule_busy_seconds > 0
        assert stats.parallel_speedup > 0

    def test_byte_identical_tables_across_worker_counts(self):
        reference = None
        for workers in (1, 2, 4):
            engine = InferrayEngine("rdfs-plus", workers=workers)
            engine.load_triples(subclass_chain(20))
            engine.materialize()
            tables = [
                (pid, bytes(flat.tobytes()))
                for pid, flat in engine.main.table_arrays()
            ]
            if reference is None:
                reference = tables
            else:
                assert tables == reference

    def test_idempotent_noop_keeps_worker_fields(self):
        engine = InferrayEngine("rdfs-default", workers=2)
        engine.load_triples(INTRO)
        engine.materialize()
        again = engine.materialize()
        assert again.iterations == 0
        assert again.workers == 2

    def test_pool_fires_every_rule_of_an_iteration_at_once(self):
        # SCM-SCO feeds CAX-SCO but not the other way round; still, both
        # read the same snapshot, so the pool must run them together:
        # each waits for the other inside its firing.
        barrier = threading.Barrier(2, timeout=3)

        class Rendezvous(Rule):
            def apply(self, ctx):
                barrier.wait()

        rules = [
            Rendezvous(name, [BY_NAME[name].description])
            for name in ("SCM-SCO", "CAX-SCO")
        ]
        engine = InferrayEngine(rules, workers=2)
        engine.load_triples(INTRO)
        try:
            stats = engine.materialize()
        finally:
            engine.close()
        assert stats.iterations == 1
        assert not barrier.broken

    def test_repeated_materializations_reuse_scheduler(self):
        engine = InferrayEngine("rdfs-default", workers=2)
        engine.load_triples(INTRO[:1])
        engine.materialize()
        engine.load_triples(INTRO[1:])
        engine.materialize()
        engine.materialize_incremental(
            [Triple(ex("Maggie"), RDF.type, ex("human"))]
        )
        assert contains(engine,
            Triple(ex("Maggie"), RDF.type, ex("animal"))
        )

    def test_engine_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        engine = InferrayEngine("rdfs-default")
        assert engine.workers == 2


class TestErrorMessagesCarryWorkerCount:
    @pytest.mark.parametrize("workers", (1, 3))
    def test_fixed_point_error(self, workers):
        engine = InferrayEngine(
            "rdfs-default", max_iterations=0, workers=workers
        )
        engine.load_triples(INTRO)
        with pytest.raises(FixedPointError, match=f"workers={workers}"):
            engine.materialize()

    @pytest.mark.parametrize("workers", (1, 3))
    def test_timeout_error(self, workers):
        engine = InferrayEngine("rdfs-default", workers=workers)
        engine.load_triples(subclass_chain(50))
        with pytest.raises(
            MaterializationTimeout, match=f"workers={workers}"
        ):
            engine.materialize(timeout_seconds=-1.0)

    def test_incremental_timeout_error(self):
        engine = InferrayEngine("rdfs-default", workers=2)
        engine.load_triples(INTRO)
        engine.materialize()
        with pytest.raises(MaterializationTimeout, match="workers=2"):
            engine.materialize_incremental(
                subclass_chain(50), timeout_seconds=-1.0
            )


class TestParallelModeSelection:
    def test_sequential_reports_sequential(self):
        engine = InferrayEngine("rdfs-default", workers=1)
        assert engine.parallel_mode == "sequential"

    def test_explicit_mode_is_honoured(self):
        engine = InferrayEngine(
            "rdfs-default", backend="python", workers=2,
            parallel_mode="thread",
        )
        assert engine.parallel_mode == "thread"
        engine.load_triples(INTRO)
        stats = engine.materialize()
        assert stats.parallel_mode == "thread"
        assert contains(engine, Triple(ex("Bart"), RDF.type, ex("animal")))
        engine.close()

    # workers alone picks the executor: the pool runs however small
    # the store and whatever the kernel backend.
    @pytest.mark.parametrize("backend", ("numpy", "python", "compressed"))
    def test_workers_alone_picks_the_thread_pool(self, backend):
        engine = InferrayEngine("rdfs-default", backend=backend, workers=2)
        assert engine.parallel_mode == "thread"
        engine.load_triples(INTRO)
        stats = engine.materialize()
        assert stats.parallel_mode == "thread"
        assert engine.scheduler.thread_pool is not None
        assert contains(engine, Triple(ex("Bart"), RDF.type, ex("animal")))
        engine.close()

    def test_thread_mode_changes_nothing_at_one_worker(self):
        engine = InferrayEngine(
            "rdfs-default", workers=1, parallel_mode="thread"
        )
        engine.load_triples(INTRO)
        assert engine.materialize().parallel_mode == "sequential"
        assert engine.scheduler.thread_pool is None

    # ... and one worker never starts it, whatever the backend.
    @pytest.mark.parametrize("backend", ("numpy", "python", "compressed"))
    def test_one_worker_never_starts_the_pool(self, backend):
        engine = InferrayEngine("rdfs-default", backend=backend, workers=1)
        engine.load_triples(subclass_chain(30))
        stats = engine.materialize()
        assert stats.parallel_mode == "sequential"
        assert engine.parallel_mode == "sequential"
        assert engine.scheduler.thread_pool is None

    def test_mode_is_known_before_the_first_run(self):
        # No estimate to wait for: the mode follows from workers at
        # construction, while the pool itself starts lazily.
        engine = InferrayEngine("rdfs-default", workers=2)
        assert engine.parallel_mode == "thread"
        assert engine.scheduler.thread_pool is None
        engine.load_triples(INTRO)
        engine.materialize()
        assert engine.scheduler.thread_pool is not None
        engine.close()

    def test_env_workers_picks_the_thread_pool(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        engine = InferrayEngine("rdfs-default")
        assert engine.parallel_mode == "thread"
        engine.load_triples(INTRO)
        assert engine.materialize().parallel_mode == "thread"
        engine.close()

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


class TestStoreIntegration:
    def test_store_config_threads_workers(self):
        store = Store(INTRO, config=StoreConfig(workers=2))
        assert Triple(ex("Bart"), RDF.type, ex("animal")) in store
        assert store.engine.workers == 2
        assert store.stats.workers == 2

    def test_store_kwarg_threads_workers(self):
        store = Store(INTRO, workers=3)
        assert store.engine.workers == 3
        assert store.n_triples > len(INTRO)

    def test_parallel_store_roundtrips_persistence(self, tmp_path):
        path = str(tmp_path / "closure.store")
        store = Store(INTRO, workers=2)
        store.save(path)
        reloaded = Store.load(path, workers=4)
        assert reloaded.engine.workers == 4
        assert set(reloaded.triples()) == set(store.triples())

    def test_store_config_threads_parallel_mode(self):
        store = Store(
            INTRO,
            config=StoreConfig(backend="python", workers=2),
        )
        assert store.engine.parallel_mode == "thread"
        assert Triple(ex("Bart"), RDF.type, ex("animal")) in store
        assert store.stats.parallel_mode == "thread"
        store.close()

    @pytest.mark.parametrize(
        "workers, mode", ((1, "sequential"), (2, "thread"))
    )
    def test_loaded_store_mode_follows_workers(self, tmp_path, workers, mode):
        path = str(tmp_path / "closure.store")
        Store(INTRO).save(path)
        with Store.load(path, workers=workers) as reloaded:
            assert reloaded.engine.parallel_mode == mode
            reloaded.add([Triple(ex("Lisa"), RDF.type, ex("human"))])
            assert reloaded.materialize().parallel_mode == mode
            assert Triple(ex("Lisa"), RDF.type, ex("animal")) in reloaded

    def test_store_takes_no_parallel_mode(self):
        with pytest.raises(TypeError, match="parallel_mode"):
            StoreConfig(workers=2, parallel_mode="thread")

    def test_store_kwarg_threads_parallel_mode(self):
        store = Store(INTRO, workers=2)
        assert store.engine.parallel_mode == "thread"
        assert store.n_triples > len(INTRO)
        store.close()
