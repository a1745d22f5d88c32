"""Unit tests for the parallel rule scheduler and worker resolution."""

import pytest

from repro.core.engine import (
    FixedPointError,
    InferrayEngine,
    MaterializationTimeout,
)
from repro.core.scheduler import ParallelRuleScheduler, resolve_workers
from repro.core.store_api import Store, StoreConfig
from repro.datasets.chains import subclass_chain
from repro.rdf.terms import IRI, Triple
from repro.rdf.vocabulary import RDF, RDFS
from repro.rules.rulesets import get_ruleset
from repro.rules.table5 import make_rules


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
        assert engine.contains(Triple(ex("Bart"), RDF.type, ex("animal")))


class TestSchedulerStructure:
    def test_waves_cover_all_rules(self):
        scheduler = ParallelRuleScheduler(get_ruleset("rdfs-plus"))
        indexes = sorted(i for wave in scheduler.waves for i in wave)
        assert indexes == list(range(len(scheduler.rules)))

    def test_wave_names(self):
        scheduler = ParallelRuleScheduler(
            make_rules(["SCM-SCO", "CAX-SCO"])
        )
        assert scheduler.wave_names() == [["SCM-SCO"], ["CAX-SCO"]]

    def test_session_sequential_yields_no_executor(self):
        scheduler = ParallelRuleScheduler(get_ruleset("rho-df"), workers=1)
        with scheduler.session() as executor:
            assert executor is None
        assert scheduler.effective_mode == "sequential"

    def test_session_parallel_yields_executor(self):
        scheduler = ParallelRuleScheduler(
            get_ruleset("rho-df"), workers=3, mode="thread"
        )
        assert scheduler.effective_mode == "thread"
        with scheduler.session() as executor:
            assert executor is not None
            assert executor.submit(lambda: 41 + 1).result() == 42

    def test_standalone_process_scheduler_falls_back_to_threads(self):
        # Built without vocab= (the engine provides it), a cost-model
        # process pick degrades to threads instead of failing the
        # materialization — and the fallback is sticky: the next
        # decision stops proposing the broken substrate.
        from repro.kernels import get_backend

        scheduler = ParallelRuleScheduler(
            get_ruleset("rho-df"),
            workers=2,
            mode="auto",  # not None: $REPRO_PARALLEL_MODE may force one
            kernels=get_backend("python"),
            cores=4,
            process_crossover=0,
        )
        decision = scheduler.decide()
        assert decision.mode == "process"
        with pytest.warns(RuntimeWarning, match="falling back to threads"):
            with scheduler.session(decision) as executor:
                assert executor is not None
        assert decision.mode == "thread"
        assert decision.fallback and "vocab" in decision.fallback
        assert scheduler.effective_mode == "thread"
        assert scheduler.decide().mode == "thread"  # sticky
        scheduler.close()

    def test_forced_process_without_vocab_raises(self):
        from repro.core.parallel import ProcessModeUnavailable

        scheduler = ParallelRuleScheduler(
            get_ruleset("rho-df"), workers=2, mode="process"
        )
        with pytest.raises(ProcessModeUnavailable, match="vocab"):
            with scheduler.session():
                pass  # pragma: no cover


class TestEngineIntegration:
    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_closure_and_stats(self, workers):
        engine = InferrayEngine("rdfs-default", workers=workers)
        engine.load_triples(INTRO)
        stats = engine.materialize()
        assert engine.contains(Triple(ex("Bart"), RDF.type, ex("animal")))
        assert stats.workers == workers
        assert stats.n_waves == 1  # rdfs-default is one recursive wave
        assert stats.per_rule_seconds  # per-rule timings populated
        assert stats.rule_busy_seconds > 0
        assert stats.parallel_speedup > 0
        assert len(stats.per_wave_seconds) == stats.n_waves

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
        assert again.n_waves == 1

    def test_repeated_materializations_reuse_scheduler(self):
        engine = InferrayEngine("rdfs-default", workers=2)
        engine.load_triples(INTRO[:1])
        engine.materialize()
        engine.load_triples(INTRO[1:])
        engine.materialize()
        engine.materialize_incremental(
            [Triple(ex("Maggie"), RDF.type, ex("human"))]
        )
        assert engine.contains(
            Triple(ex("Maggie"), RDF.type, ex("animal"))
        )

    def test_tracer_forces_sequential(self):
        from repro.memsim.tracer import NullTracer

        engine = InferrayEngine(
            "rdfs-default", tracer=NullTracer(), workers=4
        )
        assert engine.workers == 1

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

    @pytest.mark.parametrize("mode", ("thread", "process"))
    def test_explicit_mode_is_honoured(self, mode):
        engine = InferrayEngine(
            "rdfs-default", backend="python", workers=2, parallel_mode=mode
        )
        assert engine.parallel_mode == mode
        engine.load_triples(INTRO)
        stats = engine.materialize()
        assert stats.parallel_mode == mode
        assert engine.contains(Triple(ex("Bart"), RDF.type, ex("animal")))

    def test_auto_is_undecided_before_the_first_run(self):
        engine = InferrayEngine(
            "rdfs-default", backend="python", workers=2, parallel_mode="auto"
        )
        assert engine.parallel_mode == "auto"

    def test_auto_picks_sequential_below_the_crossover(self, monkeypatch):
        # INTRO is tiny: no substrate can amortize its overhead, so
        # auto must refuse parallelism even with cores available.
        monkeypatch.setenv("REPRO_PARALLEL_CORES", "4")
        engine = InferrayEngine(
            "rdfs-default", backend="python", workers=2, parallel_mode="auto"
        )
        engine.load_triples(INTRO)
        stats = engine.materialize()
        assert stats.parallel_mode == "sequential"
        assert stats.parallel_decision["requested"] == "auto"
        assert stats.parallel_decision["estimated_pairs"] is not None
        assert "crossover" in stats.parallel_decision["reason"]

    def test_auto_picks_sequential_on_one_core(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_CORES", "1")
        monkeypatch.setenv("REPRO_PROCESS_CROSSOVER", "0")
        engine = InferrayEngine(
            "rdfs-default", backend="python", workers=4, parallel_mode="auto"
        )
        engine.load_triples(INTRO)
        stats = engine.materialize()
        assert stats.parallel_mode == "sequential"
        assert "core" in stats.parallel_decision["reason"]

    def test_auto_picks_process_for_python_backend_above_crossover(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_PARALLEL_CORES", "4")
        monkeypatch.setenv("REPRO_PROCESS_CROSSOVER", "0")
        engine = InferrayEngine(
            "rdfs-default", backend="python", workers=2, parallel_mode="auto"
        )
        engine.load_triples(INTRO)
        stats = engine.materialize()
        assert stats.parallel_mode == "process"
        assert stats.parallel_fallback is None
        engine.close()

    def test_auto_picks_thread_for_numpy_backend_above_crossover(
        self, monkeypatch
    ):
        from repro.kernels import numpy_available

        if not numpy_available():
            pytest.skip("numpy backend unavailable")
        monkeypatch.setenv("REPRO_PARALLEL_CORES", "4")
        monkeypatch.setenv("REPRO_THREAD_CROSSOVER", "0")
        engine = InferrayEngine(
            "rdfs-default", backend="numpy", workers=2, parallel_mode="auto"
        )
        engine.load_triples(INTRO)
        stats = engine.materialize()
        assert stats.parallel_mode == "thread"
        engine.close()

    def test_auto_never_picks_threads_for_the_python_backend(
        self, monkeypatch
    ):
        # Threads cannot beat sequential under the GIL: below the
        # process crossover the python backend runs sequentially even
        # when the thread crossover is cleared.
        monkeypatch.setenv("REPRO_PARALLEL_CORES", "4")
        monkeypatch.setenv("REPRO_THREAD_CROSSOVER", "0")
        engine = InferrayEngine(
            "rdfs-default", backend="python", workers=2, parallel_mode="auto"
        )
        engine.load_triples(INTRO)
        stats = engine.materialize()
        assert stats.parallel_mode == "sequential"

    def test_auto_doubles_crossovers_for_compressed_backend(
        self, monkeypatch
    ):
        # Block decode makes each pair roughly twice as expensive to
        # touch, so the compressed backend stays sequential up to twice
        # the configured crossover — the reason string says so (on the
        # numpy codec; the pure-Python one is weighed against the
        # process crossover and words it differently).
        from repro.kernels import numpy_available

        if not numpy_available():
            pytest.skip("numpy backend unavailable")
        monkeypatch.setenv("REPRO_PARALLEL_CORES", "4")
        engine = InferrayEngine(
            "rdfs-default",
            backend="compressed",
            workers=2,
            parallel_mode="auto",
        )
        engine.load_triples(INTRO)
        stats = engine.materialize()
        assert stats.parallel_mode == "sequential"
        assert "doubled for compressed-block decode cost" in (
            stats.parallel_decision["reason"]
        )

    def test_auto_compressed_over_numpy_picks_threads(self, monkeypatch):
        from repro.kernels import numpy_available

        if not numpy_available():
            pytest.skip("numpy inner backend unavailable")
        monkeypatch.setenv("REPRO_PARALLEL_CORES", "4")
        monkeypatch.setenv("REPRO_THREAD_CROSSOVER", "0")
        engine = InferrayEngine(
            "rdfs-default",
            backend="compressed",
            workers=2,
            parallel_mode="auto",
        )
        engine.load_triples(INTRO)
        stats = engine.materialize()
        # Decode windows run on the GIL-releasing numpy inner backend,
        # so threads are viable just like for plain numpy.
        assert stats.parallel_mode == "thread"
        assert "decompressed windows run on 'numpy'" in (
            stats.parallel_decision["reason"]
        )
        engine.close()

    def test_auto_compressed_over_python_picks_process(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_CORES", "4")
        monkeypatch.setenv("REPRO_KERNELS_DISABLE_NUMPY", "1")
        monkeypatch.setenv("REPRO_THREAD_CROSSOVER", "0")
        monkeypatch.setenv("REPRO_PROCESS_CROSSOVER", "0")
        engine = InferrayEngine(
            "rdfs-default",
            backend="compressed",
            workers=2,
            parallel_mode="auto",
        )
        assert engine.kernels.inner_name == "python"
        engine.load_triples(INTRO)
        stats = engine.materialize()
        # Pure-python decode serializes under the GIL: thread mode is
        # never an option, the process pool is.
        assert stats.parallel_mode == "process"
        engine.close()

    def test_env_mode_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_MODE", "thread")
        engine = InferrayEngine("rdfs-default", backend="python", workers=2)
        assert engine.parallel_mode == "thread"

    def test_explicit_mode_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_MODE", "thread")
        engine = InferrayEngine(
            "rdfs-default",
            backend="python",
            workers=2,
            parallel_mode="process",
        )
        assert engine.parallel_mode == "process"

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="parallel mode"):
            InferrayEngine(
                "rdfs-default", workers=2, parallel_mode="fibers"
            )

    def test_unpicklable_custom_rules_fall_back_in_auto(self, monkeypatch):
        from repro.rules.spec import Rule, RuleContext

        class LocalRule(Rule):  # unpicklable: defined in a function
            def apply(self, ctx: RuleContext) -> None:
                pass

        monkeypatch.setenv("REPRO_PARALLEL_CORES", "4")
        monkeypatch.setenv("REPRO_PROCESS_CROSSOVER", "0")
        engine = InferrayEngine(
            [LocalRule("LOCAL")],
            backend="python",
            workers=2,
            parallel_mode="auto",
        )
        engine.load_triples(INTRO)
        with pytest.warns(RuntimeWarning, match="falling back to threads"):
            stats = engine.materialize()  # degrades, does not raise
        assert stats.parallel_mode == "thread"
        assert stats.parallel_fallback and "picklable" in stats.parallel_fallback
        assert engine.parallel_mode == "thread"
        engine.close()

    def test_unpicklable_custom_rules_raise_when_forced(self):
        from repro.core.parallel import ProcessModeUnavailable
        from repro.rules.spec import Rule, RuleContext

        class LocalRule(Rule):
            def apply(self, ctx: RuleContext) -> None:
                pass

        engine = InferrayEngine(
            [LocalRule("LOCAL")],
            backend="python",
            workers=2,
            parallel_mode="process",
        )
        engine.load_triples(INTRO)
        with pytest.raises(ProcessModeUnavailable, match="picklable"):
            engine.materialize()

    def test_tracer_pins_sequential_even_with_process_mode(self):
        from repro.memsim.tracer import NullTracer

        engine = InferrayEngine(
            "rdfs-default",
            tracer=NullTracer(),
            workers=4,
            parallel_mode="process",
        )
        assert engine.workers == 1
        assert engine.parallel_mode == "sequential"


class TestIntraRuleSplitting:
    def test_forced_split_records_shards_and_matches_reference(self):
        reference = InferrayEngine("rdfs-default", workers=1)
        reference.load_triples(INTRO)
        reference.materialize()
        ref_tables = [
            (pid, bytes(flat.tobytes()))
            for pid, flat in reference.main.table_arrays()
        ]

        engine = InferrayEngine(
            "rdfs-default",
            workers=2,
            parallel_mode="thread",
            split_threshold=2,
        )
        engine.load_triples(INTRO)
        stats = engine.materialize()
        assert stats.rule_shards, "tiny threshold must split a join rule"
        assert all(n >= 2 for n in stats.rule_shards.values())
        tables = [
            (pid, bytes(flat.tobytes()))
            for pid, flat in engine.main.table_arrays()
        ]
        assert tables == ref_tables

    def test_sequential_run_never_splits(self):
        engine = InferrayEngine(
            "rdfs-default", workers=1, split_threshold=2
        )
        engine.load_triples(INTRO)
        stats = engine.materialize()
        assert stats.rule_shards == {}

    def test_zero_threshold_disables_splitting(self):
        engine = InferrayEngine(
            "rdfs-default",
            workers=2,
            parallel_mode="thread",
            split_threshold=0,
        )
        engine.load_triples(INTRO)
        stats = engine.materialize()
        assert stats.rule_shards == {}

    def test_split_threshold_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPLIT_THRESHOLD", "7")
        engine = InferrayEngine("rdfs-default", workers=2)
        assert engine.scheduler.split_threshold == 7

    def test_bad_split_threshold_env_warns(self, monkeypatch):
        from repro.core.parallel import (
            DEFAULT_SPLIT_THRESHOLD,
            resolve_split_threshold,
        )

        monkeypatch.setenv("REPRO_SPLIT_THRESHOLD", "lots")
        with pytest.warns(RuntimeWarning, match="REPRO_SPLIT_THRESHOLD"):
            assert (
                resolve_split_threshold(None) == DEFAULT_SPLIT_THRESHOLD
            )


class TestStoreIntegration:
    def test_store_config_threads_workers(self):
        store = Store(INTRO, config=StoreConfig(workers=2))
        assert Triple(ex("Bart"), RDF.type, ex("animal")) in store
        assert store.engine.workers == 2
        assert store.stats.workers == 2

    def test_store_kwarg_threads_workers(self):
        store = Store(INTRO, workers=3)
        assert store.engine.workers == 3
        assert len(store) > len(INTRO)

    def test_parallel_store_roundtrips_persistence(self, tmp_path):
        path = str(tmp_path / "closure.store")
        store = Store(INTRO, workers=2)
        store.save(path)
        reloaded = Store.load(path, workers=4)
        assert reloaded.engine.workers == 4
        assert set(reloaded.triples()) == set(store.triples())

    def test_store_threads_parallel_mode_and_split_threshold(self):
        store = Store(
            INTRO,
            config=StoreConfig(
                backend="python",
                workers=2,
                parallel_mode="process",
                split_threshold=5,
            ),
        )
        assert store.engine.parallel_mode == "process"
        assert store.engine.scheduler.split_threshold == 5
        assert Triple(ex("Bart"), RDF.type, ex("animal")) in store
        assert store.stats.parallel_mode == "process"

    def test_store_kwarg_threads_parallel_mode(self):
        store = Store(INTRO, workers=2, parallel_mode="thread")
        assert store.engine.parallel_mode == "thread"
        assert len(store) > len(INTRO)


class TestCostModelKnobResolution:
    """Sanitization of the cost model's environment knobs.

    Mirrors the $REPRO_WORKERS contract: explicit parameters are
    trusted, environment values warn and fall back instead of
    crashing the engine.
    """

    def test_cores_env_overrides_detection(self, monkeypatch):
        from repro.core.scheduler import resolve_parallel_cores

        monkeypatch.setenv("REPRO_PARALLEL_CORES", "8")
        assert resolve_parallel_cores() == 8

    def test_explicit_cores_beat_env(self, monkeypatch):
        from repro.core.scheduler import resolve_parallel_cores

        monkeypatch.setenv("REPRO_PARALLEL_CORES", "8")
        assert resolve_parallel_cores(3) == 3

    def test_bad_cores_env_warns_and_detects(self, monkeypatch):
        import os

        from repro.core.scheduler import resolve_parallel_cores

        monkeypatch.setenv("REPRO_PARALLEL_CORES", "many")
        with pytest.warns(RuntimeWarning, match="REPRO_PARALLEL_CORES"):
            assert resolve_parallel_cores() == (os.cpu_count() or 1)

    def test_nonpositive_cores_env_warns_and_detects(self, monkeypatch):
        import os

        from repro.core.scheduler import resolve_parallel_cores

        monkeypatch.setenv("REPRO_PARALLEL_CORES", "0")
        with pytest.warns(RuntimeWarning, match="REPRO_PARALLEL_CORES"):
            assert resolve_parallel_cores() == (os.cpu_count() or 1)

    def test_crossover_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_THREAD_CROSSOVER", "123")
        monkeypatch.setenv("REPRO_PROCESS_CROSSOVER", "456")
        scheduler = ParallelRuleScheduler(
            get_ruleset("rdfs-default"), workers=2
        )
        assert scheduler.thread_crossover == 123
        assert scheduler.process_crossover == 456

    def test_bad_crossover_env_warns_and_defaults(self, monkeypatch):
        from repro.core.scheduler import (
            PROCESS_CROSSOVER_ENV,
            resolve_crossover,
        )

        monkeypatch.setenv(PROCESS_CROSSOVER_ENV, "huge")
        with pytest.warns(RuntimeWarning, match="REPRO_PROCESS_CROSSOVER"):
            assert (
                resolve_crossover(
                    None, env=PROCESS_CROSSOVER_ENV, default=42
                )
                == 42
            )

    def test_negative_crossover_env_warns_and_defaults(self, monkeypatch):
        from repro.core.scheduler import (
            THREAD_CROSSOVER_ENV,
            resolve_crossover,
        )

        monkeypatch.setenv(THREAD_CROSSOVER_ENV, "-1")
        with pytest.warns(RuntimeWarning, match="REPRO_THREAD_CROSSOVER"):
            assert (
                resolve_crossover(
                    None, env=THREAD_CROSSOVER_ENV, default=42
                )
                == 42
            )

    def test_explicit_crossover_trusted_and_clamped(self, monkeypatch):
        from repro.core.scheduler import (
            THREAD_CROSSOVER_ENV,
            resolve_crossover,
        )

        monkeypatch.setenv(THREAD_CROSSOVER_ENV, "999")  # ignored
        assert (
            resolve_crossover(-7, env=THREAD_CROSSOVER_ENV, default=42)
            == 0
        )
