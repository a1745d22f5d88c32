"""Unit tests for the parallel rule scheduler and worker resolution."""

import pytest

from repro.core.engine import (
    FixedPointError,
    InferrayEngine,
    MaterializationTimeout,
)
from repro.core.scheduler import (
    PARALLEL_MODES,
    ParallelRuleScheduler,
    resolve_parallel_mode,
    resolve_workers,
)
from repro.core.store_api import Store, StoreConfig
from repro.datasets.chains import subclass_chain
from repro.rdf.terms import IRI, Triple
from repro.rdf.vocabulary import RDF, RDFS
from repro.rules.rulesets import get_ruleset


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
    def test_waves_cover_all_rules(self):
        scheduler = ParallelRuleScheduler(get_ruleset("rdfs-plus"))
        indexes = sorted(i for wave in scheduler.waves for i in wave)
        assert indexes == list(range(len(scheduler.rules)))

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


class TestEngineIntegration:
    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_closure_and_stats(self, workers):
        engine = InferrayEngine("rdfs-default", workers=workers)
        engine.load_triples(INTRO)
        stats = engine.materialize()
        assert contains(engine, Triple(ex("Bart"), RDF.type, ex("animal")))
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

    def test_auto_is_undecided_before_the_first_run(self):
        engine = InferrayEngine(
            "rdfs-default", backend="python", workers=2, parallel_mode="auto"
        )
        assert engine.parallel_mode == "auto"

    def test_auto_picks_sequential_below_the_crossover(self, monkeypatch):
        # INTRO is tiny: the pool cannot amortize its overhead, so auto
        # must refuse parallelism even with cores and GIL-releasing
        # kernels available.
        from repro.kernels import numpy_available

        if not numpy_available():
            pytest.skip("numpy backend unavailable")
        monkeypatch.setenv("REPRO_PARALLEL_CORES", "4")
        engine = InferrayEngine(
            "rdfs-default", backend="numpy", workers=2, parallel_mode="auto"
        )
        engine.load_triples(INTRO)
        stats = engine.materialize()
        assert stats.parallel_mode == "sequential"
        assert stats.parallel_decision["requested"] == "auto"
        assert stats.parallel_decision["estimated_pairs"] is not None
        assert "crossover" in stats.parallel_decision["reason"]

    def test_auto_picks_sequential_on_one_core(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_CORES", "1")
        engine = InferrayEngine(
            "rdfs-default", backend="python", workers=4, parallel_mode="auto"
        )
        engine.scheduler.thread_crossover = 0
        engine.load_triples(INTRO)
        stats = engine.materialize()
        assert stats.parallel_mode == "sequential"
        assert "core" in stats.parallel_decision["reason"]

    def test_auto_picks_thread_for_numpy_backend_above_crossover(
        self, monkeypatch
    ):
        from repro.kernels import numpy_available

        if not numpy_available():
            pytest.skip("numpy backend unavailable")
        monkeypatch.setenv("REPRO_PARALLEL_CORES", "4")
        engine = InferrayEngine(
            "rdfs-default", backend="numpy", workers=2, parallel_mode="auto"
        )
        engine.scheduler.thread_crossover = 0
        engine.load_triples(INTRO)
        stats = engine.materialize()
        assert stats.parallel_mode == "thread"
        engine.close()

    def test_auto_never_picks_threads_for_the_python_backend(
        self, monkeypatch
    ):
        # Threads cannot beat sequential under the GIL: the python
        # backend runs sequentially even when the thread crossover is
        # cleared, and the recorded reason says why.
        monkeypatch.setenv("REPRO_PARALLEL_CORES", "4")
        engine = InferrayEngine(
            "rdfs-default", backend="python", workers=2, parallel_mode="auto"
        )
        engine.scheduler.thread_crossover = 0
        engine.load_triples(INTRO)
        stats = engine.materialize()
        assert stats.parallel_mode == "sequential"
        assert "GIL" in stats.parallel_decision["reason"]

    def test_auto_doubles_crossovers_for_compressed_backend(
        self, monkeypatch
    ):
        # Block decode makes each pair roughly twice as expensive to
        # touch, so the compressed backend stays sequential up to twice
        # the configured crossover — the reason string says so (on the
        # numpy codec; the pure-Python one holds the GIL and never
        # reaches the crossover test).
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
        engine = InferrayEngine(
            "rdfs-default",
            backend="compressed",
            workers=2,
            parallel_mode="auto",
        )
        engine.scheduler.thread_crossover = 0
        engine.load_triples(INTRO)
        stats = engine.materialize()
        # Decode windows run on the GIL-releasing numpy inner backend,
        # so threads are viable just like for plain numpy.
        assert stats.parallel_mode == "thread"
        assert "decompressed windows run on 'numpy'" in (
            stats.parallel_decision["reason"]
        )
        engine.close()

    def test_auto_compressed_over_python_runs_sequentially(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_PARALLEL_CORES", "4")
        monkeypatch.setenv("REPRO_KERNELS_DISABLE_NUMPY", "1")
        engine = InferrayEngine(
            "rdfs-default",
            backend="compressed",
            workers=2,
            parallel_mode="auto",
        )
        engine.scheduler.thread_crossover = 0
        assert engine.kernels.inner_name == "python"
        engine.load_triples(INTRO)
        stats = engine.materialize()
        # Pure-python decode serializes under the GIL: threads cannot
        # help, whatever the estimate.
        assert stats.parallel_mode == "sequential"
        assert "GIL" in stats.parallel_decision["reason"]

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
            parallel_mode="auto",
        )
        assert engine.parallel_mode == "auto"

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="parallel mode"):
            InferrayEngine(
                "rdfs-default", workers=2, parallel_mode="fibers"
            )

    def test_process_mode_is_rejected(self):
        with pytest.raises(ValueError, match="'auto', 'thread'"):
            InferrayEngine(
                "rdfs-default", workers=2, parallel_mode="process"
            )


class TestModeResolution:
    def test_modes(self):
        assert PARALLEL_MODES == ("auto", "thread")

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_MODE", "thread")
        assert resolve_parallel_mode(None) == "thread"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_MODE", "thread")
        assert resolve_parallel_mode("auto") == "auto"

    def test_explicit_mode_is_case_insensitive(self):
        assert resolve_parallel_mode("Thread") == "thread"

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="parallel mode"):
            resolve_parallel_mode("greenlet")

    def test_unknown_env_mode_warns_and_falls_back(self, monkeypatch):
        # A stray shell export must never crash an engine — mirror the
        # forgiving $REPRO_WORKERS parse instead of raising.
        monkeypatch.setenv("REPRO_PARALLEL_MODE", "greenlet")
        with pytest.warns(RuntimeWarning, match="REPRO_PARALLEL_MODE"):
            assert resolve_parallel_mode(None) == "auto"

    def test_process_env_mode_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_MODE", "process")
        with pytest.warns(RuntimeWarning, match="REPRO_PARALLEL_MODE"):
            assert resolve_parallel_mode(None) == "auto"

    def test_unset_env_leaves_auto_unresolved(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLEL_MODE", raising=False)
        # The caller's cost model decides per materialization, so
        # 'auto' passes through.
        assert resolve_parallel_mode(None) == "auto"


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
            config=StoreConfig(
                backend="python", workers=2, parallel_mode="thread"
            ),
        )
        assert store.engine.parallel_mode == "thread"
        assert Triple(ex("Bart"), RDF.type, ex("animal")) in store
        assert store.stats.parallel_mode == "thread"
        store.close()

    def test_store_kwarg_threads_parallel_mode(self):
        store = Store(INTRO, workers=2, parallel_mode="thread")
        assert store.engine.parallel_mode == "thread"
        assert store.n_triples > len(INTRO)


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
