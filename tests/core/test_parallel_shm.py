"""Unit tests for the shared-memory process-parallel plumbing.

Covers the export/attach round trip (both kernel backends), the
exporter's identity-based segment reuse, worker output serialization,
the in-process worker entrypoints (init + fire), and the mode /
threshold resolution policies — everything below the scheduler, so
failures localize without spinning an actual pool.
"""

import os
from array import array

import pytest

from repro.core import parallel
from repro.core.engine import InferrayEngine
from repro.datasets.bsbm import bsbm_like
from repro.kernels import get_backend, numpy_available
from repro.rules.spec import Rule
from repro.store.triple_store import InferredBuffers, TripleStore

BACKENDS = ["python", "compressed"] + (
    ["numpy"] if numpy_available() else []
)


def _make_store(backend_name):
    kernels = get_backend(backend_name)
    store = TripleStore(backend=kernels)
    store.add_pairs(7, array("q", [5, 6, 1, 2, 3, 4, 1, 2]))
    store.add_pairs(9, array("q", [10, 20]))
    return store, kernels


class TestFromBuffer:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_round_trip(self, backend):
        kernels = get_backend(backend)
        source = array("q", [1, 2, 3, 4])
        view = kernels.from_buffer(memoryview(source.tobytes()), 4)
        assert list(view) == [1, 2, 3, 4]
        assert len(view) == 4

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_offset_counts_values(self, backend):
        kernels = get_backend(backend)
        source = array("q", [9, 9, 1, 2])
        view = kernels.from_buffer(
            memoryview(source.tobytes()), 2, offset=2
        )
        assert list(view) == [1, 2]

    def test_python_view_supports_the_read_paths(self):
        kernels = get_backend("python")
        source = array("q", [1, 2, 1, 4, 3, 6])
        view = kernels.from_buffer(memoryview(source.tobytes()), 6)
        # The paths PropertyTable and the join kernels exercise.
        assert view.tolist() == [1, 2, 1, 4, 3, 6]
        assert view[2] == 1
        assert list(view[2:4]) == [1, 4]
        assert kernels.key_slice(view, 1) == (0, 2)
        assert kernels.key_lower_bound(view, 3) == 2
        swapped = kernels.swap(view)
        assert list(swapped) == [2, 1, 4, 1, 6, 3]


class TestExportAttach:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_round_trip_preserves_tables(self, backend):
        store, kernels = _make_store(backend)
        exporter = parallel.SharedStoreExporter()
        try:
            manifest = exporter.export(store)
            assert [entry[0] for entry in manifest] == [7, 9]
            attached, segments = parallel.attach_store(
                manifest, kernels=kernels
            )
            try:
                assert attached.table(7).as_set() == store.table(7).as_set()
                assert attached.table(9).as_set() == store.table(9).as_set()
                # The o-s view computes on the zero-copy view too.
                assert attached.table(7).subjects_of(2) == [1]
                assert attached.table(7).subjects_of(6) == [5]
            finally:
                del attached
                for shm in segments:
                    shm.close()
        finally:
            exporter.close()

    def test_segments_reused_while_array_unchanged(self):
        store, _ = _make_store("python")
        exporter = parallel.SharedStoreExporter()
        try:
            first = exporter.export(store)
            second = exporter.export(store)
            assert first == second  # same names: no re-copy
            # A merge replaces the committed array => fresh segment.
            store.add_pairs(7, array("q", [100, 200]))
            third = exporter.export(store)
            by_pid_first = {p: name for p, name, _ in first}
            by_pid_third = {p: name for p, name, _ in third}
            assert by_pid_third[7] != by_pid_first[7]
            assert by_pid_third[9] == by_pid_first[9]
        finally:
            exporter.close()

    def test_dropped_tables_release_their_segments(self):
        store, _ = _make_store("python")
        exporter = parallel.SharedStoreExporter()
        try:
            first = exporter.export(store)
            names = {name for _, name, _ in first}
            assert all(
                os.path.exists(f"/dev/shm/{name}") for name in names
            )
            empty = TripleStore(backend=get_backend("python"))
            assert exporter.export(empty) == []
            assert not any(
                os.path.exists(f"/dev/shm/{name}") for name in names
            )
        finally:
            exporter.close()

    def test_close_unlinks_everything(self):
        store, _ = _make_store("python")
        exporter = parallel.SharedStoreExporter()
        manifest = exporter.export(store)
        exporter.close()
        for _, name, _ in manifest:
            assert not os.path.exists(f"/dev/shm/{name}")


class TestResultSegments:
    def test_round_trip(self):
        buffers = InferredBuffers()
        buffers.emit(3, 10, 20)
        buffers.extend(5, array("q", [1, 2, 3, 4]))
        name, entries = parallel.buffers_to_segment(buffers)
        assert name is not None
        assert entries == [(3, 2), (5, 4)]
        out = InferredBuffers()
        parallel.segment_to_buffers(name, entries, out)
        collected = {pid: list(flat) for pid, flat in out.items()}
        assert collected == {3: [10, 20], 5: [1, 2, 3, 4]}
        assert not os.path.exists(f"/dev/shm/{name}")  # released

    def test_empty_buffers_produce_no_segment(self):
        name, entries = parallel.buffers_to_segment(InferredBuffers())
        assert name is None
        assert entries == []


class TestWorkerEntrypoints:
    """Drive the initializer/task functions in-process (no pool)."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fire_matches_direct_rule_application(self, backend):
        engine = InferrayEngine(
            "rdfs-default", backend=backend, workers=1
        )
        engine.load_triples(bsbm_like(30))
        exporter = parallel.SharedStoreExporter()
        saved_worker = parallel._WORKER
        try:
            manifest = exporter.export(engine.main)
            parallel._worker_init(
                engine.rules, dict(engine.vocab._ids), backend, "auto"
            )
            from repro.rules.spec import RuleContext

            for index, rule in enumerate(engine.rules):
                name, entries, counts, elapsed = parallel._worker_fire(
                    index, None, manifest, None, 1, False
                )
                direct = InferredBuffers()
                rule.apply(
                    RuleContext(
                        main=engine.main,
                        new=engine.main,
                        out=direct,
                        vocab=engine.vocab,
                        iteration=1,
                        theta_prepass_done=False,
                        kernels=engine.kernels,
                    )
                )
                expected = {
                    pid: sorted(flat) for pid, flat in direct.items()
                }
                got = InferredBuffers()
                if name is not None:
                    parallel.segment_to_buffers(name, entries, got)
                assert {
                    pid: sorted(flat) for pid, flat in got.items()
                } == expected, rule.name
                assert elapsed >= 0
        finally:
            parallel._worker_cleanup()
            parallel._WORKER = saved_worker
            exporter.close()

    def test_store_generations_evict(self):
        engine = InferrayEngine("rdfs-default", backend="python", workers=1)
        engine.load_triples(bsbm_like(20))
        exporter = parallel.SharedStoreExporter()
        saved_worker = parallel._WORKER
        try:
            manifest1 = exporter.export(engine.main)
            parallel._worker_init(
                engine.rules, dict(engine.vocab._ids), "python", "auto"
            )
            state = parallel._WORKER
            store1 = state.store_for("main", manifest1)
            # Compare identities via booleans and drop the references
            # before eviction: any holder (including pytest's rewritten
            # assertion temporaries) would keep the zero-copy views
            # alive through the generation's close calls.
            cached_again = state.store_for("main", manifest1)
            was_cached = cached_again is store1
            del store1, cached_again
            assert was_cached
            names1 = {name for _, name, _ in manifest1}
            engine.materialize()
            manifest2 = exporter.export(engine.main)
            store2 = state.store_for("main", manifest2)
            key_matches = state._stores["main"][0] == tuple(manifest2)
            is_current = state._stores["main"][1] is store2
            del store2
            assert key_matches and is_current
            # Changed tables re-exported under fresh segment names.
            names2 = {name for _, name, _ in manifest2}
            assert names2 - names1, "materialize must version some table"
        finally:
            parallel._worker_cleanup()
            parallel._WORKER = saved_worker
            exporter.close()


class ExplodingRule(Rule):
    """Module-level (picklable) rule that fails inside a worker."""

    def apply(self, ctx):
        raise RuntimeError("boom from worker")


class EmittingRule(Rule):
    """Module-level (picklable) rule that emits a batch of triples."""

    def apply(self, ctx):
        for i in range(200):
            ctx.out.emit(ctx.vocab.type, 1_000 + i, 42)


def _live_segments():
    return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}


class TestFailurePaths:
    def test_mid_wave_failure_releases_sibling_output_segments(
        self, monkeypatch
    ):
        # Pin fork so the module-level rule classes resolve in workers
        # regardless of how this test module was imported.
        monkeypatch.setenv("REPRO_MP_START_METHOD", "fork")
        before = _live_segments()
        # BOOM first in catalogue order: its future fails before the
        # emitting sibling's completed result is absorbed, so the
        # drain path (not the normal absorb) must release the segment.
        engine = InferrayEngine(
            [ExplodingRule("BOOM"), EmittingRule("EMIT")],
            backend="python",
            workers=2,
            parallel_mode="process",
        )
        engine.load_triples(bsbm_like(10))
        with pytest.raises(RuntimeError, match="boom from worker"):
            engine.materialize()
        # The emitting sibling's (disowned) output segment must be gone
        # immediately — the drain path releases it even though the
        # engine (and its persistent pool + exporter segments) lives on.
        # Closing the engine must then release every exporter segment —
        # no leak until reboot.
        engine.close()
        assert _live_segments() - before == set()

    def test_forced_mode_detection_is_case_insensitive(self):
        engine = InferrayEngine(
            [ExplodingRule("BOOM", )],
            backend="python",
            workers=2,
            parallel_mode="Process",
        )
        assert engine.parallel_mode == "process"
        # Forced (despite the casing): an unstartable session raises
        # instead of silently degrading to threads.
        engine.scheduler.rules[0].apply = lambda ctx: None  # unpicklable
        engine.load_triples(bsbm_like(5))
        with pytest.raises(parallel.ProcessModeUnavailable):
            engine.materialize()


class TestModeResolution:
    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_MODE", "thread")
        assert parallel.resolve_parallel_mode(None) == "thread"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_MODE", "thread")
        assert parallel.resolve_parallel_mode("process") == "process"

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="parallel mode"):
            parallel.resolve_parallel_mode("greenlet")

    def test_unknown_env_mode_warns_and_falls_back(self, monkeypatch):
        # A stray shell export must never crash an engine — mirror the
        # forgiving $REPRO_WORKERS parse instead of raising.
        monkeypatch.setenv("REPRO_PARALLEL_MODE", "greenlet")
        with pytest.warns(RuntimeWarning, match="REPRO_PARALLEL_MODE"):
            assert parallel.resolve_parallel_mode(None) == "auto"

    def test_without_backend_auto_stays_unresolved(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLEL_MODE", raising=False)
        # No backend_name: the caller's cost model decides per
        # materialization, so 'auto' passes through.
        assert parallel.resolve_parallel_mode(None) == "auto"

    def test_negative_split_threshold_env_warns_and_disables(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SPLIT_THRESHOLD", "-5")
        with pytest.warns(RuntimeWarning, match="REPRO_SPLIT_THRESHOLD"):
            assert parallel.resolve_split_threshold(None) == 0

    def test_split_threshold_default_and_floor(self):
        assert (
            parallel.resolve_split_threshold(None)
            == parallel.DEFAULT_SPLIT_THRESHOLD
        )
        assert parallel.resolve_split_threshold(-5) == 0
        assert parallel.resolve_split_threshold(123) == 123
