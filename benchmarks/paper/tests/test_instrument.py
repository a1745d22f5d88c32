"""Tests for :func:`paper.instrumented_engine`: the op streams the
memory figures replay, the ⟨o, s⟩-cache ablation, and the Figure 7–8
counter ordering."""

import hashlib
from array import array

import pytest

from paper import instrumented_engine
from paper.memsim.hierarchy import replay_trace
from paper.memsim.tracer import RecordingTracer
from repro.baselines.hashjoin import HashJoinEngine
from repro.baselines.rete import ReteEngine
from repro.core.engine import InferrayEngine
from repro.datasets.chains import subclass_chain
from repro.datasets.lubm import lubm_like

BACKENDS = ["python", "numpy"]


@pytest.fixture(params=BACKENDS)
def backend(request, monkeypatch):
    """Run the test on each flat kernel backend ('auto' reads the
    environment when an engine is built)."""
    monkeypatch.setenv("REPRO_KERNELS", request.param)
    return request.param


def flat(pairs):
    return array("q", [value for pair in pairs for value in pair])


def pairs_as_tuples(flat_pairs):
    return list(zip(flat_pairs[0::2], flat_pairs[1::2]))


@pytest.mark.parametrize(
    "ruleset, data, n_ops, digest",
    [
        ("rho-df", subclass_chain(80), 4, "4d133cfc3b2e4216"),
        ("rdfs-plus", lubm_like(5), 62, "d63f1fa6c7aaf022"),
    ],
    ids=["chain80-rho-df", "lubm5-rdfs-plus"],
)
def test_op_stream_is_pinned(backend, ruleset, data, n_ops, digest):
    # Figures 7–8 replay these streams: any change to what a table or a
    # θ closure reports changes the figures, on every backend alike.
    tracer = RecordingTracer()
    engine = instrumented_engine(ruleset, tracer=tracer)
    assert engine.kernels.name == backend
    engine.load_triples(data)
    engine.materialize()
    assert len(tracer.ops) == n_ops
    assert hashlib.sha256(repr(tracer.ops).encode()).hexdigest()[:16] == digest


def test_traced_engine_is_sequential(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "4")
    engine = instrumented_engine("rdfs-default", tracer=RecordingTracer())
    assert engine.workers == 1


@pytest.mark.usefixtures("backend")
class TestOsCacheAblation:
    def test_uncached_view_still_correct(self):
        store = instrumented_engine("rho-df", cache_os=False).main
        store.add_pairs(100, flat([(1, 5), (2, 3)]))
        table = store.table(100)
        assert pairs_as_tuples(table.os_pairs()) == [(3, 2), (5, 1)]
        assert not table.has_os_cache

    def test_uncached_mode_always_fresh(self):
        store = instrumented_engine("rho-df", cache_os=False).main
        store.add_pairs(100, flat([(1, 2)]))
        table = store.table(100)
        table.os_pairs()
        table.merge(flat([(0, 5)]))
        assert pairs_as_tuples(table.os_pairs()) == [(2, 1), (5, 0)]
        assert not table.has_os_cache

    def test_engine_results_identical_without_cache(self):
        data = subclass_chain(30)
        cached = InferrayEngine("rdfs-default")
        cached.load_triples(data)
        cached.materialize()
        uncached = instrumented_engine("rdfs-default", cache_os=False)
        uncached.load_triples(data)
        uncached.materialize()
        assert set(cached.triples()) == set(uncached.triples())

    def test_stats_report_no_cached_views(self):
        engine = instrumented_engine("rdfs-default", cache_os=False)
        engine.load_triples(subclass_chain(20))
        engine.materialize()
        main = engine.main
        assert main.property_ids()
        assert not any(
            main.table(pid).has_os_cache for pid in main.property_ids()
        )


class TestMemoryBehaviourShape:
    """Figures 7–8: Inferray's simulated memory profile is the best."""

    def test_counter_ordering_on_closure_workload(self):
        data = subclass_chain(80)
        per_engine = {}
        for name, factory in (
            ("inferray", instrumented_engine),
            ("hashjoin", HashJoinEngine),
            ("rete", ReteEngine),
        ):
            tracer = RecordingTracer()
            engine = factory("rho-df", tracer=tracer)
            engine.load_triples(data)
            engine.materialize()
            counters = replay_trace(tracer.ops)
            per_engine[name] = counters.per_triple(engine.stats.n_inferred)
        assert (
            per_engine["inferray"]["tlb_misses_per_triple"]
            < per_engine["hashjoin"]["tlb_misses_per_triple"]
            < per_engine["rete"]["tlb_misses_per_triple"]
        )
        assert (
            per_engine["inferray"]["page_faults_per_triple"]
            < per_engine["rete"]["page_faults_per_triple"]
        )
