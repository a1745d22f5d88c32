"""Tests for the memory valve (§4.2: the droppable o-s cache)."""

from repro.core.engine import InferrayEngine
from repro.datasets.lubm import lubm_like


class TestCacheValveEndToEnd:
    def test_drop_after_materialization_frees_memory(self):
        engine = InferrayEngine("rdfs-plus")
        engine.load_triples(lubm_like(3))
        engine.materialize()
        with_caches = engine.memory_bytes()
        dropped = engine.main.drop_os_caches()
        assert dropped > 0
        assert engine.memory_bytes() < with_caches

    def test_queries_still_work_after_drop(self):
        engine = InferrayEngine("rdfs-plus")
        engine.load_triples(lubm_like(2))
        engine.materialize()
        engine.main.drop_os_caches()
        # Object-keyed queries recompute the view transparently.
        some = next(engine.encoded_triples())
        hits = list(engine.main.query(None, some[1], some[2]))
        assert some in hits

    def test_rematerialization_after_drop_is_stable(self):
        engine = InferrayEngine("rdfs-plus")
        engine.load_triples(lubm_like(2))
        engine.materialize()
        before = set(engine.triples())
        engine.main.drop_os_caches()
        stats = engine.materialize()
        assert stats.n_inferred == 0
        assert set(engine.triples()) == before
