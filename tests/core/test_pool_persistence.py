"""Store-lifetime thread pools: reuse across incremental flushes.

The persistent-pool contract: the first parallel flush lazily starts
the thread pool; every later flush of the same engine — incremental
flushes of a long-lived :class:`Store` included — reuses the pool
object.  ``Store.close()`` (or the context manager) shuts it down
deterministically.  Closures stay byte-identical to sequential
execution throughout.
"""

from repro.core.store_api import Store
from repro.datasets.bsbm import bsbm_like


def _base_and_batches(scale=200, batches=3, batch_size=15):
    """One BSBM workload split into a base load plus write batches."""
    data = list(bsbm_like(scale))
    delta = batches * batch_size
    base, tail = data[:-delta], data[-delta:]
    return base, [
        tail[i * batch_size:(i + 1) * batch_size] for i in range(batches)
    ]


def test_thread_pool_persists_across_flushes():
    base, batch_list = _base_and_batches()
    with Store(base, workers=2) as store:
        store.materialize()
        scheduler = store.engine.scheduler
        pool = scheduler.thread_pool
        assert pool is not None
        for batch in batch_list:
            store.add(batch)
            store.materialize()
            assert scheduler.thread_pool is pool
    # Context-manager exit closed the store: the pool is gone.
    assert scheduler.thread_pool is None


def test_persistent_pool_closure_matches_sequential():
    base, batch_list = _base_and_batches()

    def closure_bytes(**kwargs):
        with Store(base, backend="python", **kwargs) as store:
            store.materialize()
            for batch in batch_list:
                store.add(batch)
                store.materialize()
            return [
                (pid, bytes(flat.tobytes()))
                for pid, flat in store.engine.main.table_arrays()
            ]

    sequential = closure_bytes(workers=1)
    persistent = closure_bytes(workers=2)
    assert persistent == sequential


def test_closed_store_can_flush_again():
    base, batch_list = _base_and_batches()
    store = Store(base, workers=2)
    store.materialize()
    store.close()
    scheduler = store.engine.scheduler
    assert scheduler.thread_pool is None
    # close() drops the pool, not the store: the next flush lazily
    # starts a fresh pool.  Idempotent.
    store.add(batch_list[0])
    store.materialize()
    assert scheduler.thread_pool is not None
    store.close()
    store.close()
    assert scheduler.thread_pool is None


def test_flush_stats_record_the_decision():
    base, batch_list = _base_and_batches()
    with Store(base, workers=2) as store:
        stats = store.materialize()
        assert stats.parallel_mode == "thread"
        assert stats.workers == 2
        store.add(batch_list[0])
        incremental = store.materialize()
        # A small incremental flush runs on the pool too: workers alone
        # picks the executor, whatever the delta's size.
        assert incremental.parallel_mode == "thread"
        assert incremental.workers == 2
