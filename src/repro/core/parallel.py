"""Process-based shared-memory parallel execution plumbing.

The thread scheduler (:mod:`repro.core.scheduler`) is GIL-serialized on
the pure-Python kernel backend.  This module provides everything the
scheduler needs to run a wave's rule firings in **worker processes**
instead, without pickling the store:

* **Export** — committed pair arrays are plain host-order int64
  buffers (the persistence wire format already proves they serialize
  trivially), so :class:`SharedStoreExporter` copies each property
  table once into a ``multiprocessing.shared_memory`` segment and
  reuses the segment for as long as the table's committed array object
  is unchanged (committed arrays are replaced wholesale, never mutated
  in place, so object identity is a sound version tag).
* **Attach** — workers rebuild read-only :class:`TripleStore` views
  over the segments with ``kernels.from_buffer`` (zero-copy on both
  backends) and cache one store generation per Algorithm-1 role, so
  the ⟨o, s⟩ views a rule materializes are computed once per worker
  and iteration, not once per task.
* **Results** — each task's private
  :class:`~repro.store.triple_store.InferredBuffers` goes back as one
  shared-memory segment plus a ``(property_id, n_values)`` manifest;
  the parent absorbs the segments in catalogue order, preserving the
  byte-identical-closure-for-any-worker-count guarantee (the Figure-5
  sort+dedup makes the commit a pure function of the emitted set).
* **Spawn safety** — the worker initializer and task entrypoint are
  module-level functions; workers receive the rule list (pickled
  executor instances), the resolved vocabulary ids and the kernel
  backend *name*, and rebuild local state in ``_worker_init``.  Both
  the ``fork`` and ``spawn`` start methods work (CI runs both).

Mode selection (:func:`resolve_parallel_mode`): ``"process"`` /
``"thread"`` force an executor; ``"auto"`` (the default) leaves the
pick to the scheduler's cost model
(:meth:`repro.core.scheduler.ParallelRuleScheduler.decide`).
"""

from __future__ import annotations

import pickle
import sys
import warnings
from array import array
from multiprocessing import get_context, resource_tracker, shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

from ..env import env_choice, env_int
from ..faults import fire as _fire_fault
from ..kernels import KernelBackend, resolve_backend
from ..rules.spec import Rule, RuleContext, Vocab
from ..store.triple_store import InferredBuffers, TripleStore

__all__ = [
    "PARALLEL_MODES",
    "PARALLEL_MODE_ENV",
    "SPLIT_THRESHOLD_ENV",
    "START_METHOD_ENV",
    "DEFAULT_SPLIT_THRESHOLD",
    "ProcessModeUnavailable",
    "ProcessSession",
    "SharedStoreExporter",
    "attach_store",
    "buffers_to_segment",
    "discard_result_segment",
    "process_mode_supported",
    "resolve_parallel_mode",
    "resolve_split_threshold",
    "segment_to_buffers",
]

#: Accepted values for the ``parallel_mode`` knobs.
PARALLEL_MODES = ("auto", "thread", "process")

#: Environment default for the execution mode (used when ``mode=None``).
PARALLEL_MODE_ENV = "REPRO_PARALLEL_MODE"

#: Environment override for the intra-rule split threshold (pairs).
SPLIT_THRESHOLD_ENV = "REPRO_SPLIT_THRESHOLD"

#: Environment override for the multiprocessing start method
#: (``fork`` / ``spawn`` / ``forkserver``; empty = platform default).
START_METHOD_ENV = "REPRO_MP_START_METHOD"

#: Estimated join-input pairs above which a splittable rule firing is
#: sharded across workers (CAX-SCO over a large type table is the
#: motivating case — one giant rule dominating a wave's critical path).
DEFAULT_SPLIT_THRESHOLD = 16_384


class ProcessModeUnavailable(RuntimeError):
    """Process execution cannot be provided in this configuration."""


def process_mode_supported() -> bool:
    """Whether this platform can run the process executor at all.

    Requires POSIX shared memory: result segments are written by a
    worker, closed there, and attached by name from the parent — a
    handoff only filesystem-backed (``shm_open``) names survive.  On
    Windows a named mapping dies with its last handle, so process mode
    is unavailable and ``auto`` resolves to threads.
    """
    if sys.platform in ("emscripten", "wasi"):
        return False
    return _shm_unlink is not None


def resolve_parallel_mode(mode: Optional[str]) -> str:
    """Normalize a ``parallel_mode`` request.

    ``None`` reads :data:`PARALLEL_MODE_ENV` (defaulting to ``auto``);
    an unknown value from the environment warns and falls back to
    ``auto``, while an unknown value passed explicitly raises.  ``auto``
    is returned unresolved: the scheduler's cost model picks per
    materialization.  The caller applies the mode only when
    ``workers > 1``.
    """
    if mode is None:
        return env_choice(PARALLEL_MODE_ENV, "auto", PARALLEL_MODES)
    mode = mode.lower()
    if mode not in PARALLEL_MODES:
        raise ValueError(
            f"unknown parallel mode {mode!r}; expected one of "
            f"{PARALLEL_MODES}"
        )
    return mode


def resolve_split_threshold(threshold: Optional[int]) -> int:
    """Normalize the intra-rule split threshold (``0`` disables).

    ``None`` reads :data:`SPLIT_THRESHOLD_ENV`, falling back to
    :data:`DEFAULT_SPLIT_THRESHOLD`; non-numeric environment values
    warn and fall back rather than crash.
    """
    if threshold is not None:
        return max(0, int(threshold))
    return env_int(
        SPLIT_THRESHOLD_ENV,
        DEFAULT_SPLIT_THRESHOLD,
        noun="pair count",
        otherwise=f"using the default ({DEFAULT_SPLIT_THRESHOLD})",
        floor=(0, 0, "is negative; treating as 0 (splitting disabled)"),
    )


# ----------------------------------------------------------------------
# Shared-memory plumbing
# ----------------------------------------------------------------------
def _flat_to_bytes(flat) -> bytes:
    """Host-order raw bytes of any backend's flat int64 array.

    Segments never leave the machine, so no endianness normalization
    is needed (unlike the persistence format).
    """
    tobytes = getattr(flat, "tobytes", None)
    if tobytes is not None:  # array('q'), ndarray, memoryview
        return tobytes()
    fallback = array("q", (int(value) for value in flat))
    return fallback.tobytes()


#: Whether SharedMemory supports opting out of resource tracking
#: (CPython >= 3.13); probed lazily.
_SHM_SUPPORTS_TRACK: Optional[bool] = None


def _shm_supports_track() -> bool:
    global _SHM_SUPPORTS_TRACK
    if _SHM_SUPPORTS_TRACK is None:
        import inspect

        _SHM_SUPPORTS_TRACK = "track" in inspect.signature(
            shared_memory.SharedMemory.__init__
        ).parameters
    return _SHM_SUPPORTS_TRACK


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without resource-tracker involvement.

    Tracker registrations must stay strictly balanced per segment or
    the (fork-shared) tracker process logs KeyErrors and spurious
    "leaked shared_memory" warnings: this module's convention is that
    only the *creator* briefly registers (see :func:`_create_segment`)
    and every lifetime transition is managed manually.  On
    CPython >= 3.13 ``track=False`` expresses that directly; older
    versions register unconditionally on attach, so registration is
    suppressed for the duration of the constructor (safe: segments are
    only attached from a process's main thread).
    """
    _fire_fault("shm.attach", name)
    if _shm_supports_track():
        return shared_memory.SharedMemory(name=name, track=False)
    register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = register


def _create_segment(n_bytes: int) -> shared_memory.SharedMemory:
    """A fresh untracked segment of at least one byte.

    The creating process immediately unregisters the segment from its
    resource tracker and owns the unlink manually (a hard crash before
    unlink leaks the segment until reboot — the price of keeping the
    fork-shared tracker's bookkeeping balanced across processes).
    """
    shm = shared_memory.SharedMemory(create=True, size=max(1, n_bytes))
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception as error:  # pragma: no cover - tracker internals moved
        # Keep going (the segment works either way), but say so: a
        # failed unregister means the tracker's bookkeeping is now
        # unbalanced and teardown may log spurious leak warnings.
        warnings.warn(
            f"could not unregister shared-memory segment "
            f"{shm._name!r} from the resource tracker: {error!r}",
            RuntimeWarning,
        )
    return shm


try:  # POSIX: raw unlink without tracker side effects
    from _posixshmem import shm_unlink as _shm_unlink
except ImportError:  # pragma: no cover - Windows named mmaps
    _shm_unlink = None


def _release_segment(shm: shared_memory.SharedMemory) -> None:
    """Close and unlink, without touching the resource tracker.

    ``SharedMemory.unlink()`` also *unregisters* the name — but this
    module's segments are already disowned at creation (see
    :func:`_create_segment`), and segments created by a worker are
    unlinked by the parent, so going through ``unlink()`` would send
    unbalanced UNREGISTER messages to the (possibly shared) tracker.
    On Windows there is nothing to unlink; closing the last handle
    frees the mapping.
    """
    try:
        shm.close()
    except BufferError:  # pragma: no cover - exported views still alive
        return
    if _shm_unlink is not None:
        try:
            _shm_unlink(shm._name)
        except FileNotFoundError:
            pass


#: One exported table: (property_id, segment name, value count).
TableManifest = Tuple[int, str, int]


class SharedStoreExporter:
    """Incremental shared-memory mirror of one TripleStore role.

    ``export`` copies each non-empty property table into a segment and
    returns the manifest workers attach from.  Tables whose committed
    array is the *same object* as the previously exported one reuse
    their segment — across fixed-point iterations most of ``main`` is
    unchanged, so the per-iteration export cost tracks the delta, not
    the store size.  A strong reference to the exported array pins its
    identity (no id-reuse after garbage collection).
    """

    def __init__(self) -> None:
        #: property id → (exported array object, segment, n_values)
        self._tables: Dict[int, Tuple[object, object, int]] = {}
        #: Lifetime counters (observability: pool-persistence tests and
        #: the serving stats endpoint read these to prove segments are
        #: reused across incremental flushes, not re-copied).
        self.segments_created = 0
        self.segments_reused = 0

    def export(self, store: TripleStore) -> List[TableManifest]:
        manifest: List[TableManifest] = []
        live = set()
        for property_id, flat in store.table_arrays():
            live.add(property_id)
            cached = self._tables.get(property_id)
            if cached is not None and cached[0] is flat:
                _, shm, n_values = cached
                self.segments_reused += 1
            else:
                if cached is not None:
                    _release_segment(cached[1])
                # Compressed tables ship their encoded blocks verbatim
                # (self-describing stream; ``from_buffer`` sniffs the
                # magic on attach) — the export memcpy shrinks with the
                # same ratio as the resident closure.  The manifest's
                # n_values stays the *logical* value count either way.
                serialize = getattr(flat, "serialize", None)
                data = serialize() if serialize is not None \
                    else _flat_to_bytes(flat)
                shm = _create_segment(len(data))
                shm.buf[: len(data)] = data
                n_values = len(flat)
                self._tables[property_id] = (flat, shm, n_values)
                self.segments_created += 1
            manifest.append((property_id, shm.name, n_values))
        for property_id in list(self._tables):
            if property_id not in live:
                _release_segment(self._tables.pop(property_id)[1])
        return manifest

    def close(self) -> None:
        for _, shm, _ in self._tables.values():
            _release_segment(shm)
        self._tables.clear()


def attach_store(
    manifest: Sequence[TableManifest],
    *,
    kernels: KernelBackend,
    algorithm: str = "auto",
) -> Tuple[TripleStore, List[shared_memory.SharedMemory]]:
    """A read-only TripleStore over exported segments (worker side).

    Returns the store plus the attached segments, which the caller
    must keep alive while the store is in use and close afterwards.
    """
    store = TripleStore(algorithm=algorithm, backend=kernels)
    segments: List[shared_memory.SharedMemory] = []
    for property_id, name, n_values in manifest:
        shm = _attach_segment(name)
        segments.append(shm)
        store.attach_shared_table(
            property_id, kernels.from_buffer(shm.buf, n_values)
        )
    return store, segments


def buffers_to_segment(
    buffers: InferredBuffers,
) -> Tuple[Optional[str], List[Tuple[int, int]]]:
    """Serialize a task's output buffers into one shared segment.

    Returns ``(segment name, [(property_id, n_values), …])`` — or
    ``(None, [])`` when nothing was emitted.  The segment is created
    *disowned*: the parent (which absorbs it) unlinks it, so a worker
    exiting early never races the parent's reads.
    """
    parts: List[Tuple[int, int, bytes]] = []
    total = 0
    for property_id, chunks in buffers.chunk_items():
        blob = b"".join(_flat_to_bytes(chunk) for chunk in chunks)
        if not blob:
            continue
        parts.append((property_id, len(blob) // 8, blob))
        total += len(blob)
    if not total:
        return None, []
    shm = _create_segment(total)
    offset = 0
    entries: List[Tuple[int, int]] = []
    for property_id, n_values, blob in parts:
        shm.buf[offset: offset + len(blob)] = blob
        offset += len(blob)
        entries.append((property_id, n_values))
    name = shm.name
    shm.close()
    return name, entries


def discard_result_segment(name: str) -> None:
    """Release a worker output segment without reading it.

    Error-path cleanup: output segments are created *disowned* (no
    resource tracker), so when an iteration unwinds before absorbing a
    completed sibling task, the parent must still unlink its segment
    or it leaks until reboot.  Tolerates segments already released.
    """
    try:
        shm = _attach_segment(name)
    except FileNotFoundError:
        return
    _release_segment(shm)


def segment_to_buffers(
    name: str,
    entries: Sequence[Tuple[int, int]],
    out: InferredBuffers,
) -> None:
    """Absorb a worker's output segment into ``out`` (parent side).

    The pair data is copied into parent-owned ``array('q')`` chunks
    (the Figure-5 merge concatenates chunks anyway) and the segment is
    released immediately.
    """
    shm = _attach_segment(name)
    try:
        offset = 0
        for property_id, n_values in entries:
            chunk = array("q")
            chunk.frombytes(bytes(shm.buf[offset: offset + 8 * n_values]))
            offset += 8 * n_values
            if len(chunk):
                out.extend(property_id, chunk)
    finally:
        _release_segment(shm)


# ----------------------------------------------------------------------
# Worker process state and entrypoints (spawn-safe: module level)
# ----------------------------------------------------------------------
class _WorkerState:
    """Per-process state built once by the pool initializer."""

    def __init__(
        self,
        rules: Sequence[Rule],
        vocab_ids: Dict[str, int],
        backend_name: str,
        algorithm: str,
    ):
        self.rules = list(rules)
        vocab = Vocab.__new__(Vocab)
        vocab._ids = dict(vocab_ids)
        self.vocab = vocab
        self.kernels = resolve_backend(backend_name, algorithm=algorithm)
        self.algorithm = algorithm
        #: role → (manifest key, store, attached segments).  One cached
        #: generation per role; superseded generations are dropped at
        #: the next attach, after their store (and every view into the
        #: old segments) is released.
        self._stores: Dict[str, Tuple[tuple, TripleStore, list]] = {}

    def store_for(
        self, role: str, manifest: Sequence[TableManifest]
    ) -> TripleStore:
        key = tuple(manifest)
        cached = self._stores.get(role)
        if cached is not None and cached[0] == key:
            return cached[1]
        # Release this frame's reference before dropping, or the old
        # generation's views stay alive through the close calls.
        cached = None
        self._drop(role)
        store, segments = attach_store(
            manifest, kernels=self.kernels, algorithm=self.algorithm
        )
        self._stores[role] = (key, store, segments)
        return store

    def _drop(self, role: str) -> None:
        cached = self._stores.pop(role, None)
        if cached is None:
            return
        segments = cached[2]
        # Drop every reference to the store (and with it the tables'
        # zero-copy views into the segments) before closing.
        del cached
        for shm in segments:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - view still alive
                pass

    def close(self) -> None:
        """Release every cached store generation (worker exit)."""
        for role in list(self._stores):
            self._drop(role)


_WORKER: Optional[_WorkerState] = None


def _worker_cleanup() -> None:
    """Release the worker's cached stores/segments at process exit.

    Registered as a :class:`multiprocessing.util.Finalize` (plain
    ``atexit`` does not run in multiprocessing children): releasing the
    store views *before* interpreter teardown keeps the segments'
    ``__del__`` from hitting live exported pointers.
    """
    global _WORKER
    state = _WORKER
    _WORKER = None
    if state is not None:
        state.close()


def _worker_init(
    rules: Sequence[Rule],
    vocab_ids: Dict[str, int],
    backend_name: str,
    algorithm: str,
) -> None:
    global _WORKER
    _WORKER = _WorkerState(rules, vocab_ids, backend_name, algorithm)
    from multiprocessing import util

    util.Finalize(None, _worker_cleanup, exitpriority=100)


def _worker_fire(
    rule_index: int,
    shard: Optional[Tuple[int, int]],
    main_manifest: Sequence[TableManifest],
    new_manifest: Optional[Sequence[TableManifest]],
    iteration: int,
    theta_prepass_done: bool,
) -> Tuple[Optional[str], List[Tuple[int, int]], Dict[str, int], float]:
    """Fire one rule (or one shard) against the exported snapshot.

    ``new_manifest=None`` means ``new`` *is* ``main`` (Algorithm 1's
    first iteration sees everything as new).  Returns the serialized
    output segment, the per-rule emission counters and the busy time.
    """
    import time

    _fire_fault("parallel.worker", f"rule_index={rule_index}")
    state = _WORKER
    assert state is not None, "worker used before initialization"
    main = state.store_for("main", main_manifest)
    new = (
        main
        if new_manifest is None
        else state.store_for("new", new_manifest)
    )
    buffers = InferredBuffers()
    ctx = RuleContext(
        main=main,
        new=new,
        out=buffers,
        vocab=state.vocab,
        iteration=iteration,
        theta_prepass_done=theta_prepass_done,
        kernels=state.kernels,
    )
    rule = state.rules[rule_index]
    started = time.perf_counter()
    if shard is None:
        rule.apply(ctx)
    else:
        rule.apply_shard(ctx, shard)
    elapsed = time.perf_counter() - started
    name, entries = buffers_to_segment(buffers)
    return name, entries, ctx.stats, elapsed


# ----------------------------------------------------------------------
# The parent-side session
# ----------------------------------------------------------------------
class ProcessSession:
    """A process pool + shared-memory mirrors for rule firing.

    Created lazily by the scheduler and kept alive for the Store's
    lifetime: the scheduler exports each iteration's ``(main, new)``
    snapshot once (identity-keyed segment reuse makes re-exports across
    incremental flushes track the delta, not the store size), submits
    ``(rule, shard)`` tasks, and absorbs the returned segments in
    deterministic order.  ``shutdown()`` joins the workers and unlinks
    every live segment; :attr:`broken` reports a dead pool (worker
    killed) so the owner can rebuild instead of reusing it.
    """

    mode = "process"

    def __init__(
        self,
        *,
        workers: int,
        rules: Sequence[Rule],
        vocab: Vocab,
        kernels: KernelBackend,
        algorithm: str = "auto",
        start_method: Optional[str] = None,
    ):
        if not process_mode_supported():  # pragma: no cover - platform
            raise ProcessModeUnavailable(
                f"process parallel mode is unsupported on {sys.platform}"
            )
        rules = list(rules)
        try:
            pickle.dumps(rules)
        except Exception as error:
            raise ProcessModeUnavailable(
                "process parallel mode needs picklable rule executors "
                f"(custom rule list failed to serialize: {error!r}); "
                "use parallel_mode='thread'"
            ) from error
        if start_method is None:
            start_method = env_choice(START_METHOD_ENV, None)
        from concurrent.futures import ProcessPoolExecutor

        try:
            context = get_context(start_method)
        except ValueError as error:
            raise ProcessModeUnavailable(
                f"unknown multiprocessing start method "
                f"{start_method!r}: {error}"
            ) from error
        self._executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_worker_init,
            initargs=(rules, dict(vocab._ids), kernels.name, algorithm),
        )
        self._main_exporter = SharedStoreExporter()
        self._new_exporter = SharedStoreExporter()
        self.start_method = context.get_start_method()

    def export(
        self, main: TripleStore, new: TripleStore
    ) -> Tuple[List[TableManifest], Optional[List[TableManifest]]]:
        """Mirror the iteration's snapshot; returns both manifests.

        ``new is main`` (first iteration) exports once and signals the
        aliasing with a ``None`` new-manifest.
        """
        main_manifest = self._main_exporter.export(main)
        if new is main:
            return main_manifest, None
        return main_manifest, self._new_exporter.export(new)

    def submit(
        self,
        rule_index: int,
        shard: Optional[Tuple[int, int]],
        main_manifest: Sequence[TableManifest],
        new_manifest: Optional[Sequence[TableManifest]],
        iteration: int,
        theta_prepass_done: bool,
    ):
        return self._executor.submit(
            _worker_fire,
            rule_index,
            shard,
            main_manifest,
            new_manifest,
            iteration,
            theta_prepass_done,
        )

    @property
    def broken(self) -> bool:
        """Whether the underlying pool has died (e.g. a worker was
        killed) and the session must be rebuilt before reuse."""
        return bool(getattr(self._executor, "_broken", False))

    def export_stats(self) -> Dict[str, int]:
        """Lifetime segment counters across both exported roles."""
        return {
            "segments_created": (
                self._main_exporter.segments_created
                + self._new_exporter.segments_created
            ),
            "segments_reused": (
                self._main_exporter.segments_reused
                + self._new_exporter.segments_reused
            ),
        }

    def shutdown(self) -> None:
        self._executor.shutdown(wait=True)
        self._main_exporter.close()
        self._new_exporter.close()
