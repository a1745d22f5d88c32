"""Instrumented Inferray engines for the memory figures and the
⟨o, s⟩-cache ablation.

The served engine has no tracing or ablation option.  Instead,
:func:`instrumented_engine` installs a :class:`TripleStore` subclass as
the engine's main store.  The store builds every view, delta and copy
as ``type(self)``, so its tables stay instrumented across the fixed
point.  Each table reports one sequential scan per table-level
operation, i.e. its commit sort, its ⟨o, s⟩ view and each Figure-5
merge, on ``("table", property_id)``, and the θ rules report
Nuutila's two passes on ``("closure", property_id)``.  The
:mod:`paper.memsim` hierarchy expands these operations into address
streams.
"""

from __future__ import annotations

from repro.core.engine import InferrayEngine
from repro.rules import ThetaRule, get_ruleset
from repro.store.property_table import PropertyTable
from repro.store.triple_store import TripleStore


class InstrumentedTable(PropertyTable):
    """A property table that reports its passes to its store's tracer
    and, when the store says ``cache_os=False``, recomputes the ⟨o, s⟩
    view on every call."""

    __slots__ = ("_store", "_property_id")

    def __init__(self, store, property_id, pairs=None, *, presorted=False):
        self._store = store
        self._property_id = property_id
        super().__init__(pairs, backend=store.kernels, presorted=presorted)
        if not presorted:
            self._scan(self.n_pairs)  # the commit sort

    def _scan(self, n_pairs: int) -> None:
        tracer = self._store.tracer
        if tracer is not None and n_pairs:
            tracer.sequential_scan(("table", self._property_id), 16 * n_pairs)

    def os_pairs(self):
        if self._os_cache is None:
            self._scan(self.n_pairs)  # the ⟨o, s⟩ sort
        view = super().os_pairs()
        if not self._store.cache_os:
            self._os_cache = None
        return view

    def merge(self, inferred_sorted):
        if len(inferred_sorted):
            self._scan((len(self._pairs) + len(inferred_sorted)) // 2)
        return super().merge(inferred_sorted)


class InstrumentedStore(TripleStore):
    """An engine's main store whose tables are :class:`InstrumentedTable`.

    Its per-iteration deltas trace to the same tracer.  The tables a
    self-fed rule's trimmed delta (:meth:`without`) builds for itself
    keep ``cache_os`` but are not traced: the figures count the passes
    over the main store and its deltas.
    """

    tracer = None
    cache_os = True

    def _new_table(self, property_id, pairs=None, *, presorted=False):
        return InstrumentedTable(self, property_id, pairs, presorted=presorted)

    def merge_inferred(self, inferred, own=None):
        delta = super().merge_inferred(inferred, own)
        delta.tracer, delta.cache_os = self.tracer, self.cache_os
        return delta

    def without(self, rows, keep):
        view = super().without(rows, keep)
        view.cache_os = self.cache_os
        return view


class TracedThetaRule(ThetaRule):
    """A θ rule that reports each closure's passes to a tracer."""

    def __init__(self, rule: ThetaRule, tracer):
        super().__init__(rule.name, rule.descriptions[0], rule.rule_class)
        self.tracer = tracer

    def _close_property(self, ctx, pid: int) -> int:
        n_edges = ctx.main.table_size(pid)
        n_closed = super()._close_property(ctx, pid)
        # Nuutila's temporary layout: one streaming pass over the edges
        # plus a sequential write of the closed pair array.
        self.tracer.sequential_scan(("closure", pid), 16 * n_edges)
        self.tracer.sequential_scan(("closure", pid), 16 * n_closed)
        return n_closed


def instrumented_engine(ruleset, *, tracer=None, cache_os=True):
    """A sequential :class:`InferrayEngine` over an instrumented store.

    ``tracer`` (a :class:`paper.memsim.tracer.RecordingTracer`)
    receives the table and θ-closure scans; the engine runs one worker
    because a tracer records a single address stream.
    ``cache_os=False`` is the §4.2 ablation: every ⟨o, s⟩ view is
    recomputed on use and none is kept.  Loads and flushes stay
    instrumented; ``retract`` and ``restore`` install a plain store.
    """
    rules = get_ruleset(ruleset) if isinstance(ruleset, str) else list(ruleset)
    if tracer is not None:
        rules = [
            TracedThetaRule(rule, tracer) if isinstance(rule, ThetaRule)
            else rule
            for rule in rules
        ]
    engine = InferrayEngine(rules, workers=1)
    engine.main = InstrumentedStore(backend=engine.kernels)
    engine.main.tracer = tracer
    engine.main.cache_os = cache_os
    return engine
