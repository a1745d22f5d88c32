"""Serving metrics: flush latency, staleness, epochs, back-pressure.

Everything is in-process and allocation-light: counters are plain ints,
latency distributions are fixed-size rings over recent observations
(enough for p50/p99 under steady load without unbounded growth), and
:meth:`ServingMetrics.render` emits the Prometheus text exposition
format so ``/metrics`` can be scraped by anything.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Dict, List, Optional

__all__ = ["LatencyWindow", "ServingMetrics"]


class LatencyWindow:
    """A fixed-size ring of recent observations with quantile queries.

    Thread-safe: request handlers observe from the event loop while the
    bench (or a scraper) reads percentiles concurrently.
    """

    def __init__(self, size: int = 1024):
        self._window: deque = deque(maxlen=size)
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        with self._lock:
            self._window.append(value)
            self.count += 1
            self.total += value

    def percentile(self, q: float) -> Optional[float]:
        """The q-quantile (0..1) over the retained window, or ``None``."""
        with self._lock:
            values = sorted(self._window)
        if not values:
            return None
        index = min(len(values) - 1, max(0, math.ceil(q * len(values)) - 1))
        return values[index]

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None


class ServingMetrics:
    """All counters and distributions the server exposes at ``/metrics``."""

    def __init__(self):
        self.requests_total: Dict[str, int] = {}
        self.rejected_total = 0  # 429 back-pressure rejections
        self.errors_total = 0  # 4xx/5xx other than back-pressure
        self.flush_total = 0
        self.flush_failures_total = 0
        # Write-ahead log counters (all zero when serving without one).
        self.wal_appended_total = 0
        self.wal_append_errors_total = 0
        self.wal_replayed_total = 0
        self.wal_checkpoints_total = 0
        self.coalesced_mutations_total = 0  # mutations merged into batches
        self.flushed_triples_total = 0
        self.flush_batch_max = 0
        self.flush_latency = LatencyWindow()
        #: Wall seconds per answered ``/query``, from evaluation to the
        #: rendered body (not parsing the request or writing the
        #: response).  It includes the time the loop spent on other
        #: requests while this one waited for its evaluation thread or
        #: yielded between render slices.
        self.read_latency = LatencyWindow()
        #: Epoch lag observed by reads that pinned an older epoch.
        self.read_epoch_lag = LatencyWindow(size=4096)

    def count_request(self, verb: str) -> None:
        self.requests_total[verb] = self.requests_total.get(verb, 0) + 1

    def record_flush(self, seconds: float, batch: int, triples: int) -> None:
        self.flush_total += 1
        self.coalesced_mutations_total += batch
        self.flushed_triples_total += triples
        self.flush_batch_max = max(self.flush_batch_max, batch)
        self.flush_latency.observe(seconds)

    def flush_summary(self) -> Dict[str, Optional[float]]:
        """The flush-side numbers the bench report embeds."""
        window = self.flush_latency
        mean_batch = (
            self.coalesced_mutations_total / self.flush_total
            if self.flush_total
            else None
        )
        return {
            "flushes": self.flush_total,
            "failures": self.flush_failures_total,
            "coalesced_mutations": self.coalesced_mutations_total,
            "flushed_triples": self.flushed_triples_total,
            "mean_batch": mean_batch,
            "max_batch": self.flush_batch_max,
            "p50_seconds": window.percentile(0.5),
            "p99_seconds": window.percentile(0.99),
            "mean_seconds": window.mean,
        }

    def render(
        self,
        gauges: Dict[str, float],
        raw_gauges: Optional[Dict[str, float]] = None,
    ) -> str:
        """Prometheus text format; ``gauges`` carries live server state
        (epoch, queue depth, staleness…) sampled at scrape time.

        ``gauges`` names are emitted under the ``repro_serving_``
        prefix; ``raw_gauges`` names are emitted verbatim — for
        metrics whose canonical name belongs to another subsystem
        (e.g. ``repro_hybrid_absorbed_rules``).
        """
        lines: List[str] = []

        def emit(name: str, value, labels: str = "") -> None:
            if value is None:
                return
            lines.append(f"repro_serving_{name}{labels} {_fmt(value)}")

        for name, value in (raw_gauges or {}).items():
            if value is not None:
                lines.append(f"{name} {_fmt(value)}")
        for name, value in gauges.items():
            emit(name, value)
        for verb, count in sorted(self.requests_total.items()):
            emit("requests_total", count, f'{{verb="{verb}"}}')
        emit("rejected_total", self.rejected_total)
        emit("errors_total", self.errors_total)
        emit("flush_total", self.flush_total)
        emit("flush_failures_total", self.flush_failures_total)
        emit("wal_appended_total", self.wal_appended_total)
        emit("wal_append_errors_total", self.wal_append_errors_total)
        emit("wal_replayed_total", self.wal_replayed_total)
        emit("wal_checkpoints_total", self.wal_checkpoints_total)
        emit("coalesced_mutations_total", self.coalesced_mutations_total)
        emit("flushed_triples_total", self.flushed_triples_total)
        emit("flush_batch_max", self.flush_batch_max)
        for window, prefix in (
            (self.flush_latency, "flush_latency_seconds"),
            (self.read_latency, "read_latency_seconds"),
            (self.read_epoch_lag, "read_epoch_lag"),
        ):
            for q in (0.5, 0.9, 0.99):
                emit(prefix, window.percentile(q), f'{{quantile="{q}"}}')
            emit(f"{prefix}_count", window.count)
            emit(f"{prefix}_sum", window.total)
        return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))
