"""Benchmark harness: timing, engine runners and table assembly.

Mirrors the paper's measurement protocol at laptop scale: each
measurement is repeated (default one warm-up + three timed runs — the
paper uses two warm-ups + five runs) and summarized by the **median**
(robust to one noisy run on a shared machine; the mean is what a
single GC pause or page-cache miss skews).  The raw timings and their
spread ride along on every result so reports can show the noise.
Every engine run carries a timeout; timed-out cells are reported as
``None`` and printed as '–', the way the paper's tables mark
OWLIM/RDFox timeouts.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.engine import InferrayEngine, MaterializationTimeout
from repro.rdf.terms import Triple

#: Engine-name → factory(ruleset) used by the comparison benchmarks.
ENGINE_FACTORIES: Dict[str, Callable] = {}


def _register_engines() -> None:
    from repro.baselines.hashjoin import HashJoinEngine
    from repro.baselines.naive import NaiveEngine
    from repro.baselines.rete import ReteEngine

    ENGINE_FACTORIES.update(
        {
            "inferray": InferrayEngine,
            "hashjoin": HashJoinEngine,
            "rete": ReteEngine,
            "naive": NaiveEngine,
        }
    )


_register_engines()


@dataclass
class RunResult:
    """One (engine, workload) measurement."""

    engine: str
    dataset: str
    ruleset: str
    seconds: Optional[float]  # median across runs; None = timeout
    n_input: int = 0
    n_inferred: int = 0
    n_total: int = 0
    runs: List[float] = field(default_factory=list)

    @property
    def milliseconds(self) -> Optional[float]:
        """Median wall time in ms, or None on timeout."""
        if self.seconds is None:
            return None
        return self.seconds * 1000.0

    @property
    def spread_seconds(self) -> Optional[float]:
        """Max-min spread across the timed runs (None on timeout)."""
        if self.seconds is None or not self.runs:
            return None
        return max(self.runs) - min(self.runs)

    @property
    def throughput(self) -> Optional[float]:
        """Inferred triples per second, or None on timeout."""
        if self.seconds is None or self.seconds <= 0:
            return None
        return self.n_inferred / self.seconds

    def cell(self) -> str:
        """Paper-style table cell: integer ms, or '–' on timeout."""
        if self.seconds is None:
            return "–"
        return f"{self.seconds * 1000.0:,.0f}"


def run_engine(
    engine_name: str,
    ruleset: str,
    data: Sequence[Triple],
    *,
    dataset_name: str = "",
    timeout_seconds: float = 60.0,
    warmup: int = 1,
    runs: int = 3,
    engine_kwargs: Optional[Dict] = None,
    label: Optional[str] = None,
) -> RunResult:
    """Measure one engine materializing one workload.

    Every run builds a fresh engine (load time excluded from the timed
    region is *not* attempted — the paper measures inference time for
    the in-memory engines, so we time ``materialize()`` only).

    ``engine_kwargs`` are forwarded to the engine factory (e.g.
    ``{"backend": "numpy"}`` to pin the Inferray kernel backend);
    ``label`` overrides the engine name recorded on the result, so one
    engine can appear as several table columns (backend comparisons).
    """
    factory = ENGINE_FACTORIES[engine_name]
    kwargs = engine_kwargs or {}
    data = list(data)
    outcome: Dict[str, int] = {}

    def once() -> Dict[str, int]:
        engine = factory(ruleset, **kwargs)
        engine.load_triples(data)
        started = time.perf_counter()
        engine.materialize(timeout_seconds=timeout_seconds)
        elapsed = time.perf_counter() - started
        stats = engine.stats  # same shape on Inferray and baselines
        return {
            "n_input": stats.n_input,
            "n_inferred": stats.n_inferred,
            "n_total": stats.n_total,
            "seconds": elapsed,
        }

    median_seconds: Optional[float]
    try:
        for _ in range(warmup):
            outcome = once()
        timings = []
        for _ in range(runs):
            outcome = once()
            timings.append(outcome["seconds"])
        median_seconds = statistics.median(timings)
    except MaterializationTimeout:
        return RunResult(
            engine=label or engine_name,
            dataset=dataset_name,
            ruleset=ruleset,
            seconds=None,
            n_input=len(data),
        )
    return RunResult(
        engine=label or engine_name,
        dataset=dataset_name,
        ruleset=ruleset,
        seconds=median_seconds,
        n_input=outcome.get("n_input", len(data)),
        n_inferred=outcome.get("n_inferred", 0),
        n_total=outcome.get("n_total", 0),
        runs=timings,
    )


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[str]]
) -> str:
    """Fixed-width plain-text table (right-aligned data columns)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(str(cell)))
    lines = []
    header_line = "  ".join(
        str(h).ljust(widths[i]) if i == 0 else str(h).rjust(widths[i])
        for i, h in enumerate(headers)
    )
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(
                str(cell).ljust(widths[i])
                if i == 0
                else str(cell).rjust(widths[i])
                for i, cell in enumerate(row)
            )
        )
    return "\n".join(lines)
