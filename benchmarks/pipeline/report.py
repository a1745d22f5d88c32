"""Metric bookkeeping, the BENCHMARK.json declaration, and ``--compare``.

``BENCHMARK.json`` at the root of the repository is the one declaration
of every metric's name, unit, direction and regression bound; a run
refuses to report a set of names that differs from it.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DECLARATION = ROOT / "BENCHMARK.json"


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(q * len(ordered) + 0.999999)))
    return ordered[rank - 1]


def quartiles(values: Sequence[float]) -> Optional[List[float]]:
    """[q1, q3] as ``statistics.quantiles(n=4)`` gives them, or None."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


class Tally:
    """Operations attempted and failed, and correctness-gate mismatches."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []

    def op(self, ok: bool = True) -> bool:
        """Count one operation; a failed one has no latency."""
        self.attempted += 1
        if not ok:
            self.failed += 1
        return ok

    def gate(self, ok: bool, what: str) -> bool:
        """A correctness check: a wrong output is also a failed operation."""
        self.op(ok)
        if not ok:
            self.mismatches.append(what)
        return ok

    @property
    def correct(self) -> bool:
        return not self.mismatches


class Metrics:
    """Named samples; a metric's value is their median."""

    def __init__(self) -> None:
        self._samples: Dict[str, List[float]] = {}
        self._units: Dict[str, str] = {}

    def add(self, name: str, unit: str, values: Iterable[float]) -> None:
        self._samples.setdefault(name, []).extend(float(v) for v in values)
        self._units[name] = unit

    def set(self, name: str, unit: str, value: float) -> None:
        self.add(name, unit, [value])

    def value(self, name: str) -> float:
        return statistics.median(self._samples[name])

    def describe(self) -> Dict[str, dict]:
        """name → {value, unit, n, quartiles} for the report and --json."""
        out = {}
        for name, samples in self._samples.items():
            out[name] = {
                "value": self.value(name),
                "unit": self._units[name],
                "n": len(samples),
                "quartiles": quartiles(samples),
            }
        return out


def load_declaration() -> dict:
    with open(DECLARATION, "r", encoding="utf-8") as handle:
        return json.load(handle)


def declared(kind: str) -> Dict[str, dict]:
    """name → entry for ``end_to_end`` or ``per_layer``."""
    return {entry["name"]: entry for entry in load_declaration()[kind]}


def check_names(metrics: Metrics, kind: str) -> None:
    """The run must report exactly the declared names, with their units."""
    want = declared(kind)
    got = metrics.describe()
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    if missing or extra:
        raise SystemExit(
            f"pipeline bench: {kind} metrics differ from BENCHMARK.json "
            f"(missing {missing}, undeclared {extra})"
        )
    for name, entry in want.items():
        if got[name]["unit"] != entry["unit"]:
            raise SystemExit(
                f"pipeline bench: {name} reported in {got[name]['unit']!r}, "
                f"declared in {entry['unit']!r}"
            )


# ----------------------------------------------------------------------
# --compare A.json B.json
# ----------------------------------------------------------------------
def _runs_by_workload(path: str) -> Dict[str, List[dict]]:
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    grouped: Dict[str, List[dict]] = {}
    for run in document["runs"]:
        if not run.get("traced"):
            grouped.setdefault(run["workload"], []).append(run)
    return grouped


def _spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile distance as a share of the median, or None."""
    q = quartiles(values)
    median = statistics.median(values)
    if q is None or not median:
        return None
    return (q[1] - q[0]) / abs(median)


def compare(path_a: str, path_b: str) -> int:
    """Print, per (metric, workload), B against A under the metric's bound.

    A pair whose run-to-run spread (on either side) exceeds the bound is
    *unresolved*: the runs cannot tell an unchanged metric from a moved
    one, so it is not reported as unchanged.  Returns 1 if any pair
    regressed, else 0.
    """
    bounds = declared("end_to_end")
    runs_a, runs_b = _runs_by_workload(path_a), _runs_by_workload(path_b)
    regressed = 0

    def share(spread: Optional[float]) -> str:
        return "-" if spread is None else f"{spread:.1%}"

    header = (
        f"{'workload':<20} {'metric':<28} {'A median':>12} {'B median':>12} "
        f"{'B vs A':>8} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict"
    )
    print(header)
    for workload in sorted(set(runs_a) & set(runs_b)):
        for name, entry in bounds.items():
            a = [r["metrics"][name]["value"] for r in runs_a[workload]
                 if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in runs_b[workload]
                 if name in r["metrics"]]
            if not a or not b:
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            change = (med_b - med_a) / abs(med_a) if med_a else 0.0
            worse = change if entry["better"] == "lower" else -change
            spread_a, spread_b = _spread(a), _spread(b)
            known = [s for s in (spread_a, spread_b) if s is not None]
            bound = entry["bound"]
            if len(known) < 2:
                verdict = "unresolved (one run a side: no spread)"
            elif max(known) > bound:
                verdict = "unresolved (spread exceeds bound)"
            elif worse > bound:
                verdict = "REGRESSED"
                regressed += 1
            elif worse < -bound:
                verdict = "improved"
            else:
                verdict = "unchanged"
            print(
                f"{workload:<20} {name:<28} {med_a:>12.5g} {med_b:>12.5g} "
                f"{change:>+8.1%} {share(spread_a):>9} {share(spread_b):>9} "
                f"{bound:>6.0%}  {verdict}"
            )
    return 1 if regressed else 0
