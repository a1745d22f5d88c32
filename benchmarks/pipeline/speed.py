"""Machine-speed calibration: what keeps the timings steady on a shared host.

The box this benchmark is sized on (and the one its driver runs it on)
is a few cores of a shared host whose speed changes by up to 1.6× for
stretches of seconds to minutes: ten back-to-back runs of the same
ingest gave medians from 0.39 s to 0.60 s, and no run length the time
cap allows averages that out.  What does cancel it is a yardstick
measured beside every sample.  A short pure-Python loop slows and speeds
with the machine exactly as the pipeline does (interpreter-bound parse
and numpy-bound closure alike: the same ten runs read 69–77 and 47–53
after division), so every end-to-end timing is reported as

    wall seconds × REFERENCE_S / (yardstick seconds beside the sample)

— the time the operation would have taken had the machine run at the
speed at which the yardstick takes :data:`REFERENCE_S`.  Units stay
seconds, a change to the program moves the figure in proportion, and the
figure no longer moves when only the neighbours do.  The run's median
speed is printed as ``machine_speed`` so wall seconds can be had back.
The traced run's per-layer timings are wall seconds as measured.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

#: Seconds one :func:`spin` takes on the sizing box at its usual speed.
#: A constant of the benchmark: changing it rescales every timing.
REFERENCE_S = 0.0036

#: A yardstick reading is the median of this many spins.
SPINS = 3

#: A reading taken less than this long ago still stands.
FRESH_S = 0.02


def spin() -> float:
    """One pass of the yardstick loop: integer arithmetic, a dict store
    and the loop itself — the interpreter work the pipeline is made of."""
    started = time.perf_counter()
    table: Dict[int, int] = {}
    total = 0
    for i in range(40_000):
        total += i * i
        table[i & 1023] = total
    return time.perf_counter() - started


class Timings:
    """Named timing samples, each divided by the machine's speed at the
    time it was taken.

    Samples are recorded inside a :meth:`block`; when the block closes,
    a yardstick reading is taken and everything recorded inside is
    scaled by the mean of the readings before and after.  With
    ``normalise=False`` (the traced run) blocks cost nothing and samples
    stay wall seconds.
    """

    def __init__(self, normalise: bool = True) -> None:
        self.normalise = normalise
        self.factors: List[float] = []   # yardstick / reference, per block
        self._samples: Dict[str, List[float]] = {}
        self._pending: List[Tuple[str, float]] = []
        self._reading = 0.0
        self._read_at = float("-inf")

    def _read(self) -> float:
        """Yardstick seconds now; a reading just taken is reused."""
        if time.perf_counter() - self._read_at > FRESH_S:
            self._reading = statistics.median(spin() for _ in range(SPINS))
            self._read_at = time.perf_counter()
        return self._reading

    def record(self, name: str, seconds: float) -> None:
        """One sample; callable from any thread while a block is open."""
        self._pending.append((name, seconds))

    @contextmanager
    def block(self) -> Iterator[None]:
        """A stretch short enough for the machine's speed to be one
        number: a single long operation, or a fraction of a second of
        short ones."""
        before = self._read() if self.normalise else REFERENCE_S
        try:
            yield
        finally:
            self._read_at = float("-inf")
            after = self._read() if self.normalise else REFERENCE_S
            factor = (before + after) / (2 * REFERENCE_S)
            pending, self._pending = self._pending, []
            for name, seconds in pending:
                self._samples.setdefault(name, []).append(seconds / factor)
            if self.normalise:
                self.factors.append(factor)

    def samples(self, name: str) -> List[float]:
        return self._samples.get(name, [])

    def names(self, prefix: str) -> List[str]:
        return sorted(n for n in self._samples if n.startswith(prefix))

    @property
    def machine_speed(self) -> float:
        """Median speed over the run's blocks, 1.0 = the reference."""
        return 1.0 / statistics.median(self.factors) if self.factors else 1.0
