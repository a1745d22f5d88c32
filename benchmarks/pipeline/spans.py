"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files, around the calls it
makes into each layer; nothing inside ``repro`` is instrumented.  A span
has a name (``<layer>.<call>``), a start and end on ``perf_counter``, the
id of the span that caused it, and the id of the operation it belongs to,
so that every span of one ingest or one request shares an identifier.

Self time of a span is its duration minus the part of that interval its
child spans cover; summing self time by layer is what lets the per-layer
figures add up to the wall clock of the stepped path.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


def layer_of(name: str) -> str:
    """The layer (module name) a span or metric belongs to."""
    return name.split(".", 1)[0]


class SpanRecorder:
    """Collects spans in memory; written out once, when the run ends."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._next_op = 0

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def new_op(self) -> int:
        """A fresh operation id; every span of one operation carries it."""
        with self._lock:
            self._next_op += 1
            return self._next_op

    def _stack(self) -> List[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[dict]:
        """Time the enclosed block; nests under the thread's open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = {
            "id": self._new_id(),
            "op": op if op is not None else (parent["op"] if parent else 0),
            "name": name,
            "parent": parent["id"] if parent else None,
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def add_child(
        self, parent: dict, name: str, start: float, seconds: float
    ) -> dict:
        """Record a child span whose duration the callee reported.

        ``MaterializationStats`` returns how long the θ prepass, the rule
        firing and the merges took inside one ``materialize()`` call; the
        benchmark lays them out back to back inside the parent span so
        that the parent's self time is what the stats do not explain.
        """
        start = max(start, parent["start"])
        end = start + max(0.0, seconds)
        if parent["end"] is not None:
            end = min(end, parent["end"])
        record = {
            "id": self._new_id(),
            "op": parent["op"],
            "name": name,
            "parent": parent["id"],
            "start": start,
            "end": max(start, end),
        }
        self.spans.append(record)
        return record

    def self_times(self, op: Optional[int] = None) -> Dict[int, float]:
        """Span id → self seconds (duration minus children's coverage)."""
        spans = [s for s in self.spans if op is None or s["op"] == op]
        covered: Dict[int, float] = {}
        for span in spans:
            if span["parent"] is not None:
                covered[span["parent"]] = covered.get(span["parent"], 0.0) + (
                    span["end"] - span["start"]
                )
        return {
            span["id"]: max(
                0.0, span["end"] - span["start"] - covered.get(span["id"], 0.0)
            )
            for span in spans
        }

    def layer_self_seconds(self, op: int, root_name: str) -> Dict[str, float]:
        """Self seconds per layer for one operation, its root span apart.

        The root span only frames the operation; its own self time is the
        part of the wall clock no layer accounts for, reported under the
        key ``"unattributed"``.
        """
        self_times = self.self_times(op)
        out: Dict[str, float] = {}
        for span in self.spans:
            if span["op"] != op:
                continue
            key = (
                "unattributed"
                if span["name"] == root_name and span["parent"] is None
                else layer_of(span["name"])
            )
            out[key] = out.get(key, 0.0) + self_times[span["id"]]
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle, separators=(",", ":"))
