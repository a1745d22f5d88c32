"""Chaos tests: a rule that fails mid-iteration on the thread pool.

The invariant under test: when one rule of an iteration raises, the
flush fails only after every other rule of that iteration has
finished, so no firing outlives the failed ``materialize()`` and
shares the pool with the next flush (or with serving's retry).  The
engine stays unmaterialized, and the retry reaches the sequential
closure byte for byte.
"""

import threading
import time

import pytest

from repro.core.engine import InferrayEngine
from repro.datasets.bsbm import bsbm_like
from repro.rules.rulesets import get_ruleset
from repro.rules.spec import Rule


class FailOnce(Rule):
    """Raises on its first firing only, so a retry can succeed."""

    def __init__(self, name):
        super().__init__(name)
        self.raised = False

    def apply(self, ctx):
        if not self.raised:
            self.raised = True
            raise RuntimeError("rule failed mid-iteration")


class SlowOnce(Rule):
    """Sleeps through its first firing, then sets ``finished``."""

    def __init__(self, name):
        super().__init__(name)
        self.finished = threading.Event()

    def apply(self, ctx):
        if not self.finished.is_set():
            time.sleep(0.3)
            self.finished.set()


def table_bytes(engine):
    return [
        (pid, bytes(flat.tobytes()))
        for pid, flat in engine.main.table_arrays()
    ]


def test_failed_iteration_waits_for_its_siblings():
    data = bsbm_like(20)
    reference = InferrayEngine("rdfs-default", workers=1)
    reference.load_triples(data)
    reference.materialize()

    # The pool fires the whole catalogue at once, the failing rule
    # first.
    failing, slow = FailOnce("FAIL"), SlowOnce("SLOW")
    engine = InferrayEngine(
        [failing, slow] + get_ruleset("rdfs-default"),
        workers=2,
    )
    engine.load_triples(data)
    try:
        with pytest.raises(RuntimeError, match="rule failed mid-iteration"):
            engine.materialize()
        assert slow.finished.is_set()
        assert not engine.is_materialized
        engine.materialize()
    finally:
        engine.close()
    assert engine.is_materialized
    assert table_bytes(engine) == table_bytes(reference)
