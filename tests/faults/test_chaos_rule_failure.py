"""Chaos test: a rule that fails mid-iteration.

The invariant under test: when one rule of an iteration raises, the
flush fails with nothing of that iteration merged, the engine stays
unmaterialized, and the retry reaches the closure of an engine that
never failed, byte for byte.
"""

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


def table_bytes(engine):
    return [
        (pid, bytes(flat.tobytes()))
        for pid, flat in engine.main.table_arrays()
    ]


def test_failed_iteration_leaves_the_engine_unmaterialized():
    data = bsbm_like(20)
    reference = InferrayEngine("rdfs-default")
    reference.load_triples(data)
    reference.materialize()

    # The failing rule sits mid-catalogue: the rules before it have
    # fired into the iteration's buffers when it raises.
    rules = get_ruleset("rdfs-default")
    middle = len(rules) // 2
    engine = InferrayEngine(rules[:middle] + [FailOnce("FAIL")]
                            + rules[middle:])
    engine.load_triples(data)
    with pytest.raises(RuntimeError, match="rule failed mid-iteration"):
        engine.materialize()
    assert not engine.is_materialized
    engine.materialize()
    assert engine.is_materialized
    assert table_bytes(engine) == table_bytes(reference)
