"""Baseline comparator engines (paper §6 competitors, reimplemented)."""

from .base import BaselineReasoner, BaselineStats
from .datalog import (
    Atom,
    DatalogRule,
    datalog_ruleset,
    is_var,
    match_atom,
    substitute,
)
from .hashjoin import HashJoinEngine
from .naive import NaiveEngine
from .rete import ReteEngine

__all__ = [
    "Atom",
    "BaselineReasoner",
    "BaselineStats",
    "DatalogRule",
    "HashJoinEngine",
    "NaiveEngine",
    "ReteEngine",
    "datalog_ruleset",
    "is_var",
    "match_atom",
    "substitute",
]
