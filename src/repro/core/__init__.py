"""The Inferray engine (paper Algorithm 1) and its high-level API."""

from .engine import (
    FixedPointError,
    InferrayEngine,
    MaterializationStats,
    MaterializationTimeout,
)
from .scheduler import RuleScheduler

__all__ = [
    "FixedPointError",
    "InferrayEngine",
    "MaterializationStats",
    "MaterializationTimeout",
    "RuleScheduler",
]
