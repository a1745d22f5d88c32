"""Vertical-partitioning triple store (paper §4.2–4.3)."""

from .property_table import PairArray, PropertyTable
from .triple_store import InferredBuffers, TripleStore

__all__ = [
    "InferredBuffers",
    "PairArray",
    "PropertyTable",
    "TripleStore",
]
