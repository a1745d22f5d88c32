"""Transitive-closure subsystem (paper §4.1)."""

from .components import (
    closed_pairs,
    connected_component_edges,
    symmetric_transitive_closure_pairs,
)
from .intervals import IntervalSet
from .nuutila import (
    ReachIndex,
    build_reach_index,
    strongly_connected_components,
    transitive_closure_pairs,
)
from .unionfind import UnionFind

__all__ = [
    "IntervalSet",
    "ReachIndex",
    "UnionFind",
    "build_reach_index",
    "closed_pairs",
    "connected_component_edges",
    "strongly_connected_components",
    "symmetric_transitive_closure_pairs",
    "transitive_closure_pairs",
]
