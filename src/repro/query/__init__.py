"""BGP query layer over materialized stores (consumer-side, no inference)."""

from .bgp import (
    BGPSyntaxError,
    Query,
    SolutionTable,
    TriplePattern,
    Var,
    parse_bgp,
    parse_pattern,
)

__all__ = [
    "BGPSyntaxError",
    "Query",
    "SolutionTable",
    "TriplePattern",
    "Var",
    "parse_bgp",
    "parse_pattern",
]
