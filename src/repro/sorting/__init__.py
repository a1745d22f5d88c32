"""Pair-sorting subsystem: counting sort and MSDA radix (paper §5), with
the generic baselines they are compared against in Table 1.  Not on
the engine path: each kernel backend owns its one pair sort."""

from .counting import (
    SortingError,
    counting_sort_pairs,
    counting_sort_values,
)
from .dispatch import entropy_bits
from .generic import mergesort_pairs, numpy_sort_pairs, quicksort_pairs
from .radix import (
    lsd_radix_sort_pairs,
    msd_radix_sort_pairs,
    msda_radix_sort_pairs,
    significant_bytes,
)

__all__ = [
    "SortingError",
    "counting_sort_pairs",
    "counting_sort_values",
    "entropy_bits",
    "lsd_radix_sort_pairs",
    "mergesort_pairs",
    "msd_radix_sort_pairs",
    "msda_radix_sort_pairs",
    "numpy_sort_pairs",
    "quicksort_pairs",
    "significant_bytes",
]
