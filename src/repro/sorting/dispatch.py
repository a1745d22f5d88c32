"""Table-1 helper: the entropy column.

The paper (§5.4, Table 1) picks between counting sort and MSDA radix by
operating range: "as a rule of thumb, counting outperforms MSD radix
when the size of the collection is greater than its range".  The
engine does not dispatch on that rule — each kernel backend has one
pair sort, and on the pure-Python kernels CPython's timsort beat the
dispatch on every engine workload measured — so what is left here is
the range measure the Table-1 benchmark reports next to the sorts.
"""

from __future__ import annotations

import math


def entropy_bits(key_range: int) -> float:
    """The paper's entropy measure for a key range: log2(range)."""
    if key_range <= 0:
        return 0.0
    return math.log2(key_range)
