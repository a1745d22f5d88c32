"""Pair-sorting subsystem: counting sort and MSDA radix (paper §5), with
the generic baselines they are compared against in Table 1.  Not on
the engine path: each kernel backend owns its one pair sort."""
