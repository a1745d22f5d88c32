"""Live-store memory accounting: measured bytes per triple (see
:mod:`repro.memsim.probe`).  The Figure 7–8 cache simulator lives with
the paper scripts in ``benchmarks/paper/memsim``."""

from .probe import StoreMemoryReport, TableMemory, measure_store

__all__ = ["StoreMemoryReport", "TableMemory", "measure_store"]
