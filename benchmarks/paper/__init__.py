"""Code only the paper-shape scripts in ``benchmarks/`` run: the
Table-1 sorters, the Figure 7–8 cache simulator, the timing harness
and :func:`instrumented_engine`.  The scripts import it as ``paper``
(their directory is on ``sys.path``), with ``PYTHONPATH=src``."""

from .instrument import instrumented_engine

__all__ = ["instrumented_engine"]
