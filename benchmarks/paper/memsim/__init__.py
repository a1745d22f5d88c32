"""Trace-driven memory-hierarchy simulation (Figures 7–8)."""
