"""Benchmark harness: timed engine runs, tables and bar charts."""
