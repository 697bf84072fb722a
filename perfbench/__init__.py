"""Benchmark for the loramem lab and registry; see README.md."""
