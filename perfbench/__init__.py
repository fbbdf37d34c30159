"""Benchmark for halfsphere; see README.md."""
