"""Benchmark harness for nillat; see run.py."""
