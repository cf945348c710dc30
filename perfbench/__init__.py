"""Benchmark harness for quintic_flow; run it with `python3 perfbench/run.py`."""
