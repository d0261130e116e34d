"""Benchmark for the rasper package: three closed-loop workloads, end-to-end
metrics measured with tracing off, and a traced run for per-layer metrics.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
