"""Benchmark of the ncjulia package: workloads, correctness gate and layer tracer."""
