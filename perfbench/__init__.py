"""Benchmark of herglotzlab: three closed-loop workloads, end-to-end and
per-layer metrics.  See README.md in this directory."""
