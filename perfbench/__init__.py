"""Benchmark for the chirotri command line: seeded workloads, cold ops, checks.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the root of a checkout; see ``run.py``.
"""
