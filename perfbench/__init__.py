"""The product-path benchmark: data-plane packet rate, program-load
latency and fleet rollout time, with a per-layer trace.

Run one workload with ``python3 perfbench/run.py --workload NAME
--seed N --seconds S --trace 0|1`` from the repository root; see
``perfbench/README.md`` for the workloads and the layer map.
"""
