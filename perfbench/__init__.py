"""The repository benchmark: seeded workloads, oracle checks and a traced
per-layer run over the nAdroid reproduction's public functions.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``.  See ``perfbench/README.md``.
"""
