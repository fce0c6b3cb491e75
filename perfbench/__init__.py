"""End-to-end and per-layer benchmark for the policy-verification pipeline.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see :mod:`perfbench.run`.
"""
