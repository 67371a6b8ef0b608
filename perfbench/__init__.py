"""End-to-end placement benchmark with a per-layer ledger.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.  See
``perfbench/README.md`` for the workloads, metrics and the layer map.
"""
