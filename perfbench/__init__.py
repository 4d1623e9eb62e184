"""Repository benchmark: three MapReduce job workloads, end to end and
per layer.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``perfbench/README.md`` records
each workload's shape, why it was chosen, and which layer metric should
move which end-to-end metric.
"""
