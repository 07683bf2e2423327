"""Scene-scoring benchmark for scenescore: seeded scenes, judges and tracing.

Run it with ``python3 scenebench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see README.md.
"""
