"""The benchmark of record: one command, three workloads, every layer.

``python3 perfbench/run.py --workload <dse|validate|service> --seed N
--seconds S --trace <0|1>`` runs one workload and prints one JSON line;
see ``perfbench/README.md`` for the metrics, workloads and layer table.
"""
