"""Host-timed benchmark of the simulated SACK kernel and fleet.

Run ``python3 hostbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see :mod:`hostbench.run`.
"""
