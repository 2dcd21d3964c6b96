"""End-to-end benchmark for the qaccel command-line toolchain.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; see ``perfbench/README.md``.
"""
