"""The repo's benchmark: three workloads, end-to-end and per-layer metrics.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the checkout root; see ``run.py`` and ``catalog.py``.
"""
