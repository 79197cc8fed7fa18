"""The repository benchmark.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace
0|1`` runs one workload from the repository root and prints, as its
last stdout line, one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``) named in
``BENCHMARK.json``.  See :mod:`perfbench.run`.
"""
