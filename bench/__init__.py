"""The repository benchmark: both HotTiles paths, end to end and per layer.

``python -m bench run --workload NAME --seed N`` runs one workload (or
``all``), checks every output, and prints every metric named in the root
``BENCHMARK.json``.  See ``bench/README.md``.
"""
