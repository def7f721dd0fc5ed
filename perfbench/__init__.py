"""Repository benchmark: MLE likelihood throughput and symbolic-simulation
throughput, with an outside-in per-layer trace.

Run from the repository root::

    python3 perfbench/run.py --workload mle-hi --seed 1 --seconds 10 --trace 0

See ``perfbench/run.py`` for the command line and ``perfbench/layers.py``
for the metric names and the per-layer → end-to-end predictions.
"""
