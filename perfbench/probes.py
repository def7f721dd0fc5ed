"""Seeded θ probes for the MLE workloads, taken from recorded fits.

A geostatistician's optimizer sends one θ = (variance, range, smoothness)
at a time and waits for ℓ(θ) before sending the next; the benchmark
replays such a sequence.  ``perfbench/fits/`` holds every θ that
:func:`repro.geostats.mle.fit_mle` (Nelder–Mead from the lower bounds)
asked for on the benchmark's dataset, one file per accuracy level,
written by ``perfbench/record_fit.py``.  The two fits together are the
pool; ``mle-hi`` and ``mle-lo`` share it, so they differ only in u_req.

The probes cycle through ``PROBES_PER_BLOCK`` base points, pool points
⌊frac(k·φ)·P⌋ for k < PROBES_PER_BLOCK (a golden-ratio stride over the
P pool points in recorded order, which spreads them over both fits,
from the start at the lower bounds to the optimum).  A run measures
whole blocks, so its cost mix is the same whatever the seed and however
many blocks fit in the run.  The seed scales each component of each
probe by a factor in [e^−J, e^J], clipped to the model's bounds: every
seed gives different probes.  Like the recorded fits, whose smoothness
is never a half-integer, the probes take the general Bessel K_ν path.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

__all__ = ["FIT_FILES", "JITTER", "MODEL_BOUNDS", "PROBES_PER_BLOCK", "load_pool", "make_probes"]

#: recorded fits (``record_fit.py --accuracy 1e-9`` and ``1e-4``)
FIT_FILES = tuple(Path(__file__).resolve().parent / "fits" / f"fit-{u}.jsonl"
                  for u in ("1e-9", "1e-4"))
#: ``Matern.bounds()``: [0.01, 2] for every parameter
MODEL_BOUNDS = (0.01, 2.0)
#: distinct base points; a run measures whole blocks of this many probes
PROBES_PER_BLOCK = 8
#: largest seeded change of a component, in log units (±5%)
JITTER = 0.05
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def load_pool() -> np.ndarray:
    """Every recorded θ, both fits in recorded order, as a P × 3 array."""
    rows = [json.loads(line)["theta"] for path in FIT_FILES
            for line in path.read_text().splitlines() if line]
    return np.array(rows, dtype=np.float64)


def make_probes(seed: int, count: int) -> list[tuple[float, float, float]]:
    """``count`` θ probes for workload seed ``seed`` (same seed, same probes)."""
    pool = load_pool()
    base = pool[(np.arange(PROBES_PER_BLOCK) * _GOLDEN % 1.0 * len(pool)).astype(int)]
    rng = np.random.default_rng(seed)
    scale = np.exp(rng.uniform(-JITTER, JITTER, size=(count, pool.shape[1])))
    theta = np.clip(base[np.arange(count) % PROBES_PER_BLOCK] * scale, *MODEL_BOUNDS)
    return [tuple(float(v) for v in row) for row in theta]
