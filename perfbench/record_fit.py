"""Record the θ sequence a real fit sends, to ground the benchmark's probes.

    python3 perfbench/record_fit.py --accuracy 1e-9 --out perfbench/fits/fit-1e-9.jsonl

Runs :func:`repro.geostats.mle.fit_mle` (Nelder–Mead from the lower
bounds, the paper's set-up) on the benchmark's dataset at one accuracy
level and writes every θ it asks ℓ for, in order, one JSON line each
(``theta``, ``loglik``, ``seconds``).  Lines are flushed as they come,
so a run cut short leaves a usable prefix.  ``perfbench/probes.py``
takes its base points from ``perfbench/fits/fit-1e-9.jsonl`` and
``perfbench/fits/fit-1e-4.jsonl``, written by this script.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--accuracy", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    from repro.geostats import mle
    from repro.geostats.generator import SyntheticField

    from perfbench.mle import N, NB

    ds = SyntheticField.matern_2d(N).sample(0)
    inner = mle.log_likelihood
    with args.out.open("w") as out:

        def recording(dataset, theta, config):
            t0 = time.perf_counter()
            result = inner(dataset, theta, config)
            out.write(json.dumps({"theta": [float(v) for v in theta],
                                  "loglik": float(result.value),
                                  "seconds": time.perf_counter() - t0}) + "\n")
            out.flush()
            return result

        mle.log_likelihood = recording
        try:
            fit = mle.fit_mle(ds, accuracy=args.accuracy, tile_size=NB)
        finally:
            mle.log_likelihood = inner
    print(f"theta_hat={fit.theta_hat} loglik={fit.loglik} n_evals={fit.n_evals} "
          f"converged={fit.converged}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
