"""``mle-hi`` / ``mle-lo``: closed-loop likelihood evaluations for one
geostatistician fitting θ̂.

Both workloads use the same dataset (2-D Matérn, n = 1600, Morton
order, nb = 100 so NT = 16) and the same seeded θ probes; they differ
only in the application accuracy u_req.  Each operation is one call of
the public :func:`repro.geostats.likelihood.log_likelihood`.
"""

from __future__ import annotations

import math
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from repro.core import cholesky as ch
from repro.core.config import MPConfig
from repro.geostats import likelihood as lk
from repro.geostats.generator import Dataset, SyntheticField
from repro.precision.formats import Precision, bytes_per_element
from repro.tiles import kernels as tk

from .harness import tail_percentile
from .layers import emulation_ratios
from .probes import PROBES_PER_BLOCK, make_probes
from .trace import Tracer

__all__ = ["MleWorkload", "reference_loglik", "tolerance"]

N = 1600
NB = 100
#: enough probes for any permitted run length (no evaluation takes less
#: than 0.3 s; a run measures at most 60 s)
PROBE_COUNT = 1024
#: a Morton-ordered prefix of the dataset, evaluated during set-up so
#: lazy imports, BLAS start-up and both Bessel paths are warm before timing
WARMUP_N = 400
WARMUP_THETAS = ((1.0, 0.1, 0.5), (1.0, 0.05, 0.8))
#: ℓ may differ from the dense FP64 reference by TOL_FACTOR · u_req,
#: relative.  The tile-selection rule bounds each tile's perturbation
#: by about u_req·‖Σ‖/NT.  Over the first 256 probe points of the pool
#: (unjittered) the worst case measured was 1.3·u_req at u_req = 1e-9
#: and 2.4·u_req at u_req = 1e-4, so 10 leaves headroom for the jitter
#: without admitting an error of a larger order of magnitude.
TOL_FACTOR = 10.0


def tolerance(u_req: float) -> float:
    return TOL_FACTOR * u_req


def reference_loglik(ds: Dataset, theta: tuple[float, ...]) -> float:
    """ℓ(θ) from the dense FP64 covariance and ``np.linalg.cholesky``."""
    cov = ds.model.cov_matrix(ds.locations, theta)
    cov[np.diag_indices_from(cov)] += ds.nugget
    lower = np.linalg.cholesky(cov)
    y = scipy.linalg.solve_triangular(lower, ds.z, lower=True)
    return (-0.5 * ds.n * math.log(2.0 * math.pi)
            - float(np.sum(np.log(np.diag(lower)))) - 0.5 * float(y @ y))


@dataclass
class MleState:
    dataset: Dataset
    config: MPConfig
    probes: list[tuple[float, float, float]]


@dataclass
class MleWorkload:
    name: str
    u_req: float
    block: int = PROBES_PER_BLOCK

    def setup(self, seed: int) -> MleState:
        ds = SyntheticField.matern_2d(N).sample(0)
        cfg = MPConfig(accuracy=self.u_req, tile_size=NB)
        warm = Dataset(ds.locations[:WARMUP_N], ds.z[:WARMUP_N], ds.model)
        for theta in WARMUP_THETAS:
            lk.log_likelihood(warm, theta, cfg)
        return MleState(ds, cfg, make_probes(seed, PROBE_COUNT))

    def op(self, state: MleState, i: int, tracer: Tracer | None) -> float:
        return lk.log_likelihood(state.dataset, state.probes[i], state.config).value

    def same(self, a: float, b: float) -> bool:
        return a == b or (math.isnan(a) and math.isnan(b))

    def check(self, state: MleState, results: list, recheck: bool) -> tuple[set[int], dict]:
        probes = state.probes[: len(results)]
        # reference work is untimed; BLAS is pinned to one thread, so two
        # threads use both cores (K_ν and LAPACK release the GIL)
        with ThreadPoolExecutor(max_workers=2) as pool:
            refs = list(pool.map(lambda th: reference_loglik(state.dataset, th), probes))
        rel = [abs(v - r) / abs(r) for v, r in zip(results, refs)]
        tol = tolerance(self.u_req)
        bad = {i for i, (v, e) in enumerate(zip(results, rel))
               if not (math.isfinite(v) and e <= tol)}
        if recheck and not self.same(self.op(state, 0, None), results[0]):
            bad.add(0)
        return bad, {"rel_err": max(rel), "tol": tol}

    def report(self, times: list[float], results: list, extras: dict) -> dict:
        tail = tail_percentile(times)
        return {
            "loglik_evals_per_s": (len(times) / sum(times), "1/s"),
            "loglik_eval_p50_s": (float(np.median(times)), "s"),
            "loglik_eval_tail_s": (
                f"p{tail[0]} {tail[1]:.4f}" if tail else "n/a (needs >= 11 samples)",
                f"s, n={len(times)}"),
            "loglik_rel_err": (extras["rel_err"], f"frac, tol {extras['tol']:.0e}"),
        }

    def patches(self, tracer: Tracer) -> list[tuple[object, str, Callable]]:
        """Wrappers around each layer call ``log_likelihood`` and ``mp_cholesky`` make."""
        w = tracer.wrap

        def trsm_name(l_kk, c_mk, precision=Precision.FP64):
            return f"kernels.trsm.{tk.trsm_execution_precision(precision).name}"

        def gemm_name(c_mk, c_nk, c_mn, precision=Precision.FP64):
            tracer.count(f"gemm_flops.{precision.name}",
                         2.0 * c_mk.shape[0] * c_mk.shape[1] * c_nk.shape[0])
            return f"kernels.gemm.{precision.name}"

        def quantize_name(x, precision):
            # in mp_cholesky every quantize call makes a broadcast payload
            tracer.count(f"payload_bytes.{precision.name}",
                         float(np.size(x) * bytes_per_element(precision)))
            return "emulate.quantize"

        return [
            (lk, "build_tiled_covariance", w(lk.build_tiled_covariance, "generator.cov_fill")),
            (lk, "tile_norms", w(lk.tile_norms, "norms.tile_norms")),
            (lk, "build_precision_map", w(lk.build_precision_map, "precision_map.kernel_map")),
            (lk, "build_comm_precision_map",
             w(lk.build_comm_precision_map, "conversion.comm_map")),
            (lk, "mp_cholesky", w(lk.mp_cholesky, "cholesky.factor")),
            (lk, "logdet_from_factor", w(lk.logdet_from_factor, "cholesky.solve")),
            (lk, "solve_with_factor", w(lk.solve_with_factor, "cholesky.solve")),
            (tk, "potrf", w(tk.potrf, "kernels.potrf.FP64")),
            (tk, "trsm", w(tk.trsm, trsm_name)),
            (tk, "syrk", w(tk.syrk, "kernels.syrk.FP64")),
            (tk, "gemm", w(tk.gemm, gemm_name)),
            (ch, "quantize", w(ch.quantize, quantize_name)),
        ]

    def layer_extras(self, state: MleState, results: list, layers: dict) -> None:
        emulation_ratios(layers, fp64_gemm_seconds())


def fp64_gemm_seconds(reps: int = 5, calls: int = 40) -> float:
    """Per-call time of a native FP64 ``gemm`` on nb × nb tiles (median of ``reps``)."""
    rng = np.random.default_rng(0)
    a, b, c = (rng.standard_normal((NB, NB)) for _ in range(3))
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(calls):
            tk.gemm(a, b, c, precision=Precision.FP64)
        samples.append((time.perf_counter() - t0) / calls)
    return statistics.median(samples)
