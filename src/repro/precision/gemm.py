"""Emulated mixed-precision GEMM (Section IV's benchmark kernel).

``mixed_gemm`` computes ``C = alpha * A @ B + beta * C`` under one of the
six precision formats of the paper's GEMM study.  Inputs are quantised to
the format's input grid, the product is accumulated at the format's
accumulator width, and the result is returned in float64 so callers can
measure accuracy against the FP64 reference (Fig. 1, top row).

For the pure-FP16 format, accumulation happens in half precision.  We
emulate the error growth of an fp16 accumulator by splitting the inner
dimension into chunks: within a chunk the product is formed exactly (this
matches tensor cores, which keep a wider intermediate inside the block
FMA), and the running sum is re-rounded to fp16 after every chunk.  The
chunk width (``_FP16_CHUNK`` = 32) mirrors the effective block size after which
V100-era tensor cores round the accumulator.
"""

from __future__ import annotations

import numpy as np

from .emulate import quantize
from .formats import Precision

__all__ = ["mixed_gemm", "mixed_syrk", "gemm_relative_error"]

_FP16_CHUNK = 32


def _accumulate_fp16(a: np.ndarray, b: np.ndarray, chunk: int) -> np.ndarray:
    """Chunked fp16 accumulation of ``a @ b`` (both already on fp16 grid).

    Arithmetic runs in float32 (BLAS path — products of fp16-grid values
    are exact in fp32, and tensor cores keep a wide intermediate inside
    the block FMA); the running accumulator is re-rounded to the fp16
    grid after every ``chunk`` columns, reproducing half-precision
    accumulation error growth and saturation.
    """
    a32 = np.asarray(a, dtype=np.float32)
    b32 = np.asarray(b, dtype=np.float32)
    k = a32.shape[1]
    acc = np.zeros((a32.shape[0], b32.shape[1]), dtype=np.float32)
    for start in range(0, k, chunk):
        stop = min(start + chunk, k)
        acc += a32[:, start:stop] @ b32[start:stop, :]
        acc = acc.astype(np.float16).astype(np.float32)
    return acc.astype(np.float64)


def mixed_gemm(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None = None,
    *,
    precision: Precision = Precision.FP64,
    alpha: float = 1.0,
    beta: float = 0.0,
    fp16_chunk: int = _FP16_CHUNK,
) -> np.ndarray:
    """Emulated ``alpha * a @ b + beta * c`` in the given precision format.

    Parameters mirror BLAS xGEMM.  ``a`` is (m, k), ``b`` is (k, n) and the
    optional ``c`` is (m, n).  The result is float64 carrying the rounding
    error of the emulated format.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible GEMM shapes {a.shape} x {b.shape}")

    if precision == Precision.FP64:
        prod = a @ b
    elif precision == Precision.FP32:
        prod = (a.astype(np.float32) @ b.astype(np.float32)).astype(np.float64)
    elif precision in (Precision.TF32, Precision.FP16_32, Precision.BF16_32):
        aq = quantize(a, precision).astype(np.float32)
        bq = quantize(b, precision).astype(np.float32)
        prod = (aq @ bq).astype(np.float64)
    elif precision == Precision.FP16:
        aq = quantize(a, precision).astype(np.float16)
        bq = quantize(b, precision).astype(np.float16)
        prod = _accumulate_fp16(aq, bq, fp16_chunk)
    else:  # pragma: no cover - exhaustive over enum
        raise ValueError(f"unsupported precision {precision!r}")

    if c is None:
        if beta != 0.0:
            raise ValueError("beta != 0 requires c")
        out = alpha * prod
    else:
        c = np.asarray(c, dtype=np.float64)
        if c.shape != prod.shape:
            raise ValueError(f"c has shape {c.shape}, expected {prod.shape}")
        if precision == Precision.FP16:
            out = (
                (np.float16(alpha) * prod.astype(np.float16)).astype(np.float32)
                + (np.float16(beta) * c.astype(np.float16)).astype(np.float32)
            ).astype(np.float16).astype(np.float64)
        elif precision == Precision.FP64:
            out = alpha * prod + beta * c
        else:
            out = (
                np.float32(alpha) * prod.astype(np.float32)
                + np.float32(beta) * c.astype(np.float32)
            ).astype(np.float64)
    return out


def mixed_syrk(
    a: np.ndarray,
    c: np.ndarray,
    *,
    precision: Precision = Precision.FP64,
    alpha: float = -1.0,
    beta: float = 1.0,
) -> np.ndarray:
    """Emulated symmetric rank-k update ``alpha * a @ a.T + beta * c``.

    The diagonal SYRK of Algorithm 1 always runs in FP64, but the helper
    accepts any format for completeness and for the GEMM-equivalence
    property tests.
    """
    return mixed_gemm(a, np.asarray(a).T, c, precision=precision, alpha=alpha, beta=beta)


def gemm_relative_error(
    n: int,
    precision: Precision,
    *,
    rng: np.random.Generator | None = None,
    scale: float = 1.0,
) -> float:
    """Relative Frobenius error of an n×n emulated GEMM vs FP64 (Fig. 1).

    Random uniform inputs in [-scale, scale], matching the paper's
    "randomly initialized" benchmark data.
    """
    rng = rng or np.random.default_rng(0)
    a = rng.uniform(-scale, scale, size=(n, n))
    b = rng.uniform(-scale, scale, size=(n, n))
    ref = a @ b
    approx = mixed_gemm(a, b, precision=precision)
    denom = float(np.linalg.norm(ref))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(approx - ref)) / denom
