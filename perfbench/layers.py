"""Per-layer metric names, their predicted end-to-end effect, and the
reduction of a traced run's spans into those metrics.

Span names are ``<layer>.<what>``, after the repository module each span
wraps (``repro.geostats.generator`` → ``generator``,
``repro.core.dag_cholesky`` → ``dag_cholesky``...).  A span ``X`` gives
``layer.X_s``, except kernel spans ``kernels.<kind>.<prec>``, which give
``layer.kernels.<kind>.<prec>.s`` and ``.calls``.  Times are self times,
as mean seconds per operation; counts are means per operation.  Every
workload reports every metric: a layer a workload never enters reads 0.
"""

from __future__ import annotations

from .trace import Tracer

#: span names of the MLE pipeline, in call order (kernels excluded)
MLE_SPANS = (
    "generator.cov_fill",
    "norms.tile_norms",
    "precision_map.kernel_map",
    "conversion.comm_map",
    "cholesky.factor",
    "emulate.quantize",
    "cholesky.solve",
)
#: (kind, precision) pairs Algorithm 1 can run: POTRF and SYRK are always
#: FP64, TRSM has an FP32 floor, GEMM runs in every adaptive format
KERNELS = (
    ("potrf", "FP64"),
    ("trsm", "FP64"),
    ("trsm", "FP32"),
    ("syrk", "FP64"),
    ("gemm", "FP64"),
    ("gemm", "FP32"),
    ("gemm", "FP16_32"),
    ("gemm", "FP16"),
)
PRECISIONS = ("FP64", "FP32", "FP16_32", "FP16")
LOW_PRECISIONS = PRECISIONS[1:]
SIM_SPANS = ("dag_cholesky.build", "dag_cholesky.emit", "simulator.schedule")


def per_layer_spec() -> list[dict]:
    """``per_layer`` entries of BENCHMARK.json, in report order."""
    spec = [{"name": f"layer.{s}_s", "unit": "s", "better": "lower"} for s in MLE_SPANS]
    for kind, prec in KERNELS:
        spec.append({"name": f"layer.kernels.{kind}.{prec}.s", "unit": "s", "better": "lower"})
        spec.append({"name": f"layer.kernels.{kind}.{prec}.calls", "unit": "count",
                     "better": "lower"})
    spec += [{"name": f"emulation_ratio.{p}", "unit": "ratio", "better": "lower"}
             for p in LOW_PRECISIONS]
    spec += [{"name": f"gemm_flops.{p}", "unit": "flop",
              "better": "lower" if p == "FP64" else "higher"} for p in PRECISIONS]
    spec += [{"name": f"payload_bytes.{p}", "unit": "B", "better": "lower"} for p in PRECISIONS]
    spec += [{"name": f"layer.{s}_s", "unit": "s", "better": "lower"} for s in SIM_SPANS]
    spec += [
        {"name": "layer.dag_cholesky.build_us_per_task", "unit": "us", "better": "lower"},
        {"name": "layer.simulator.schedule_us_per_task", "unit": "us", "better": "lower"},
        {"name": "layer.simulator.peak_live_tasks", "unit": "count", "better": "lower"},
        {"name": "unaccounted_s", "unit": "s", "better": "lower"},
        {"name": "trace_overhead_frac", "unit": "frac", "better": "lower"},
    ]
    return spec


#: which end-to-end metric each per-layer metric should move, on which
#: workload — written before measuring, so later changes can cite it
PREDICTIONS = {
    "layer.generator.cov_fill_s":
        "moves ops_per_s on mle-hi (about three quarters of an evaluation: the "
        "recorded probes' ν is never a half-integer); a little under half on mle-lo",
    "layer.kernels.*, layer.emulate.quantize_s, emulation_ratio.*":
        "move ops_per_s on mle-lo (about half of an evaluation, FP16 GEMM about "
        "40%); about a fifth of an evaluation on mle-hi, so a kernel speed-up "
        "moves mle-hi by at most that share",
    "layer.cholesky.factor_s, layer.cholesky.solve_s, unaccounted_s":
        "move ops_per_s on each mle-* workload in proportion to their share",
    "layer.norms.tile_norms_s, layer.precision_map.kernel_map_s, "
    "layer.conversion.comm_map_s":
        "each under 1% of an evaluation: moving them moves nothing end to end",
    "gemm_flops.*, payload_bytes.*":
        "computed counts (means over the traced operations, exact for a given "
        "seed and operation count); the numeric twin of the paper's data-motion "
        "account, not a speed",
    "layer.dag_cholesky.build_s, layer.dag_cholesky.build_us_per_task":
        "move ops_per_s and peak_rss_mb on sim-materialize",
    "layer.dag_cholesky.emit_s":
        "moves ops_per_s on sim-stream",
    "layer.simulator.schedule_s, layer.simulator.schedule_us_per_task, "
    "layer.simulator.peak_live_tasks":
        "move ops_per_s on both sim-* workloads (peak_live_tasks also "
        "peak_rss_mb on sim-stream)",
}


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-layer metrics (means per operation) from one traced run.

    Entries the spans cannot give (``trace_overhead_frac``, the
    emulation ratios, the simulator's per-task and peak-live figures)
    are left at 0 for the workload to fill in.
    """
    out = {m["name"]: 0.0 for m in per_layer_spec()}
    for name, self_s in zip(tracer.names, tracer.self_times()):
        if name == "op":
            out["unaccounted_s"] += self_s
        elif name.startswith("kernels."):
            out[f"layer.{name}.s"] += self_s
            out[f"layer.{name}.calls"] += 1
        else:
            out[f"layer.{name}_s"] += self_s
    for key, value in tracer.counts.items():
        out[key] += value
    for key in out:
        out[key] /= n_ops
    return out


def emulation_ratios(layers: dict[str, float], fp64_gemm_s: float) -> None:
    """Per-call GEMM time at each low precision over ``fp64_gemm_s``.

    The denominator is measured apart from the operations (see
    ``perfbench.mle``), because at low u_req no GEMM runs in FP64.
    """
    for p in LOW_PRECISIONS:
        calls = layers[f"layer.kernels.gemm.{p}.calls"]
        per_call = layers[f"layer.kernels.gemm.{p}.s"] / calls if calls else 0.0
        layers[f"emulation_ratio.{p}"] = per_call / fp64_gemm_s
