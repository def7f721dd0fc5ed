"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-spec     # regenerate BENCHMARK.json

Run from the repository root (the program is imported from ``src/``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit code is 1 when any correctness check fails.  Spans, the
per-layer table and the environment record are written under
``.perfbench-out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

# BLAS must be pinned before NumPy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"

#: workload → why it is in the benchmark (BENCHMARK.json ``why``)
WHY = {
    "mle-hi": "u_req=1e-9 on theta probes recorded from fit_mle: covariance fill "
              "(Bessel K_nu) is ~3/4 of an evaluation, the emulated kernels ~1/5; "
              "the covariance-heavy workload",
    "mle-lo": "same data and probes at u_req=1e-4: FP16/FP16_32 tiles make emulated "
              "kernels about half of an evaluation (FP16 GEMM ~40%); the kernel-heavy "
              "workload",
    "sim-materialize": "NT=64 build_cholesky_dag + simulate, 45,760 tasks: the DAG "
                       "build is most of the time and sets peak RSS; fixed input, "
                       "the seed does not change it",
    "sim-stream": "same DAG via stream_cholesky_tasks + simulate_stream: emission "
                  "interleaved with scheduling, bounded live tasks; holding more "
                  "state shows here as lost throughput or RSS",
}
END_TO_END = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]
RUN_SECONDS = 10


def workloads() -> dict:
    from perfbench.mle import MleWorkload
    from perfbench.sim import SimWorkload

    return {
        "mle-hi": MleWorkload("mle-hi", 1e-9),
        "mle-lo": MleWorkload("mle-lo", 1e-4),
        "sim-materialize": SimWorkload("sim-materialize", stream=False),
        "sim-stream": SimWorkload("sim-stream", stream=True),
    }


def spec() -> dict:
    from perfbench.layers import per_layer_spec

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WHY.items()],
        "end_to_end": END_TO_END,
        "per_layer": per_layer_spec(),
    }


def environment() -> dict:
    import numpy
    import scipy

    def blas_version(mod) -> str:
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy),
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(WHY))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true",
                    help="write BENCHMARK.json from the definitions here and exit")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; "
              "run from a full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    from perfbench.harness import run_workload
    from perfbench.layers import PREDICTIONS

    wl = workloads()[args.workload]
    trace = bool(args.trace)
    out = run_workload(wl, args.seed, args.seconds, trace)
    env = environment()

    run_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    units = {m["name"]: m["unit"] for m in spec()["end_to_end"] + spec()["per_layer"]}
    lines = [f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, "
             f"trace {args.trace}, {out.attempted} ops, {out.failed} failed"]
    lines.append("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in out.report.items():
        lines.append(f"  {name:<40} {_fmt(value):>14} {unit}")
    for name, value in out.metrics.items():
        lines.append(f"  {name:<40} {_fmt(value):>14} {units[name]}")
    if trace:
        lines.append("predictions (per-layer metric → end-to-end effect):")
        lines += [f"  {k}: {v}" for k, v in PREDICTIONS.items()]
        (run_dir / "spans.json").write_text(json.dumps(out.tracer.to_json()))
        (run_dir / "layers.txt").write_text("\n".join(lines) + "\n")
    (run_dir / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "attempted": out.attempted, "failed": out.failed,
         "metrics": out.metrics, "op_times": out.op_times,
         "report": {k: v for k, (v, _) in out.report.items()}, "environment": env},
        indent=2) + "\n")
    print("\n".join(lines))
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in out.metrics.items()},
    }))
    return 0 if out.correct else 1


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


if __name__ == "__main__":
    sys.exit(main())
