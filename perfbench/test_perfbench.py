"""Self-tests of the benchmark (not part of the repository's tier-1 suite).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core import cholesky as ch  # noqa: E402
from repro.geostats import likelihood as lk  # noqa: E402
from repro.tiles import kernels as tk  # noqa: E402

from perfbench import run  # noqa: E402
from perfbench.harness import Outcome, closed_loop, tail_percentile  # noqa: E402
from perfbench.layers import layer_metrics, per_layer_spec  # noqa: E402
from perfbench.mle import MleWorkload  # noqa: E402
from perfbench.probes import JITTER, MODEL_BOUNDS, load_pool, make_probes  # noqa: E402
from perfbench.sim import SimWorkload  # noqa: E402
from perfbench.trace import Tracer, patched  # noqa: E402

ORIGINALS = {
    (tk, "potrf"): tk.potrf, (tk, "trsm"): tk.trsm, (tk, "syrk"): tk.syrk,
    (tk, "gemm"): tk.gemm, (ch, "quantize"): ch.quantize,
    (lk, "build_tiled_covariance"): lk.build_tiled_covariance,
}


@pytest.fixture(scope="module")
def mle_hi():
    wl = MleWorkload("mle-hi", 1e-9)
    return wl, wl.setup(seed=3)


def _spy_on_kernels(monkeypatch):
    """Record, at each factorization, whether the kernels are the originals."""
    seen: list[bool] = []
    inner = lk.mp_cholesky

    def spy(*args, **kwargs):
        seen.append(all(getattr(mod, name) is fn for (mod, name), fn in ORIGINALS.items()
                        if mod is not lk))
        return inner(*args, **kwargs)

    monkeypatch.setattr(lk, "mp_cholesky", spy)
    return seen


def test_untraced_run_calls_original_kernels(mle_hi, monkeypatch):
    wl, state = mle_hi
    seen = _spy_on_kernels(monkeypatch)
    closed_loop(lambda i: wl.op(state, i, None), None, limit=1)
    tracer = Tracer()
    with patched(wl.patches(tracer)):
        wl.op(state, 0, tracer)
    assert seen == [True, False]  # the spy sees the wrappers only while traced
    for (mod, name), fn in ORIGINALS.items():
        assert getattr(mod, name) is fn, f"{mod.__name__}.{name} not restored"


def test_spans_nest_and_self_times_are_nonnegative(mle_hi):
    wl, state = mle_hi
    tracer = Tracer()
    with patched(wl.patches(tracer)):
        for i in range(2):
            tracer.op = i
            with tracer.span("op"):
                wl.op(state, i, tracer)
    t = tracer
    assert {"op", "generator.cov_fill", "cholesky.factor", "cholesky.solve",
            "emulate.quantize", "kernels.potrf.FP64"} <= set(t.names)
    for sid, (name, parent) in enumerate(zip(t.names, t.parents)):
        assert t.ends[sid] >= t.starts[sid]
        if parent < 0:
            assert name == "op"
        else:
            assert t.starts[parent] <= t.starts[sid] and t.ends[sid] <= t.ends[parent]
            assert t.ops[parent] == t.ops[sid]
        if name.startswith("kernels.") or name == "emulate.quantize":
            assert t.names[parent] == "cholesky.factor"
    assert all(t >= 0.0 for t in tracer.self_times())
    layers = layer_metrics(tracer, 2)
    assert layers["layer.kernels.potrf.FP64.calls"] == 16.0


def test_self_time_subtracts_the_children():
    # op [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 6]
    tracer = Tracer(names=["op", "a", "c", "b"], parents=[-1, 0, 1, 0], ops=[0] * 4,
                    starts=[0.0, 1.0, 2.0, 5.0], ends=[10.0, 4.0, 3.0, 6.0])
    assert tracer.self_times() == [10.0 - 3.0 - 1.0, 3.0 - 1.0, 1.0, 1.0]


def test_probes_are_seeded_jittered_recorded_points():
    a, b = make_probes(7, 64), make_probes(7, 64)
    assert a == b and a != make_probes(8, 64)
    pool = load_pool()
    lo, hi = MODEL_BOUNDS
    for theta in a:
        assert all(lo <= v <= hi for v in theta)
        # some recorded θ lies within the jitter of every probe
        ratio = np.log(np.clip(pool, lo, hi) / np.array(theta))
        assert np.min(np.max(np.abs(ratio), axis=1)) <= JITTER + 1e-12
        assert (2.0 * theta[2]) % 2.0 != 1.0  # ν is not a half-integer


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile([1.0] * 10) is None
    p, value = tail_percentile([float(i) for i in range(1, 21)])
    assert p == 50 and value == 10.0


def test_mle_check_flags_a_wrong_likelihood(mle_hi):
    wl, state = mle_hi
    value = wl.op(state, 0, None)
    bad, extras = wl.check(state, [value, value * (1 + 1e-3)], recheck=True)
    assert bad == {1}
    assert extras["rel_err"] > extras["tol"]


def test_sim_check_flags_another_dag():
    wl = SimWorkload("sim-stream", stream=True)
    from repro.core import two_precision_map
    from repro.precision import Precision

    state = wl.setup(seed=0)
    small = wl.simulate(state.platform, two_precision_map(8, Precision.FP16), None)
    assert wl.same(small, small)
    assert not wl.same(small, dataclasses.replace(small, makespan=2 * small.makespan))
    bad, _ = wl.check(state, [small], recheck=False)
    assert bad == {0}


def test_outcome_is_incorrect_when_an_operation_failed():
    assert not Outcome(attempted=3, failed=1, metrics={}).correct


def test_benchmark_json_matches_the_definitions():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == run.spec()
    assert len({m["name"] for m in per_layer_spec()}) == len(per_layer_spec())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_smoke_run_prints_every_metric():
    spec = run.spec()
    expected = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]} | {
        "failed_frac", "loglik_evals_per_s", "loglik_eval_p50_s", "loglik_eval_tail_s",
        "loglik_rel_err", "sim_tasks_per_s"}
    printed = ""
    for workload in ("mle-hi", "sim-stream"):
        for trace in (0, 1):
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stderr
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(last) == {"correct", "attempted", "failed", "metrics"}
            assert last["correct"] and last["attempted"] >= 1 and last["failed"] == 0
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            assert set(last["metrics"]) == {m["name"] for m in wanted}
            assert all(math.isfinite(m["value"]) for m in last["metrics"].values())
            printed += proc.stdout
    missing = {name for name in expected if f" {name} " not in printed}
    assert not missing


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("sim-stream", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
