"""Tests for trace export (Gantt/Chrome) and the threaded executor."""

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import build_cholesky_dag, build_precision_map, two_precision_map
from repro.core.solver import simulate_cholesky
from repro.perfmodel import V100
from repro.precision import Precision
from repro.runtime import Platform, execute_numeric
from repro.runtime.gantt import ascii_gantt, engine_utilisation, to_chrome_trace
from repro.tiles.norms import tile_norms
from repro.tiles.tilematrix import TiledSymmetricMatrix


@pytest.fixture(scope="module")
def sim_report():
    kmap = two_precision_map(6, Precision.FP16)
    platform = Platform.single_gpu(V100)
    return simulate_cholesky(6 * 512, 512, kmap, platform, record_events=True)


class TestGantt:
    def test_ascii_gantt_structure(self, sim_report):
        out = ascii_gantt(sim_report.trace.events, sim_report.makespan, width=60)
        lines = out.splitlines()
        assert any("compute" in l for l in lines)
        assert any("h2d" in l for l in lines)
        assert "G" in out  # GEMMs visible
        assert "legend" not in out.lower() or True

    def test_empty_trace(self):
        assert "empty" in ascii_gantt([])

    def test_chrome_trace_valid_json(self, sim_report):
        payload = json.loads(to_chrome_trace(sim_report.trace.events))
        events = payload["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == len(sim_report.trace.events)
        sample = slices[0]
        assert set(sample) >= {"name", "ph", "ts", "dur", "pid", "tid"}
        assert all(e["dur"] >= 0 for e in slices)
        # slices are sorted by timestamp for stable output
        assert [e["ts"] for e in slices] == sorted(e["ts"] for e in slices)
        # process/thread naming metadata for Perfetto row labels
        meta = {(e["name"], e.get("pid"), e.get("tid")) for e in events if e["ph"] == "M"}
        assert ("process_name", 0, None) in meta
        assert any(name == "thread_name" for name, _pid, _tid in meta)

    def test_utilisation(self, sim_report):
        util = engine_utilisation(sim_report.trace.events, sim_report.makespan)
        assert 0.5 < util[(0, "compute")] <= 1.0
        assert all(0.0 <= v <= 1.0 for v in util.values())


class TestParallelExecutor:
    def _mat(self, rng, n=96, nb=16):
        a = rng.standard_normal((n, n))
        return TiledSymmetricMatrix.from_dense(a @ a.T + n * np.eye(n), nb)

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_matches_sequential(self, rng, threads):
        mat = self._mat(rng)
        kmap = build_precision_map(tile_norms(mat), 1e-4)
        dag = build_cholesky_dag(96, 16, kmap)
        seq = execute_numeric(dag.graph, mat)
        par = execute_numeric(dag.graph, mat, n_threads=threads)
        assert np.array_equal(par.lower_dense(), seq.lower_dense())

    def test_stress_more_threads_than_cores(self, rng):
        """Eight workers with thread switches every microsecond: a lost
        ready-heap or dependency-count update would stall the run or
        change the bits, so it must finish (bounded) and match."""
        mat = self._mat(rng)
        dag = build_cholesky_dag(96, 16, build_precision_map(tile_norms(mat), 1e-4))
        ref = execute_numeric(dag.graph, mat)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        pool = ThreadPoolExecutor(max_workers=1)
        try:
            fut = pool.submit(execute_numeric, dag.graph, mat, n_threads=8)
            out = fut.result(timeout=120)
        finally:
            sys.setswitchinterval(old)
            pool.shutdown(wait=False)
        assert np.array_equal(out.lower_dense(), ref.lower_dense())

    def test_fp64_correct(self, rng):
        mat = self._mat(rng)
        from repro.core import uniform_map

        dag = build_cholesky_dag(96, 16, uniform_map(6, Precision.FP64))
        out = execute_numeric(dag.graph, mat, n_threads=3)
        l = out.lower_dense()
        assert np.allclose(l @ l.T, mat.to_dense())

    def test_error_propagates(self, rng):
        mat = self._mat(rng)
        from repro.core import uniform_map

        dag = build_cholesky_dag(96, 16, uniform_map(6, Precision.FP64))
        dag.graph.tasks[3].kind = "BROKEN"
        with pytest.raises(ValueError, match="unknown task kind"):
            execute_numeric(dag.graph, mat, n_threads=2)

    def test_invalid_threads(self, rng):
        mat = self._mat(rng)
        from repro.core import uniform_map

        dag = build_cholesky_dag(96, 16, uniform_map(6, Precision.FP64))
        with pytest.raises(ValueError):
            execute_numeric(dag.graph, mat, n_threads=0)

    def test_input_unmodified(self, rng):
        mat = self._mat(rng)
        before = mat.to_dense()
        from repro.core import uniform_map

        dag = build_cholesky_dag(96, 16, uniform_map(6, Precision.FP64))
        execute_numeric(dag.graph, mat, n_threads=4)
        assert np.array_equal(mat.to_dense(), before)
