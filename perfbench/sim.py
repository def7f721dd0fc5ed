"""``sim-materialize`` / ``sim-stream``: closed-loop symbolic simulations
for one performance researcher.

Each operation simulates the paper-scale mixed-precision Cholesky
(NT = 64, nb = 512, FP64/FP16 two-precision map, AUTO conversion) on
2 nodes × 2 V100 with the panel-first policy, through public functions:
``build_cholesky_dag`` + ``simulate`` (materialized) or
``stream_cholesky_tasks`` + ``simulate_stream`` (streamed, emission
interleaved with scheduling, bounded live tasks).  The operation takes
no input from the seed: the simulated makespan and bytes must equal the
seed commit's values, which both modes share.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable

from repro.core import (
    ConversionStrategy,
    build_cholesky_dag,
    cholesky_task_count,
    default_stream_lookahead,
    stream_cholesky_tasks,
    two_precision_map,
)
from repro.core.precision_map import KernelPrecisionMap
from repro.perfmodel import GPU_BY_NAME, NodeSpec
from repro.precision import Precision
from repro.runtime import Platform
from repro.runtime.simulator import SimReport, simulate, simulate_stream

from .trace import Tracer

__all__ = ["SimWorkload", "SimResult", "SEED_MAKESPAN", "SEED_BYTES"]

NT = 64
NB = 512
POLICY = "panel-first"
#: NT of the set-up's warm-up simulation
WARMUP_NT = 16
#: simulated makespan (seconds) and bytes per link per precision of
#: this configuration at the seed commit; identical for both modes
SEED_MAKESPAN = float.fromhex("0x1.f3dbc3cac926cp-4")
SEED_BYTES = {
    "h2d": {"FP16": 2080899072, "FP32": 2179989504, "FP64": 134217728},
    "d2h": {"FP16": 1056964608, "FP32": 66060288},
    "nic": {"FP16": 1023934464, "FP32": 66060288},
}


@dataclass
class SimState:
    platform: Platform
    kernel_map: KernelPrecisionMap


def make_platform() -> Platform:
    # the `repro simbench` defaults: 256 GB host DRAM, 25 GB/s NIC, 1.5 µs latency
    node = NodeSpec("bench", GPU_BY_NAME["V100"], 2, 256e9, 25e9, 1.5e-6)
    return Platform(node=node, n_nodes=2)


def link_bytes(rep: SimReport) -> dict[str, dict[str, int]]:
    s = rep.stats
    return {
        link: {p.name: int(v) for p, v in getattr(s, f"{link}_bytes_by_precision").items() if v}
        for link in ("h2d", "d2h", "nic")
    }


@dataclass(frozen=True)
class SimResult:
    """What the checks and metrics need from one simulation.

    The full report (per-task start/end times, commit order) is dropped
    inside the operation, so the memory the benchmark holds does not
    grow with the number of operations and ``peak_rss_mb`` is the
    program's own.
    """

    makespan: float
    n_tasks: int
    link_bytes: dict[str, dict[str, int]]
    peak_live_tasks: int

    @classmethod
    def of(cls, rep: SimReport) -> "SimResult":
        return cls(rep.makespan, rep.stats.n_tasks, link_bytes(rep), rep.peak_live_tasks)


@dataclass
class SimWorkload:
    name: str
    stream: bool
    block: int = 1

    def setup(self, seed: int) -> SimState:
        state = SimState(make_platform(), two_precision_map(NT, Precision.FP16))
        self.simulate(state.platform, two_precision_map(WARMUP_NT, Precision.FP16), None)
        return state

    def simulate(self, platform: Platform, kmap: KernelPrecisionMap,
                 tracer: Tracer | None) -> SimResult:
        return SimResult.of(self._run(platform, kmap, tracer))

    def _run(self, platform: Platform, kmap: KernelPrecisionMap,
             tracer: Tracer | None) -> SimReport:
        nt = kmap.nt
        span = tracer.span if tracer else lambda name: contextlib.nullcontext()
        grid = platform.process_grid()
        if self.stream:
            source = stream_cholesky_tasks(nt * NB, NB, kmap,
                                           strategy=ConversionStrategy.AUTO, grid=grid)
            if tracer:
                source = tracer.iterate(source, "dag_cholesky.emit")
            with span("simulator.schedule"):
                return simulate_stream(source, platform, NB,
                                       lookahead=default_stream_lookahead(nt),
                                       record_events=False, policy=POLICY)
        with span("dag_cholesky.build"):
            dag = build_cholesky_dag(nt * NB, NB, kmap,
                                     strategy=ConversionStrategy.AUTO, grid=grid)
        with span("simulator.schedule"):
            return simulate(dag.graph, platform, NB, record_events=False, policy=POLICY)

    def op(self, state: SimState, i: int, tracer: Tracer | None) -> SimResult:
        return self.simulate(state.platform, state.kernel_map, tracer)

    def same(self, a: SimResult, b: SimResult) -> bool:
        return a.makespan == b.makespan and a.link_bytes == b.link_bytes

    def check(self, state: SimState, results: list, recheck: bool) -> tuple[set[int], dict]:
        # every operation repeats the same simulation, so each result is
        # compared with the seed commit's values
        bad = {
            i for i, res in enumerate(results)
            if res.n_tasks != cholesky_task_count(NT)
            or res.makespan != SEED_MAKESPAN
            or res.link_bytes != SEED_BYTES
        }
        return bad, {}

    def report(self, times: list[float], results: list, extras: dict) -> dict:
        n_tasks = results[0].n_tasks
        return {
            "sim_tasks_per_s": (n_tasks * len(times) / sum(times), "1/s"),
            "makespan_s": (results[0].makespan, "s (simulated)"),
            "n_tasks": (n_tasks, "count"),
        }

    def patches(self, tracer: Tracer) -> list[tuple[object, str, Callable]]:
        # spans come from `simulate` itself, which calls the layers directly
        return []

    def layer_extras(self, state: SimState, results: list, layers: dict) -> None:
        n_tasks = results[0].n_tasks
        layers["layer.dag_cholesky.build_us_per_task"] = (
            layers["layer.dag_cholesky.build_s"] / n_tasks * 1e6)
        layers["layer.simulator.schedule_us_per_task"] = (
            layers["layer.simulator.schedule_s"] / n_tasks * 1e6)
        layers["layer.simulator.peak_live_tasks"] = float(
            max(res.peak_live_tasks for res in results))
