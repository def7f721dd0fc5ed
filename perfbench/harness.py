"""Workload-independent measurement: set-up, the closed loop, the traced
pass, and the statistics every workload reports.

One client sends one operation at a time and waits for it (a closed
loop).  A run with ``trace=False`` gives the end-to-end metrics.  A run
with ``trace=True`` first repeats the untraced loop for half the time,
then replays the same operations with the layer wrappers installed; the
ratio of the two passes is the tracing overhead, and the traced pass's
spans give the per-layer metrics.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol

from .layers import layer_metrics
from .trace import Tracer, patched

__all__ = ["Outcome", "Workload", "closed_loop", "run_workload", "tail_percentile"]

#: set-ups per run; ``setup_s`` is their median
SETUP_REPS = 5


class Workload(Protocol):
    name: str
    #: a run measures a whole number of blocks of this many operations
    block: int

    def setup(self, seed: int) -> Any: ...

    def op(self, state: Any, i: int, tracer: Tracer | None) -> Any: ...

    def check(self, state: Any, results: list, recheck: bool) -> tuple[set[int], dict]:
        """(indices of failed operations, figures for the report); untimed.

        ``recheck`` asks for one operation to be repeated and compared
        bit for bit (a traced run compares its two passes instead)."""

    def patches(self, tracer: Tracer) -> list[tuple[object, str, Callable]]: ...

    def layer_extras(self, state: Any, results: list, layers: dict) -> None: ...

    def report(self, times: list[float], results: list, extras: dict) -> dict: ...

    def same(self, a: Any, b: Any) -> bool: ...


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: dict[str, float]
    #: figures printed beside the metrics, not gated: name → (value, unit)
    report: dict[str, tuple[Any, str]] = field(default_factory=dict)
    #: wall seconds of each measured operation
    op_times: list[float] = field(default_factory=list)
    tracer: Tracer | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0


def closed_loop(op: Callable[[int], Any], seconds: float | None,
                limit: int | None = None, block: int = 1) -> tuple[list[float], list]:
    """Run ``op(0), op(1), ...`` one after another.

    Stops at the first multiple of ``block`` operations after ``seconds``
    have elapsed, or after ``limit`` operations.
    """
    times: list[float] = []
    results: list = []
    start = time.perf_counter()
    while limit is None or len(times) < limit:
        t0 = time.perf_counter()
        results.append(op(len(times)))
        times.append(time.perf_counter() - t0)
        if (seconds is not None and len(times) % block == 0
                and time.perf_counter() - start >= seconds):
            break
    return times, results


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it.

    Nearest-rank definition; ``None`` when there are fewer than eleven
    samples.
    """
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= 10:
            return p, xs[rank - 1]
    return None


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> Outcome:
    setups = []
    for _ in range(SETUP_REPS):
        # every set-up starts from a collected heap, so a collection left
        # over from the previous one is not timed
        gc.collect()
        t0 = time.perf_counter()
        state = wl.setup(seed)
        setups.append(time.perf_counter() - t0)

    budget = seconds / 2.0 if trace else seconds
    times, results = closed_loop(lambda i: wl.op(state, i, None), budget, block=wl.block)
    if not trace:
        rss = peak_rss_mb()
        bad, extras = wl.check(state, results, recheck=True)
        failed = len(bad)
        metrics = {
            "ops_per_s": len(times) / sum(times),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
        }
        report = {"failed_frac": (failed / len(times), "frac"),
                  **wl.report(times, results, extras)}
        return Outcome(len(times), failed, metrics, report, times)

    tracer = Tracer()

    def traced_op(i: int) -> Any:
        tracer.op = i
        with tracer.span("op"):
            return wl.op(state, i, tracer)

    with patched(wl.patches(tracer)):
        ttimes, tresults = closed_loop(traced_op, None, limit=len(times))
    bad, extras = wl.check(state, tresults, recheck=False)
    # the traced pass repeats the untraced operations: they must agree bit for bit
    bad |= {i for i, (a, b) in enumerate(zip(results, tresults)) if not wl.same(a, b)}
    failed = len(bad)
    layers = layer_metrics(tracer, len(ttimes))
    wl.layer_extras(state, tresults, layers)
    layers["trace_overhead_frac"] = sum(ttimes) / sum(times) - 1.0
    report = {"traced_ops": (len(ttimes), "count"),
              "failed_frac": (failed / len(ttimes), "frac")}
    return Outcome(len(ttimes), failed, layers, report, ttimes, tracer)
