"""Numeric execution of a Cholesky task graph.

The simulator prices a DAG in time; this module *computes* it, running the
same task graph through the numeric tile kernels with payload
quantisation applied exactly where the conversion strategy puts it.  It
exists so tests can assert that the DAG the PTG unrolls is the same
algorithm as the sequential reference (:func:`repro.core.cholesky.mp_cholesky`)
— same dataflow, bit-identical results.

One ready-heap runner serves every thread count: a task becomes runnable
when its last predecessor completes, and free host threads pop the
runnable task a :class:`~repro.runtime.policies.SchedulePolicy` ranks
first (default: the simulator's panel-first priority).  NumPy kernels
release the GIL inside BLAS, so tile kernels on independent tiles
genuinely overlap.  Execution order never changes the arithmetic —
every task consumes exactly the payloads its inputs name — so results
are bit-identical across thread counts and policies (asserted by tests).

Input-ordering convention of the Cholesky PTG (relied upon here):

* ``POTRF(k)``         reads ``[C(k,k) inout]``
* ``TRSM(m,k)``        reads ``[L(k,k) in, C(m,k) inout]``
* ``SYRK(m,k)``        reads ``[L(m,k) in, C(m,m) inout]``
* ``GEMM(m,n,k)``      reads ``[L(m,k) in, L(n,k) in, C(m,n) inout]``
"""

from __future__ import annotations

import heapq
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Mapping

import numpy as np

from ..obs import span
from ..precision.emulate import quantize, quantize_batch
from ..tiles import kernels as tk
from ..tiles.tilematrix import TiledSymmetricMatrix
from .policies import SchedState, SchedulePolicy, resolve_policy
from .task import Task, TaskGraph

__all__ = ["execute_numeric"]

#: bulk tile fetcher: tile coordinates -> raw FP64 tile per coordinate
TileFetcher = Callable[[list[tuple[int, int]]], Mapping[tuple[int, int], np.ndarray]]


def _payload(values: dict, inp) -> np.ndarray:
    """Fetch one input payload, applying its communication quantisation."""
    key = (inp.tile.i, inp.tile.j, inp.tile.version)
    data = values[key]
    return quantize(data, inp.payload_precision)


def _tiles_of(mat: TiledSymmetricMatrix) -> TileFetcher:
    """A tile fetcher reading the tiles held by ``mat``."""
    return lambda coords: {(i, j): mat.get(i, j) for i, j in coords}


def _seed_version0(graph: TaskGraph, fetch: TileFetcher, rank: int | None = None) -> dict:
    """Version-0 tiles the graph reads, quantised to storage precision.

    ``fetch`` supplies the raw tiles in one call — ``_tiles_of`` over
    an in-memory matrix, or a rank's streaming ingest
    (:meth:`repro.geostats.dataplane.RankIngest.build_tiles`), which
    builds them in-process.  All tiles sharing a storage precision go
    through one :func:`quantize_batch` pass (the generation-phase cast
    of Section V, vectorised).  ``rank`` restricts the scan to that
    rank's tasks (the distributed executor's per-shard seeding).
    """
    wanted: dict[tuple[int, int, int], object] = {}
    for task in graph:
        if rank is not None and task.rank != rank:
            continue
        for inp in task.inputs:
            if inp.producer is None:
                key = (inp.tile.i, inp.tile.j, inp.tile.version)
                if key not in wanted:
                    wanted[key] = inp.storage_precision
    raw = fetch(sorted({(i, j) for i, j, _v in wanted}))
    by_precision: dict[object, list[tuple[int, int, int]]] = {}
    for key, prec in wanted.items():
        by_precision.setdefault(prec, []).append(key)
    values: dict[tuple[int, int, int], np.ndarray] = {}
    for prec, keys in by_precision.items():
        tiles = quantize_batch([raw[(i, j)] for i, j, _v in keys], prec)
        for key, tile in zip(keys, tiles):
            values[key] = tile
    return values


def _write_final(out: TiledSymmetricMatrix, values: dict) -> None:
    """Store the highest version of every lower tile in ``values`` into ``out``."""
    final: dict[tuple[int, int], tuple[int, np.ndarray]] = {}
    for (i, j, v), data in values.items():
        if j > i:
            continue
        if (i, j) not in final or v > final[(i, j)][0]:
            final[(i, j)] = (v, data)
    for (i, j), (_v, data) in final.items():
        out.set(i, j, data, precision=out.precision_of(i, j))


def execute_numeric(
    graph: TaskGraph,
    mat: TiledSymmetricMatrix,
    *,
    n_threads: int = 1,
    policy: str | SchedulePolicy | None = None,
) -> TiledSymmetricMatrix:
    """Run the task graph numerically against the tiles of ``mat``.

    ``mat`` provides the version-0 tiles; the returned matrix holds the
    Cholesky factor with the same storage-precision map the graph's
    output precisions dictate.  ``n_threads`` host threads share one
    ready heap ordered by ``policy``; at ``n_threads=1`` the loop runs on
    the calling thread, so per-task spans nest under ``executor.numeric``.
    Neither argument changes the arithmetic.
    """
    if n_threads < 1:
        raise ValueError("n_threads must be positive")
    sched = resolve_policy(policy)
    sched.prepare(graph, None, mat.nb)
    # no engine/cache model here: the explicit null state (nothing
    # resident) keeps residency-aware policies deterministic
    state = SchedState.null()
    key_of = sched.key
    tasks = graph.tasks
    out = mat.copy()
    # version-0 values at storage precision (generation-phase cast),
    # one vectorised quantisation pass per storage precision
    values = _seed_version0(graph, _tiles_of(out))

    n = len(graph)
    preds, succs = graph.adjacency()
    in_count = [len(p) for p in preds]
    ready = [(*key_of(tasks[t], 0.0, state), t) for t in range(n) if not in_count[t]]
    heapq.heapify(ready)
    cond = threading.Condition()
    errors: list[BaseException] = []
    remaining = n
    running = 0

    def worker() -> None:
        nonlocal remaining, running
        while True:
            with cond:
                # an empty heap with tasks still running may refill
                while not ready and running and not errors:
                    cond.wait()
                if errors or not ready:  # failed, drained, or stalled
                    return
                tid = heapq.heappop(ready)[-1]
                running += 1
            task = tasks[tid]
            try:
                with span(
                    "task",
                    kind=task.kind,
                    tile=(task.output.i, task.output.j),
                    precision=task.precision.name,
                ):
                    # store at the task's output (storage) precision
                    result = quantize(_run_task(task, values), task.output_precision)
            except BaseException as exc:
                with cond:
                    errors.append(exc)
                    running -= 1
                    cond.notify_all()
                return
            with cond:
                values[(task.output.i, task.output.j, task.output.version)] = result
                for succ in succs[tid]:
                    in_count[succ] -= 1
                    if in_count[succ] == 0:
                        heapq.heappush(ready, (*key_of(tasks[succ], 0.0, state), succ))
                remaining -= 1
                running -= 1
                cond.notify_all()

    with span("executor.numeric", n_tasks=n, n_threads=n_threads):
        if n_threads == 1:
            worker()
        else:
            with ThreadPoolExecutor(max_workers=n_threads) as pool:
                for f in [pool.submit(worker) for _ in range(n_threads)]:
                    f.result()

    if errors:
        raise errors[0]
    if remaining:
        raise RuntimeError(f"numeric execution stalled with {remaining} tasks left")
    _write_final(out, values)
    return out


def _run_task(task: Task, values: dict) -> np.ndarray:
    kind = task.kind
    if kind == "POTRF":
        c = _payload(values, task.inputs[0])
        return np.tril(tk.potrf(c))
    if kind == "TRSM":
        l_kk, c_mk = (_payload(values, i) for i in task.inputs)
        return tk.trsm(l_kk, c_mk, precision=task.precision)
    if kind == "SYRK":
        panel_inp, c_inp = task.inputs
        panel = _payload(values, panel_inp)
        c = _payload(values, c_inp)
        return tk.syrk(panel, c, precision=panel_inp.payload_precision)
    if kind == "GEMM":
        a_inp, b_inp, c_inp = task.inputs
        a = _payload(values, a_inp)
        b = _payload(values, b_inp)
        c = _payload(values, c_inp)
        return tk.gemm(a, b, c, precision=task.precision)
    raise ValueError(f"unknown task kind {kind!r}")
