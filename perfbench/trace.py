"""In-memory spans recorded from outside the program, and their self times.

The benchmark never edits the program: for a traced run it replaces the
public functions it wants to time with wrappers (:func:`patched`) and
restores the originals afterwards.  Spans live in memory until the run
ends; :meth:`Tracer.self_times` subtracts from each span the durations of
its child spans.

Spans are stored column-wise in lists of numbers and strings, which the
garbage collector does not traverse: the streamed simulation records one
span per emitted task, and tens of thousands of live span objects would
slow every collection the simulator triggers.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

__all__ = ["Tracer", "patched"]


@dataclass
class Tracer:
    """Spans of one run plus counters recorded at the same boundaries.

    ``op`` is the id shared by every span of the current operation (one
    likelihood evaluation or one simulation).  Parent and op ids of -1
    mean none.
    """

    names: list[str] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    ops: list[int] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    op: int = -1
    _stack: list[int] = field(default_factory=list)

    def begin(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(float("nan"))
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def end(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed while span {popped} was open")

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        sid = self.begin(name)
        try:
            yield sid
        finally:
            self.end(sid)

    def count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def wrap(self, fn: Callable, name: str | Callable[..., str]) -> Callable:
        """``fn`` inside a span; ``name`` may derive the span name from the args."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            sid = self.begin(name(*args, **kwargs) if callable(name) else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(sid)

        return wrapper

    def iterate(self, source: Iterable, name: str) -> Iterator:
        """Yield from ``source``, timing each ``next()`` as a span."""
        it = iter(source)
        while True:
            sid = self.begin(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.end(sid)
            yield item

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its children.

        :meth:`end` enforces stack order, so children are disjoint and
        lie inside their parent.
        """
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        out = list(durations)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= durations[sid]
        return out

    def to_json(self) -> dict[str, list]:
        """Spans as columns; a span's id is its index."""
        return {"name": self.names, "parent": self.parents, "op": self.ops,
                "start": self.starts, "end": self.ends, "self": self.self_times()}


@contextlib.contextmanager
def patched(replacements: list[tuple[object, str, Callable]]) -> Iterator[None]:
    """Set each ``(module, attr)`` to its replacement, restoring on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    try:
        for mod, attr, new in replacements:
            setattr(mod, attr, new)
        yield
    finally:
        for mod, attr, old in saved:
            setattr(mod, attr, old)
