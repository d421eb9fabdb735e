"""An in-memory span recorder that wraps a program's public functions.

Spans record a name, start, end, the span that caused them and the sync
they belong to; they stay in memory until the benchmark asks for them.
The parent is tracked per asyncio task (a ``contextvars`` variable), so
the server's handler and the client, interleaved on one event loop,
each get their own call tree.

A layer's *self time* is its span's duration minus the part of that
interval covered by its child spans.

Nothing here imports ``repro``: the benchmark's own files decide which
entry points to wrap (see :mod:`perfbench.trace`).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import math
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    sync_id: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans; the benchmark sets :attr:`sync_id` per sync.

    The benchmark runs one connection at a time (a closed loop), so a
    single current sync id names every span, server- and client-side,
    recorded while that sync is in flight.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.sync_id = 0
        self._current: contextvars.ContextVar[int | None] = (
            contextvars.ContextVar(f"span-parent-{id(self)}", default=None)
        )

    def open(self, name: str) -> tuple[int, contextvars.Token]:
        index = len(self.spans)
        self.spans.append(Span(
            name, self.clock(), parent=self._current.get(),
            sync_id=self.sync_id,
        ))
        return index, self._current.set(index)

    def close(self, index: int, token: contextvars.Token) -> Span:
        span = self.spans[index]
        span.end = self.clock()
        self._current.reset(token)
        return span

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for index, span in enumerate(self.spans):
            if span.parent is not None:
                kids.setdefault(span.parent, []).append(index)
        return kids

    def self_times(self) -> list[float]:
        """Self time of every span, index-aligned with :attr:`spans`."""
        kids = self.children()
        return [
            span.duration - covered(
                span.start, span.end,
                [(self.spans[c].start, self.spans[c].end)
                 for c in kids.get(index, ())],
            )
            for index, span in enumerate(self.spans)
        ]


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class Patcher:
    """Replace attributes with span-recording wrappers; undo on exit.

    ``wrap(owner, attr, name, on_result)`` patches ``owner.attr`` where
    callers look it up — a module global imported by name must be
    patched in the importing module.  ``on_result(span, args, result)``
    may store attributes (bytes parsed, success flags) on the span.
    """

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        raw = inspect.getattr_static(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        recorder = self.recorder

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                index, token = recorder.open(name)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    span = recorder.close(index, token)
                if on_result is not None:
                    on_result(span, args, result)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index, token = recorder.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span = recorder.close(index, token)
                if on_result is not None:
                    on_result(span, args, result)
                return result

        self._undo.append((owner, attr, raw))
        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


@dataclass(frozen=True)
class Percentiles:
    """p50 and p95 of a sample, with the counts that qualify them.

    ``beyond_p95`` is how many samples lie above the p95 rank; a p95
    backed by fewer than ten is reported but flagged as thin.
    """

    count: int
    p50: float
    p95: float
    beyond_p95: int

    @property
    def p95_supported(self) -> bool:
        return self.beyond_p95 >= 10


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def percentiles(values) -> Percentiles:
    values = list(values)
    rank = 0.95 * (len(values) - 1)
    return Percentiles(
        count=len(values),
        p50=percentile(values, 0.5),
        p95=percentile(values, 0.95),
        beyond_p95=len(values) - 1 - math.floor(rank),
    )


def stratified(values, strata) -> Percentiles:
    """p50 and p95 over a mix of inputs with different typical costs.

    ``strata[i]`` names the input that ``values[i]`` was measured on.
    The p50 is the mean of the inputs' medians; the p95 is that times
    the p95 of every value relative to its own input's median.  With
    one input this is the plain p50 and p95.  With many, a percentile
    of the pooled values would jump with which inputs a seed happened to
    draw; this one moves like a mean over inputs, and its tail still
    pools every sample.
    """
    groups: dict = {}
    for value, stratum in zip(values, strata):
        groups.setdefault(stratum, []).append(value)
    medians = {key: percentile(group, 0.5) for key, group in groups.items()}
    relative = percentiles(
        value / medians[stratum] for value, stratum in zip(values, strata)
    )
    p50 = sum(medians.values()) / len(medians)
    return Percentiles(
        count=relative.count, p50=p50, p95=p50 * relative.p95,
        beyond_p95=relative.beyond_p95,
    )
