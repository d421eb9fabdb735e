"""Pluggable shard executors: serial, thread pool, process pool.

The sharded engine maps one task per shard over an executor.  Which kind
wins depends on the machine and the IBLT backend:

* ``serial`` — no concurrency, no overhead.  The right choice on
  single-core machines and for small shards, and always a valid fallback.
* ``thread`` — a :class:`~concurrent.futures.ThreadPoolExecutor`.  Pays no
  serialization cost; useful with the numpy backend, whose batch kernels
  release the GIL for parts of their work.
* ``process`` — a :class:`~concurrent.futures.ProcessPoolExecutor`
  (``fork`` start method where available, so workers inherit the loaded
  library instead of re-importing it).  True multi-core parallelism for the
  pure-Python backend at the cost of shipping shard inputs and results
  between processes; the engine keeps those picklable and small.
* ``auto`` — ``serial`` on one core; otherwise ``thread`` for the numpy
  backend and ``process`` for the pure one.

Executors are private to each party (they never affect the wire), mirror
the ``backend`` selection philosophy, and are constructed lazily so a
:class:`~repro.core.config.ProtocolConfig` stays cheap to build.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from repro.errors import ConfigError

T = TypeVar("T")
R = TypeVar("R")


def default_workers(shards: int) -> int:
    """Executor width when the config leaves ``workers`` unset."""
    return max(1, min(shards, os.cpu_count() or 1))


def fork_available() -> bool:
    """True when the ``fork`` start method exists (POSIX).  Both the
    copy-on-write process pool below and the serve layer's pre-fork
    worker pool require it."""
    return "fork" in multiprocessing.get_all_start_methods()


class ShardExecutor:
    """Minimal executor interface the sharded engine relies on."""

    kind = "serial"

    def map(self, fn: Callable[[T], R], tasks: Sequence[T]) -> list[R]:
        """Apply ``fn`` to every task, preserving task order."""
        return [fn(task) for task in tasks]

    def close(self) -> None:
        """Release pooled resources (idempotent)."""

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(ShardExecutor):
    """Run shard tasks inline, in order."""

    kind = "serial"


class ThreadExecutor(ShardExecutor):
    """Run shard tasks on a shared thread pool."""

    kind = "thread"

    def __init__(self, workers: int):
        self._pool = ThreadPoolExecutor(max_workers=workers)

    def map(self, fn: Callable[[T], R], tasks: Sequence[T]) -> list[R]:
        return list(self._pool.map(fn, tasks))

    def close(self) -> None:
        self._pool.shutdown(wait=True)


class ProcessExecutor(ShardExecutor):
    """Run shard tasks on a process pool (``fork`` where the OS offers it).

    Task functions and arguments must be picklable; the engine's shard
    tasks are module-level functions over configs, byte strings, and point
    sequences.
    """

    kind = "process"

    def __init__(self, workers: int):
        context = multiprocessing.get_context(
            "fork" if fork_available() else None
        )
        self._pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)

    def map(self, fn: Callable[[T], R], tasks: Sequence[T]) -> list[R]:
        return list(self._pool.map(fn, tasks))

    def close(self) -> None:
        self._pool.shutdown(wait=True)


def _auto_kind(backend: str) -> str:
    if (os.cpu_count() or 1) <= 1:
        return "serial"
    # The numpy kernels release the GIL for part of their work and threads
    # skip all pickling; the pure backend only scales across processes.
    return "thread" if backend == "numpy" else "process"


def make_executor(
    kind: str, workers: int | None, shards: int, backend: str = "auto"
) -> ShardExecutor:
    """Build the executor a config asks for.

    ``kind="auto"`` resolves from the machine and backend (see module
    docstring); explicit kinds are honoured as-is.
    """
    if kind == "auto":
        kind = _auto_kind(backend)
    if kind not in ("serial", "thread", "process"):
        raise ConfigError(f"unknown executor kind {kind!r}")
    resolved_workers = workers if workers is not None else default_workers(shards)
    if kind == "serial" or (resolved_workers <= 1 and kind == "thread"):
        # A one-worker thread pool is pure overhead; a one-worker process
        # pool is honoured (callers may want the isolation).
        return SerialExecutor()
    if kind == "thread":
        return ThreadExecutor(resolved_workers)
    return ProcessExecutor(resolved_workers)


def executors_available() -> tuple[str, ...]:
    """Executor kinds constructible on this machine (for CLI help/info)."""
    kinds = ["serial", "thread"]
    try:
        # Process pools need working multiprocessing synchronisation
        # primitives (sem_open); sandboxes without them fail this import.
        import multiprocessing.synchronize  # noqa: F401
    except ImportError:  # pragma: no cover - platform-specific
        return tuple(kinds)
    kinds.append("process")
    return tuple(kinds)
