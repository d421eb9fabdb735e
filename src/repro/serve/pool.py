"""Pre-fork worker pool: N processes serving one listen address.

BENCH_5 showed the single-loop server is CPU-bound: sessions/s plateaus
regardless of cores because every sketch encode, peel, and repair plan
shares one Python thread.  :class:`WorkerPoolServer` lifts that cap the
classic pre-fork way:

1. The parent builds (and pre-warms) one :class:`~repro.serve.service.ServerCore`
   — per-variant reconcilers, encoded one-way payloads, Alice's adaptive
   estimator/window state, the opening rateless increments — then binds
   the listen address.
2. It forks N workers.  Under the ``fork`` start method each worker
   inherits the warmed core copy-on-write: no per-worker re-encode of
   the point set, no pickling, near-zero incremental memory until a
   worker writes (it never does — the core is read-only on the hot
   path).
3. Each worker runs the unmodified
   :class:`~repro.serve.service.ReconciliationServer` accept loop over
   the shared address.  Two kernel-level distribution modes:

   * ``SO_REUSEPORT`` (Linux/BSD): every worker binds its own socket to
     the same address and the kernel hashes incoming connections across
     them — no thundering herd, no shared accept lock.
   * shared-socket fallback: the parent binds once pre-fork and every
     worker accepts from the inherited socket; asyncio tolerates the
     accept race (a worker that loses simply retries on the next
     readiness event).

The parent never accepts.  It monitors worker health (restart-on-crash
with a per-worker cap), aggregates per-session stats streamed over a
pipe, and turns SIGTERM into a graceful drain: workers stop accepting,
finish in-flight sessions (each already bounded by ``session_deadline``),
ship their final totals, and exit 0.

Per-worker state that deliberately does **not** shard transparently:

* The rateless resume-token LRU is private to each worker.  A token
  presented to a sibling (the kernel does not pin clients to workers)
  fails as a typed
  :class:`~repro.errors.StaleResumeTokenError`, which
  :func:`~repro.serve.resilience.resilient_sync` already answers by
  resetting its resume state and restarting the stream — correctness is
  never at risk, only the resumed bytes.
* The overload watermark (``max_pending``) and the ``RETRY_LATER``
  backoff hint are per worker: each worker sheds on *its own* backlog,
  the only queue its clients actually wait in, so an N-worker pool
  admits up to ``N * max_sessions`` sessions and ``N * max_pending``
  waiters globally.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import socket
import time
from collections import deque

from repro.core.adaptive import AdaptiveConfig
from repro.core.config import ProtocolConfig
from repro.core.rateless import RatelessConfig
from repro.errors import ConfigError, SessionError
from repro.serve.service import (
    DEFAULT_SESSION_DEADLINE,
    DEFAULT_TIMEOUT,
    ReconciliationServer,
    ServerCore,
    SessionStats,
    tally,
)

#: Listen backlog for pool sockets: deep enough that a worker restart
#: (or a busy accept loop) queues connections instead of refusing them.
LISTEN_BACKLOG = 512

#: How often the parent drains stats pipes and checks worker health.
MONITOR_INTERVAL = 0.05


def fork_available() -> bool:
    """True when the ``fork`` start method exists (POSIX)."""
    return "fork" in multiprocessing.get_all_start_methods()


def reuse_port_available() -> bool:
    """True when this platform can bind N sockets to one address."""
    return hasattr(socket, "SO_REUSEPORT")


def _bind(host: str, port: int, *, reuse_port: bool) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuse_port:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        sock.listen(LISTEN_BACKLOG)
        sock.setblocking(False)
    except BaseException:
        sock.close()
        raise
    return sock


def _worker_main(index, core, sock, server_kwargs, conn) -> None:
    """Entry point of one forked worker process."""
    try:
        asyncio.run(
            _worker_serve(index, core, sock, server_kwargs, conn)
        )
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - teardown race
            pass


async def _worker_serve(index, core, sock, server_kwargs, conn):
    """One worker's life: serve until SIGTERM, then drain and report.

    SIGTERM (the pool's graceful-stop signal) closes the listen socket
    and awaits in-flight handlers — each already bounded by the server's
    ``session_deadline`` budget, so the drain is finite by construction —
    then ships the worker's final totals up the pipe and exits 0.  A
    crash (any escaped exception, or SIGKILL) exits non-zero instead and
    the parent reforks a replacement.
    """
    stopping = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, stopping.set)
    loop.add_signal_handler(signal.SIGINT, stopping.set)

    parent = os.getppid()

    async def watch_parent() -> None:
        # Orphan protection for a non-daemonic worker: if the pool parent
        # vanishes without a SIGTERM (kill -9, crash), drain and exit
        # instead of serving forever from under nobody.
        while os.getppid() == parent:
            await asyncio.sleep(1.0)
        stopping.set()

    watcher = asyncio.ensure_future(watch_parent())

    def on_session(stats: SessionStats) -> None:
        try:
            conn.send(("session", index, stats.record()))
        except (OSError, ValueError):  # pragma: no cover - parent died
            pass

    server = ReconciliationServer(
        core=core,
        sock=sock,
        worker_index=index,
        on_session=on_session,
        **server_kwargs,
    )
    await server.start()
    conn.send(("ready", index, os.getpid()))
    await stopping.wait()
    watcher.cancel()
    await server.close()
    conn.send(("final", index, server.summary()))


class WorkerPoolServer:
    """Serve reconciliation sessions from N pre-forked worker processes.

    A drop-in, scale-out sibling of
    :class:`~repro.serve.service.ReconciliationServer`: same construction
    surface (``(config, points, **knobs)`` or a prebuilt ``core=``), same
    async-context-manager lifecycle, same :attr:`address` /
    :meth:`summary` / :meth:`wait_for_sessions` observers — existing
    clients and tests need no changes.  Per-session knobs
    (``max_sessions``, ``max_pending``, ``timeout``, …) apply to *each
    worker*; see the module docstring for the global arithmetic.

    ``reuse_port=None`` (auto) picks ``SO_REUSEPORT`` where the platform
    offers it and the shared-socket pre-fork accept otherwise.

    Requires the ``fork`` start method (POSIX) — the whole point is
    inheriting the warmed core copy-on-write.
    """

    def __init__(
        self,
        config: ProtocolConfig | None = None,
        points=None,
        *,
        core: ServerCore | None = None,
        workers: int = 2,
        adaptive: AdaptiveConfig | None = None,
        rateless: RatelessConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        reuse_port: bool | None = None,
        warm: bool = True,
        max_sessions: int = 64,
        max_pending: int | None = None,
        retry_after_hint: float = 0.05,
        session_deadline: float | None = DEFAULT_SESSION_DEADLINE,
        resume_capacity: int = 256,
        timeout: float | None = DEFAULT_TIMEOUT,
        stats_history: int = 1024,
        start_timeout: float = 30.0,
        drain_grace: float = 5.0,
        max_restarts: int = 8,
    ):
        if not fork_available():  # pragma: no cover - platform-specific
            raise ConfigError(
                "the pre-fork worker pool requires the 'fork' start method"
            )
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if core is None:
            if config is None or points is None:
                raise ConfigError(
                    "WorkerPoolServer needs (config, points) or core="
                )
            core = ServerCore(
                config, points, adaptive=adaptive, rateless=rateless
            )
        else:
            if config is not None or points is not None:
                raise ConfigError(
                    "pass either a prebuilt core= or (config, points), not both"
                )
            if adaptive is not None or rateless is not None:
                raise ConfigError(
                    "adaptive/rateless knobs live on the core when core= is "
                    "passed"
                )
        self.core = core
        self.workers = workers
        self.host = host
        self.port = port
        self._reuse_port = (
            reuse_port if reuse_port is not None else reuse_port_available()
        )
        self._warm = warm
        self._server_kwargs = {
            "max_sessions": max_sessions,
            "max_pending": max_pending,
            "retry_after_hint": retry_after_hint,
            "session_deadline": session_deadline,
            "resume_capacity": resume_capacity,
            "timeout": timeout,
            "stats_history": stats_history,
        }
        self.session_deadline = session_deadline
        self.start_timeout = start_timeout
        self.drain_grace = drain_grace
        self.max_restarts = max_restarts
        self._ctx = multiprocessing.get_context("fork")
        self._socks: list[socket.socket] = []
        self._procs: list = [None] * workers
        self._conns: list = [None] * workers
        self._pids: list[int | None] = [None] * workers
        self._ready: list[bool] = [False] * workers
        self._restarts: list[int] = [0] * workers
        self._monitor_task: asyncio.Task | None = None
        self._closing = False
        self._started = False
        #: Recent session records (dicts, transcript-free) pooled across
        #: workers, newest last — the pool's analogue of the server's
        #: bounded ``stats`` deque.
        self.stats = deque(maxlen=stats_history)
        self._totals = {
            "sessions": 0, "ok": 0, "failed": 0, "shed": 0, "resumed": 0,
            "bytes_out": 0, "bytes_in": 0, "restarts": 0,
        }
        self.worker_summaries: dict[int, dict] = {}

    # ------------------------------------------------------------ lifecycle

    @property
    def mode(self) -> str:
        """How connections are distributed: ``reuse-port`` (kernel hash
        across per-worker sockets) or ``shared-socket`` (pre-fork accept
        from one inherited socket)."""
        return "reuse-port" if self._reuse_port else "shared-socket"

    @property
    def address(self) -> tuple[str, int]:
        """Where the pool listens (valid after :meth:`start`)."""
        return self.host, self.port

    def worker_pids(self) -> list[int | None]:
        """Live worker pids by index (``None`` before spawn / after a
        graceful exit) — for health checks and crash tests."""
        return list(self._pids)

    async def start(self) -> tuple[str, int]:
        """Warm, bind, fork, and wait until every worker accepts."""
        if self._started:
            raise SessionError("worker pool already started")
        self._started = True
        if self._warm:
            # Build every shared cache in the parent so the forks below
            # inherit them copy-on-write.
            self.core.warm()
        if self._reuse_port:
            first = _bind(self.host, self.port, reuse_port=True)
            self._socks.append(first)
            self.host, self.port = first.getsockname()[:2]
            for _ in range(self.workers - 1):
                self._socks.append(
                    _bind(self.host, self.port, reuse_port=True)
                )
        else:
            sock = _bind(self.host, self.port, reuse_port=False)
            self._socks.append(sock)
            self.host, self.port = sock.getsockname()[:2]
        for index in range(self.workers):
            self._spawn_worker(index)
        deadline = time.monotonic() + self.start_timeout
        while not all(self._ready):
            self._drain_pipes()
            if time.monotonic() > deadline:
                await self.close()
                raise SessionError(
                    f"worker pool failed to start within "
                    f"{self.start_timeout:g}s "
                    f"({sum(self._ready)}/{self.workers} workers ready)"
                )
            await asyncio.sleep(0.01)
        self._monitor_task = asyncio.ensure_future(self._monitor())
        return self.address

    def _sock_for(self, index: int) -> socket.socket:
        return self._socks[index if self._reuse_port else 0]

    def _spawn_worker(self, index: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        old = self._conns[index]
        if old is not None:
            old.close()
        self._conns[index] = parent_conn
        self._ready[index] = False
        # Not daemonic, although no worker code starts processes of its
        # own (the sketch encode fans out on threads).  The pool's drain,
        # restart and orphan handling are built and tested around
        # non-daemonic workers: SIGTERM drains each one, and orphan
        # protection comes from the worker's parent watcher (see
        # _worker_serve).
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                index,
                self.core,
                self._sock_for(index),
                self._server_kwargs,
                child_conn,
            ),
            daemon=False,
            name=f"repro-serve-worker-{index}",
        )
        process.start()
        child_conn.close()
        self._procs[index] = process
        self._pids[index] = process.pid

    def _drain_pipes(self) -> None:
        """Pull every pending worker message (non-blocking, re-entrant on
        one event loop: no awaits inside)."""
        for index, conn in enumerate(self._conns):
            if conn is None:
                continue
            while True:
                try:
                    if not conn.poll():
                        break
                    message = conn.recv()
                except (EOFError, OSError):
                    break
                kind = message[0]
                if kind == "ready":
                    self._ready[index] = True
                    self._pids[index] = message[2]
                elif kind == "session":
                    self.stats.append(message[2])
                    tally(self._totals, message[2])
                elif kind == "final":
                    self.worker_summaries[index] = message[2]

    async def _monitor(self) -> None:
        """Health loop: drain stats, refork crashed workers.

        A worker that exited 0 drained gracefully (pool shutdown or a
        targeted SIGTERM) and is not replaced; any other exit is a crash
        and is reforked — from the parent, which still holds the listen
        socket(s) and the warmed core — up to ``max_restarts`` times per
        slot (a crash-looping config must not fork-bomb the host).
        """
        while True:
            self._drain_pipes()
            if not self._closing:
                for index, process in enumerate(self._procs):
                    if process is None or process.is_alive():
                        continue
                    process.join()
                    if (
                        process.exitcode != 0
                        and self._restarts[index] < self.max_restarts
                    ):
                        self._restarts[index] += 1
                        self._totals["restarts"] += 1
                        self._spawn_worker(index)
                    else:
                        self._procs[index] = None
                        self._pids[index] = None
            await asyncio.sleep(MONITOR_INTERVAL)

    async def close(self) -> None:
        """Graceful stop: SIGTERM every worker, await their drains
        (bounded by ``session_deadline`` plus ``drain_grace``), SIGKILL
        stragglers, collect final stats, release sockets."""
        if self._closing:
            return
        self._closing = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            try:
                await self._monitor_task
            except asyncio.CancelledError:
                pass
            self._monitor_task = None
        for process in self._procs:
            if process is not None and process.is_alive():
                process.terminate()  # SIGTERM -> worker drains
        budget = (self.session_deadline or 0.0) + self.drain_grace
        deadline = time.monotonic() + budget
        while any(p is not None and p.is_alive() for p in self._procs):
            self._drain_pipes()
            if time.monotonic() > deadline:
                for process in self._procs:
                    if process is not None and process.is_alive():
                        process.kill()
                break
            await asyncio.sleep(0.02)
        for index, process in enumerate(self._procs):
            if process is not None:
                process.join()
                self._procs[index] = None
                self._pids[index] = None
        self._drain_pipes()
        for conn in self._conns:
            if conn is not None:
                conn.close()
        self._conns = [None] * self.workers
        for sock in self._socks:
            sock.close()
        self._socks = []

    async def __aenter__(self) -> "WorkerPoolServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def serve_forever(self) -> None:
        """Block serving until cancelled (the CLI's daemon path)."""
        if not self._started:
            await self.start()
        while not self._closing:
            await asyncio.sleep(MONITOR_INTERVAL)

    # ------------------------------------------------------------ observers

    def summary(self) -> dict:
        """Aggregate totals across every worker (running totals streamed
        per session over the stats pipes, plus ``restarts`` — the number
        of crash reforks the monitor performed)."""
        self._drain_pipes()
        return dict(self._totals)

    async def wait_for_sessions(self, count: int) -> None:
        """Block until ``count`` sessions (ok or failed) finished
        pool-wide."""
        while True:
            self._drain_pipes()
            if self._totals["sessions"] >= count:
                return
            await asyncio.sleep(0.02)

    def digest(self, variant: str) -> str:
        """The config digest every worker expects for ``variant`` (one
        shared core — digest-identical across the pool by construction)."""
        return self.core.digest(variant)
