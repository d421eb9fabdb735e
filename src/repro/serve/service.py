"""The asyncio reconciliation service: TCP server, client, stream pump.

The server is Alice for every connection: it holds the reference point
multiset and serves any protocol variant a client asks for (the client is
Bob, repairing towards the server).  One sans-I/O session per connection,
a semaphore bounding how many run concurrently, per-session stats, and a
handshake that rejects peers whose public-coin config drifted.

Concurrency model: frames move through the event loop and each
session's compute (sketch encode, peel, repair) runs inline on it, so
sessions overlap on I/O and handshake latency while CPU work serialises
— the standard single-process asyncio trade.  It suffices because
the server's share of a sync is small: in every variant the peel and
the repair run at the client, and Alice answers from caches.

Those caches live in :class:`ServerCore`: everything a connection needs
but never mutates — config, knobs, the point multiset, per-variant
reconcilers and payload caches — built (and optionally pre-warmed) once
and shared by every connection.
"""

from __future__ import annotations

import asyncio
import os
import time
from collections import OrderedDict, deque
from dataclasses import dataclass

from repro.core.adaptive import AdaptiveConfig, AdaptiveReconciler
from repro.core.config import ProtocolConfig
from repro.core.protocol import HierarchicalReconciler
from repro.core.rateless import RatelessConfig, RatelessReconciler
from repro.errors import (
    ConfigError,
    ReproError,
    ServerOverloadedError,
    SessionError,
    StaleResumeTokenError,
)
from repro.net.channel import SimulatedChannel
from repro.net.transcript import Transcript
from repro.serve import handshake
from repro.serve.frames import read_frame, write_frame
from repro.session import VARIANTS, make_session
from repro.session.base import Session
from repro.session.driver import (
    INBOUND_DIRECTION,
    OUTBOUND_DIRECTION,
    outbound_messages,
)
from repro.session.rateless import RatelessResumeState

#: Default per-read timeout; generous for a LAN, finite so nothing hangs.
DEFAULT_TIMEOUT = 30.0

#: Default whole-connection budget on the server: handshake-to-hangup for
#: one session.  No single slow (or stalling) peer may pin a session slot
#: longer than this, whatever the per-read timeout allows frame by frame.
DEFAULT_SESSION_DEADLINE = 120.0

#: How long a transport is given to acknowledge ``close()`` before the
#: cleanup path stops waiting for it (the close itself is already issued;
#: only the confirmation is abandoned).
CLOSE_TIMEOUT = 5.0


async def close_writer(writer: asyncio.StreamWriter) -> None:
    """Close a transport and await the close with a bound, swallowing the
    races every failure path shares.

    The one cleanup used by every early return in the server and client:
    ``close()`` then ``wait_closed()``, tolerating peers that vanished
    first (``ConnectionError``/``OSError``) and transports that never
    confirm (bounded by :data:`CLOSE_TIMEOUT`, so a cleanup can never
    hang a handler that is already failing).
    """
    writer.close()
    try:
        await asyncio.wait_for(writer.wait_closed(), CLOSE_TIMEOUT)
    except (ConnectionError, OSError, asyncio.TimeoutError):
        pass


async def pump_stream(
    session: Session,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    *,
    channel: SimulatedChannel | None = None,
    timeout: float | None = DEFAULT_TIMEOUT,
) -> object:
    """Drive one session endpoint over framed asyncio streams to completion.

    Optionally records every payload (both directions, with the same
    labels a simulated run uses) onto ``channel``, which makes TCP runs
    transcript-comparable with :class:`~repro.net.channel.SimulatedChannel`
    runs.  Returns the session's result.
    """
    out_direction = OUTBOUND_DIRECTION[session.role]
    in_direction = INBOUND_DIRECTION[session.role]

    async def ship(output) -> None:
        for message in outbound_messages(output):
            if channel is not None:
                channel.send(out_direction, message.payload, message.label)
            await write_frame(writer, message.payload, timeout=timeout)

    await ship(session.start())
    while not session.done:
        payload = await read_frame(reader, timeout=timeout)
        if channel is not None:
            channel.send(in_direction, payload, session.inbound_label())
        await ship(session.feed(payload))
    return session.result


@dataclass
class SessionStats:
    """What the server remembers about one connection."""

    peer: str
    variant: str = ""
    ok: bool = False
    error: str = ""
    duration_s: float = 0.0
    shed: bool = False
    resumed_from: int | None = None
    transcript: Transcript | None = None

    def to_dict(self) -> dict:
        record = {
            "peer": self.peer,
            "variant": self.variant,
            "ok": self.ok,
            "error": self.error,
            "duration_s": self.duration_s,
            "shed": self.shed,
            "resumed_from": self.resumed_from,
        }
        if self.transcript is not None:
            record["transcript"] = self.transcript.to_dict()
        return record

    def record(self) -> dict:
        """:meth:`to_dict` with the transcript (which can dwarf the
        session's own wire traffic) folded into the byte counts of an ok
        session: what the server's running totals add up."""
        record = self.to_dict()
        transcript = record.pop("transcript", None)
        counted = self.ok and transcript is not None
        record["bytes_out"] = transcript["alice_to_bob_bytes"] if counted else 0
        record["bytes_in"] = transcript["bob_to_alice_bytes"] if counted else 0
        return record


@dataclass
class _ResumeEntry:
    """One rateless stream the server remembers how far it streamed.

    ``sent`` is the absolute count of increments written on any
    connection serving this stream; a resume request may continue at any
    index up to it.  The config digest pins the public coins the stream
    was encoded under — a drifted client must re-handshake from scratch.
    ``ingests`` is the core's ingest count when the stream began: an
    ingest since then changed the point set the increments encode, so
    the stream can no longer be continued.
    """

    digest: str
    ingests: int
    sent: int = 0


class ServerCore:
    """The immutable, shareable half of a reconciliation server.

    Everything a connection needs but never mutates lives here: the
    public-coin configs, the reference point multiset, the per-variant
    reconcilers (grids, Alice's reused estimator/window state, the
    rateless increment cache) and the pre-encoded one-way payloads.
    Per-connection *mutable* state — the semaphore, stats, the resume-token
    LRU — stays on :class:`ReconciliationServer`.

    :meth:`warm` builds every cache before the first connection, so no
    session pays for a cold encode.  After a warm the caches are only
    ever *read* on the hot path, so sharing one core across several
    servers (as the store restart and differential tests do) is safe.
    """

    def __init__(
        self,
        config: ProtocolConfig,
        points,
        *,
        adaptive: AdaptiveConfig | None = None,
        rateless: RatelessConfig | None = None,
        store=None,
    ):
        self.config = config
        self.adaptive = adaptive or AdaptiveConfig()
        self.rateless = rateless or RatelessConfig()
        self.points = points
        #: Optional :class:`~repro.store.DurableSketchStore` backing the
        #: one-way payload caches — the recovered sketch state *is* the
        #: encoded message, so a warm boot skips the from-scratch encode.
        self.store = store
        #: How many non-empty batches :meth:`ingest` has applied; resume
        #: tokens minted before the latest ingest are refused.
        self.ingests = 0
        self._reconcilers: dict[str, object] = {}
        self._encoded: dict[str, bytes] = {}
        self._digests: dict[str, str] = {}

    def recovery_summary(self) -> dict | None:
        """The store's recovery diagnostics for the welcome frame.

        ``None`` without a store (keeping the welcome byte-identical to
        a store-less server); otherwise a small dict clients may print
        but must never branch on.
        """
        if self.store is None:
            return None
        recovery = self.store.recovery
        return {
            "source": recovery.source,
            "generation": recovery.generation,
            "records": recovery.replayed_records,
            "n_points": recovery.n_points,
        }

    def ingest(self, points) -> int:
        """Durably insert live points (the broadcast / anti-entropy seam).

        With a store attached the batch is WAL-appended and fsynced
        *before* this returns (and before any caller acks upstream);
        the in-memory caches — encoded payloads, per-variant reconciler
        state — are then invalidated and rebuilt lazily on the next
        session.
        """
        points = list(points)
        if not points:
            return 0
        if self.store is not None:
            self.store.insert_batch(points)
        self.points = list(self.points) + points
        self.ingests += 1
        self.close()
        return len(points)

    def digest(self, variant: str) -> str:
        """The config digest this core expects for ``variant`` (cached)."""
        if variant not in self._digests:
            self._digests[variant] = handshake.config_digest(
                self.config, variant, self.adaptive, self.rateless
            )
        return self._digests[variant]

    def reconciler(self, variant: str):
        """The shared per-variant engine (built on first use).

        The adaptive and rateless reconcilers opt into
        ``reuse_alice_state``: the server's point multiset is fixed for
        the core's lifetime, which is exactly the contract that flag
        requires.
        """
        factories = {
            "one-round": lambda: HierarchicalReconciler(self.config),
            "adaptive": lambda: AdaptiveReconciler(
                self.config, self.adaptive, reuse_alice_state=True
            ),
            "rateless": lambda: RatelessReconciler(
                self.config, self.rateless, reuse_alice_state=True
            ),
        }
        if variant not in self._reconcilers:
            self._reconcilers[variant] = factories[variant]()
        return self._reconcilers[variant]

    def encoded(self, variant: str) -> bytes:
        """Cached opening payload of a one-way variant — a deterministic
        function of (config, points), so one encode serves every
        connection.

        With a store attached the payload comes straight off the
        recovered sketch state — bit-identical to the from-scratch
        encode (the store's differential contract), minus the encode.
        """
        if variant not in self._encoded:
            if self.store is not None and variant == "one-round":
                self._encoded[variant] = self.store.one_round_encode()
            else:
                self._encoded[variant] = self.reconciler(variant).encode(
                    self.points
                )
        return self._encoded[variant]

    def session_for(self, variant: str, start_index: int = 0) -> Session:
        """Build one connection's Alice session over the shared caches."""
        kwargs = {"reconciler": self.reconciler(variant)}
        if variant == "one-round":
            kwargs["encoded"] = self.encoded(variant)
        if variant == "rateless":
            kwargs["start_index"] = start_index
        return make_session(variant, "alice", self.config, self.points, **kwargs)

    def warm(
        self,
        variants=VARIANTS,
        *,
        rateless_increments: int = 2,
    ) -> "ServerCore":
        """Prebuild every cache a session would otherwise build on demand.

        Called once before serving: digests, the
        per-variant reconcilers, the one-way encoded payloads, Alice's
        adaptive estimator/window state at every sampled level, and the
        first ``rateless_increments`` rateless increments.  Returns
        ``self`` for chaining.
        """
        for variant in variants:
            self.digest(variant)
            reconciler = self.reconciler(variant)
            if variant == "one-round":
                self.encoded(variant)
            if hasattr(reconciler, "warm_alice"):
                if variant == "rateless":
                    reconciler.warm_alice(
                        self.points, increments=rateless_increments
                    )
                else:
                    reconciler.warm_alice(self.points)
        return self

    def close(self) -> None:
        """Drop the per-variant engines and encoded payloads (idempotent);
        they are rebuilt on demand."""
        self._reconcilers.clear()
        self._encoded.clear()


class ReconciliationServer:
    """Serve reconciliation sessions (as Alice) over TCP.

    Usable as an async context manager::

        async with ReconciliationServer(config, points) as server:
            host, port = server.address
            ...

    ``port=0`` (the default) binds an ephemeral port, published via
    :attr:`address` after :meth:`start`.

    Two construction styles: the classic ``(config, points, ...)``
    surface builds a private :class:`ServerCore`; ``core=`` serves a
    prebuilt (warmed, store-backed or shared) core instead and must not
    be combined with config/points.  ``on_session`` is called with each
    finished session's :class:`SessionStats`.
    """

    def __init__(
        self,
        config: ProtocolConfig | None = None,
        points=None,
        *,
        core: ServerCore | None = None,
        adaptive: AdaptiveConfig | None = None,
        rateless: RatelessConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_sessions: int = 64,
        max_pending: int | None = None,
        retry_after_hint: float = 0.05,
        session_deadline: float | None = DEFAULT_SESSION_DEADLINE,
        resume_capacity: int = 256,
        timeout: float | None = DEFAULT_TIMEOUT,
        stats_history: int = 1024,
        on_session=None,
    ):
        if core is None:
            if config is None or points is None:
                raise ConfigError(
                    "ReconciliationServer needs (config, points) or core="
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
        self.host = host
        self.port = port
        self.max_sessions = max_sessions
        #: Overload watermark: how many validated connections may *wait*
        #: for a session slot before further arrivals are shed with a
        #: typed ``RETRY_LATER`` refusal instead of queueing unboundedly.
        #: ``None`` (the default) disables the watermark — every arrival
        #: queues, the pre-resilience behaviour.
        self.max_pending = max_pending
        #: Base of the retry-after hint shipped in ``RETRY_LATER`` frames;
        #: scaled by how deep the pending queue is when the shed happens.
        self.retry_after_hint = retry_after_hint
        #: Whole-connection budget (handshake to hangup) per session; the
        #: per-read ``timeout`` bounds each frame, this bounds their sum.
        self.session_deadline = session_deadline
        self.timeout = timeout
        #: The most recent ``stats_history`` sessions; a long-running
        #: daemon must not grow per-connection state without bound, so
        #: aggregate counters (see :meth:`summary`) are kept separately.
        self.stats: deque[SessionStats] = deque(maxlen=stats_history)
        self._totals = {
            "sessions": 0, "ok": 0, "failed": 0, "shed": 0, "resumed": 0,
            "bytes_out": 0, "bytes_in": 0,
        }
        self._semaphore = asyncio.Semaphore(max_sessions)
        self._waiting = 0
        self._server: asyncio.base_events.Server | None = None
        self._finished = asyncio.Condition()
        self._handlers: set[asyncio.Task] = set()
        self._on_session = on_session
        #: Bounded LRU of rateless resume entries: token -> watermark of
        #: increments already streamed.  Alice's increments are a
        #: deterministic function of (config, points, index), so resuming
        #: needs no sketch state — only proof the token names a stream
        #: *this* server actually served, and how far it got.
        self.resume_capacity = resume_capacity
        self._resume: OrderedDict[str, _ResumeEntry] = OrderedDict()
        # Tokens must not validate across server incarnations (a restart
        # may change the point set, silently corrupting a resumed peel);
        # mixing the pid keeps two processes' nonces distinct even where
        # time_ns and id() coincide.  Serve-layer code may read the
        # clock, unlike protocol code.
        self._resume_nonce = (
            time.time_ns() ^ id(self) ^ (os.getpid() << 16)
        ) & 0xFFFFFFFF
        self._resume_counter = 0

    # ------------------------------------------------- core pass-throughs

    @property
    def config(self) -> ProtocolConfig:
        return self.core.config

    @property
    def points(self):
        return self.core.points

    @property
    def adaptive(self) -> AdaptiveConfig:
        return self.core.adaptive

    @property
    def rateless(self) -> RatelessConfig:
        return self.core.rateless

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns ``(host, port)``."""
        if self._server is not None:
            raise SessionError("server already started")
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        """Where the server listens (valid after :meth:`start`)."""
        return self.host, self.port

    async def close(self) -> None:
        """Stop accepting and drain in-flight sessions.

        Handler tasks are awaited explicitly: ``Server.wait_closed()``
        does not cover per-connection handlers before Python 3.12.1.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        pending = [task for task in self._handlers if not task.done()]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    async def __aenter__(self) -> "ReconciliationServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def serve_forever(self) -> None:
        """Block serving until cancelled."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def wait_for_sessions(self, count: int) -> None:
        """Block until ``count`` sessions (ok or failed) have finished."""
        async with self._finished:
            await self._finished.wait_for(
                lambda: self._totals["sessions"] >= count
            )

    def summary(self) -> dict:
        """Aggregate stats over the server's whole lifetime: sessions
        served, failures, bytes shipped (running totals — unaffected by
        the bounded :attr:`stats` history)."""
        return dict(self._totals)

    # ------------------------------------------------------------- serving

    def digest(self, variant: str) -> str:
        """The config digest this server expects for ``variant``."""
        return self.core.digest(variant)

    def _session_for(self, variant: str, start_index: int = 0) -> Session:
        """Build this connection's Alice session over the shared core.

        Heavy per-variant state is computed once per core and shared
        across connections: the
        reconciler and, for the one-way variants, the encoded opening
        payload, so a session costs near-O(1) server CPU instead of
        re-encoding the whole point set per connection.  See
        :meth:`ServerCore.session_for`.
        """
        return self.core.session_for(variant, start_index=start_index)

    # ------------------------------------------------------------ resilience

    def _issue_resume_token(self, digest: str) -> str:
        """Mint a resume token for a fresh rateless stream and register
        its LRU entry (evicting the oldest stream beyond capacity)."""
        self._resume_counter += 1
        token = handshake.resume_token(self._resume_nonce, self._resume_counter)
        self._resume[token] = _ResumeEntry(
            digest=digest, ingests=self.core.ingests
        )
        while len(self._resume) > self.resume_capacity:
            self._resume.popitem(last=False)
        return token

    def _lookup_resume(
        self, token: str, digest: str, next_index: int
    ) -> _ResumeEntry:
        """Validate one resume request against the LRU; typed rejection.

        Every way a token can be wrong — unparseable, unknown (evicted or
        minted by another server incarnation), config drift, a point set
        grown by an ingest since the stream began, or an index beyond
        what was actually streamed — is a
        :class:`~repro.errors.StaleResumeTokenError`, which the client
        answers by dropping its resume state and restarting from scratch.
        """
        try:
            handshake.parse_resume_token(token)
        except ReproError as exc:
            raise StaleResumeTokenError(
                f"unparseable resume token: {exc}"
            ) from exc
        entry = self._resume.get(token)
        if entry is None:
            raise StaleResumeTokenError(
                "unknown or expired resume token (evicted from the resume "
                "window, or issued by a previous server process)"
            )
        if entry.digest != digest:
            raise StaleResumeTokenError(
                "resume token was issued under a different config digest"
            )
        if entry.ingests != self.core.ingests:
            raise StaleResumeTokenError(
                "resume token predates an ingest: the stream encoded a "
                "point set this server no longer holds"
            )
        if not 1 <= next_index <= entry.sent:
            raise StaleResumeTokenError(
                f"cannot resume at increment {next_index}: this stream "
                f"served {entry.sent} increment(s)"
            )
        self._resume.move_to_end(token)
        return entry

    async def _acquire_slot(self) -> bool:
        """Take one session slot, or refuse: ``False`` means shed.

        A free slot is taken immediately.  A full server admits up to
        ``max_pending`` validated waiters (bounded by the per-read
        timeout — a waiter's client is itself waiting for the welcome
        frame on a timeout, so queueing longer only serves dead peers);
        beyond the watermark, arrivals are shed instead of queued.
        """
        if not self._semaphore.locked():
            await self._semaphore.acquire()
            return True
        if self.max_pending is not None and self._waiting >= self.max_pending:
            return False
        self._waiting += 1
        try:
            if self.timeout is None or self.max_pending is None:
                # No watermark: queue unboundedly, the pre-resilience
                # discipline (the client's own timeout bounds the wait).
                await self._semaphore.acquire()
            else:
                await asyncio.wait_for(self._semaphore.acquire(), self.timeout)
        except asyncio.TimeoutError:
            return False
        finally:
            self._waiting -= 1
        return True

    async def _pump_with_deadline(
        self, session: Session, reader, writer, recorder
    ) -> None:
        """Run the session pump under the per-connection deadline budget."""
        pump = pump_stream(
            session, reader, writer, channel=recorder, timeout=self.timeout
        )
        if self.session_deadline is None:
            await pump
            return
        try:
            await asyncio.wait_for(pump, self.session_deadline)
        except asyncio.TimeoutError as exc:
            raise SessionError(
                f"session exceeded the {self.session_deadline:g}s "
                "per-connection deadline budget"
            ) from exc

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        peername = writer.get_extra_info("peername")
        stats = SessionStats(peer=str(peername))
        started = time.perf_counter()
        record = True
        try:
            record = await self._run_session(reader, writer, stats)
        except ReproError as exc:
            stats.error = f"{type(exc).__name__}: {exc}"
        except (ConnectionError, asyncio.IncompleteReadError) as exc:
            stats.error = f"connection lost: {exc}"
        except Exception as exc:  # noqa: BLE001 — attribute every failure
            stats.error = f"unexpected {type(exc).__name__}: {exc}"
        finally:
            stats.duration_s = time.perf_counter() - started
            await close_writer(writer)
            if record:
                totals, counted = self._totals, stats.record()
                async with self._finished:
                    self.stats.append(stats)
                    totals["sessions"] += 1
                    if stats.shed:
                        totals["shed"] += 1
                    elif stats.resumed_from is not None:
                        totals["resumed"] += 1
                    if stats.ok:
                        totals["ok"] += 1
                        totals["bytes_out"] += counted["bytes_out"]
                        totals["bytes_in"] += counted["bytes_in"]
                    else:
                        totals["failed"] += 1
                    self._finished.notify_all()
                if self._on_session is not None:
                    self._on_session(stats)

    async def _run_session(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        stats: SessionStats,
    ) -> bool:
        """Serve one connection; returns False for silent health probes.

        A connection that closes cleanly before sending any handshake
        byte (a port scan, a load-balancer health check, a readiness
        probe) is not a session: it is ignored and not recorded.

        The concurrency semaphore is acquired only *after* a valid
        handshake, so idle or malformed connections cannot occupy
        session slots; the welcome frame doubles as the "slot granted"
        signal to the client.
        """
        hello = await read_frame(reader, timeout=self.timeout, allow_eof=True)
        if hello is None:
            return False
        resume_entry = None
        start_index = 0
        token: str | None = None
        try:
            variant, digest, _, resume_req = handshake.parse_hello_record(hello)
            stats.variant = variant
            if variant not in VARIANTS:
                raise SessionError(
                    f"unknown protocol variant {variant!r}; "
                    f"this server speaks {', '.join(VARIANTS)}"
                )
            expected = self.digest(variant)
            if digest != expected:
                raise SessionError(
                    f"config digest mismatch for variant {variant!r}: "
                    f"peer has {digest}, server has {expected} — the "
                    "public-coin ProtocolConfig must be identical"
                )
            if resume_req is not None:
                if variant != "rateless":
                    raise SessionError(
                        "resume is only supported for the rateless variant, "
                        f"not {variant!r}"
                    )
                token, start_index = resume_req
                resume_entry = self._lookup_resume(token, digest, start_index)
                stats.resumed_from = start_index
        except ReproError as exc:
            # Refuse loudly (typed error on the client) before closing.  A
            # peer that already vanished must not mask the typed refusal
            # with its connection error.
            code = (
                handshake.STALE_RESUME_CODE
                if isinstance(exc, StaleResumeTokenError) else None
            )
            try:
                await write_frame(
                    writer, handshake.error_bytes(str(exc), code=code),
                    timeout=self.timeout,
                )
            except (ConnectionError, OSError, SessionError):
                pass
            raise
        if not await self._acquire_slot():
            # Overload shedding: a typed RETRY_LATER refusal with a hint
            # proportional to the backlog, instead of unbounded queueing.
            retry_after = self.retry_after_hint * (1 + self._waiting)
            stats.shed = True
            try:
                await write_frame(
                    writer, handshake.retry_later_bytes(retry_after),
                    timeout=self.timeout,
                )
            except (ConnectionError, OSError, SessionError):
                pass
            raise ServerOverloadedError(
                f"shed: {self.max_sessions} session(s) active and "
                f"{self._waiting} pending (watermark {self.max_pending}); "
                f"asked the client to retry after {retry_after:g}s",
                retry_after=retry_after,
            )
        try:
            if variant == "rateless" and token is None:
                token = self._issue_resume_token(expected)
                resume_entry = self._resume[token]
            await write_frame(
                writer,
                handshake.welcome_bytes(
                    variant, expected, token=token,
                    resume_from=stats.resumed_from,
                    recovered=self.core.recovery_summary(),
                ),
                timeout=self.timeout,
            )
            recorder = SimulatedChannel()
            session = self._session_for(variant, start_index=start_index)
            try:
                await self._pump_with_deadline(
                    session, reader, writer, recorder
                )
            finally:
                if resume_entry is not None:
                    # Even a failed pump advances the watermark: whatever
                    # was written may already sit in the client's peel.
                    resume_entry.sent = max(
                        resume_entry.sent,
                        getattr(session, "sent_increments", 0),
                    )
        finally:
            self._semaphore.release()
        stats.ok = True
        stats.transcript = Transcript.from_channel(recorder)
        return True


# --------------------------------------------------------------------- client


async def sync(
    host: str,
    port: int,
    config: ProtocolConfig,
    points,
    *,
    variant: str = "one-round",
    adaptive: AdaptiveConfig | None = None,
    rateless: RatelessConfig | None = None,
    strategy: str = "occurrence",
    channel: SimulatedChannel | None = None,
    timeout: float | None = DEFAULT_TIMEOUT,
    reconciler=None,
    resume: RatelessResumeState | None = None,
):
    """Sync this process's points (as Bob) against a server (Alice).

    Returns the variant's result object (a
    :class:`~repro.core.protocol.ReconcileResult`) with a measured
    transcript attached.  Handshake refusals, disconnects, and timeouts raise
    :class:`~repro.errors.SessionError`; an overloaded server raises
    :class:`~repro.errors.ServerOverloadedError` carrying its
    retry-after hint.

    ``reconciler`` lets a caller syncing repeatedly with one config reuse
    the variant's engine (grid construction) across calls instead of
    rebuilding it per sync; it must match ``config`` and ``variant``.

    ``resume`` (rateless only) carries Bob's peel state across calls: a
    sync that dies mid-stream leaves the increments it already fed in
    ``resume``, and the next call with the same object reconnects with a
    resume request so the server streams only the remaining increments.
    :func:`repro.serve.resilience.resilient_sync` manages this loop.
    """
    if variant not in VARIANTS:
        raise SessionError(
            f"unknown protocol variant {variant!r}; expected one of {VARIANTS}"
        )
    if resume is not None and variant != "rateless":
        raise SessionError(
            f"resume state is only supported for the rateless variant, "
            f"not {variant!r}"
        )
    recorder = channel if channel is not None else SimulatedChannel()
    first_message = len(recorder.messages)
    adaptive = adaptive or AdaptiveConfig()
    rateless = rateless or RatelessConfig()
    digest = handshake.config_digest(config, variant, adaptive, rateless)
    try:
        if timeout is None:
            reader, writer = await asyncio.open_connection(host, port)
        else:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout
            )
    except asyncio.TimeoutError as exc:
        raise SessionError(
            f"timed out after {timeout:g}s connecting to {host}:{port}"
        ) from exc
    except OSError as exc:
        raise SessionError(f"cannot reach {host}:{port}: {exc}") from exc
    try:
        resume_req = None
        if resume is not None and resume.in_progress:
            resume_req = (resume.token, resume.next_index)
        await write_frame(
            writer,
            handshake.hello_bytes(variant, digest, resume=resume_req),
            timeout=timeout,
        )
        welcome = await read_frame(reader, timeout=timeout)
        record = handshake.parse_welcome(welcome)
        resumed_from = record.get("resume_from")
        recovered = record.get("recovered")
        if resume is not None and isinstance(record.get("token"), str):
            resume.token = record["token"]
        kwargs = {"strategy": strategy}
        if variant == "adaptive":
            kwargs["adaptive"] = adaptive
        if variant == "rateless":
            kwargs["rateless"] = rateless
            if resume is not None:
                kwargs["resume"] = resume
        if reconciler is not None:
            kwargs["reconciler"] = reconciler
        session = make_session(variant, "bob", config, points, **kwargs)
        result = await pump_stream(
            session, reader, writer, channel=recorder, timeout=timeout
        )
    except ConnectionError as exc:
        raise SessionError(
            f"connection to {host}:{port} lost mid-session: {exc}"
        ) from exc
    finally:
        await close_writer(writer)
    result.transcript = Transcript.from_messages(
        recorder.messages[first_message:]
    )
    #: ``resumed_from`` is the increment index a resumed rateless stream
    #: continued at; ``recovered`` is the store-backed server's recovery
    #: summary.  Both are diagnostic only and None unless the server
    #: stamped them.
    result.resumed_from = resumed_from
    result.recovered = recovered
    return result


def sync_blocking(*args, **kwargs):
    """:func:`sync` for synchronous callers (the CLI): runs its own loop."""
    return asyncio.run(sync(*args, **kwargs))
