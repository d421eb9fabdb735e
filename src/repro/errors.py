"""Exception hierarchy shared by every ``repro`` subsystem.

All library errors derive from :class:`ReproError` so callers can catch one
type at protocol boundaries while tests can still assert on the specific
subclass.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigError(ReproError, ValueError):
    """A parameter value is invalid or inconsistent with other parameters."""


class BackendUnavailableError(ReproError):
    """An accelerated code path was requested but its dependency is missing.

    Raised by numpy-only bulk primitives (``TabulationHash.hash_many``,
    ...) when numpy is not importable.
    Callers that gate on availability never see it; callers that forgot to
    gate get a typed error instead of a bare ``RuntimeError``.
    """


class SerializationError(ReproError):
    """A message could not be encoded to, or decoded from, its wire form."""


class DecodeFailure(ReproError):
    """An invertible sketch could not be fully peeled.

    Attributes
    ----------
    recovered:
        Number of entries successfully extracted before the peeler stalled.
    remaining:
        Number of non-empty cells left in the sketch when peeling stopped.
    """

    def __init__(self, message: str, recovered: int = 0, remaining: int = 0):
        super().__init__(message)
        self.recovered = recovered
        self.remaining = remaining


class ReconciliationFailure(ReproError):
    """A reconciliation protocol could not produce a repaired set.

    Raised, for example, when no level of the hierarchical sketch peels, or
    when an exact baseline's difference estimate was exceeded.
    """


class ChannelError(ReproError):
    """Misuse of the simulated channel (e.g. a reply on a closed channel)."""


class SessionError(ReproError):
    """A protocol session was driven outside its state machine's contract.

    Raised by the sans-I/O sessions (:mod:`repro.session`) on out-of-order
    input — feeding before start, feeding a completed session, reading a
    result too early — and by the transports (:mod:`repro.serve`) on
    handshake mismatches, mid-session disconnects, and I/O timeouts.
    """


class SyncRefusedError(SessionError):
    """The server refused this sync during the handshake.

    Raised by the client when the server answers the hello with a typed
    error frame — config-digest mismatch, unknown variant, incompatible
    wire version.  Refusals are *fatal* for retry purposes: the same
    hello will be refused again, so a retry policy must surface them
    instead of burning attempts.
    """


class StaleResumeTokenError(SyncRefusedError):
    """A rateless resume token was unknown, expired, or inconsistent.

    Raised when a client presents a resume token the server no longer
    holds (evicted from the bounded resume LRU, or issued by a previous
    server process), or whose recorded config digest / increment
    watermark does not match the resume request.  Unlike other refusals
    this one is *recoverable by reset*: dropping the client-side resume
    state and syncing again from scratch is expected to succeed.
    """


class ServerOverloadedError(SessionError):
    """The server shed this sync because it is at capacity.

    Carries the server's ``retry_after`` hint (seconds); a retrying
    client must wait at least that long before its next attempt.

    Attributes
    ----------
    retry_after:
        Seconds the server asked the client to back off for.
    """

    def __init__(self, message: str, retry_after: float = 0.0):
        super().__init__(message)
        self.retry_after = retry_after


class RetryExhaustedError(ReproError):
    """A retry policy ran out of attempts (or deadline budget).

    The final underlying failure is chained as ``__cause__``; the
    per-attempt history travels in :attr:`attempts`.

    Attributes
    ----------
    attempts:
        Tuple of ``(attempt_index, error_type_name, verdict)`` records,
        one per failed attempt, in order.
    """

    def __init__(self, message: str, attempts: tuple = ()):
        super().__init__(message)
        self.attempts = tuple(attempts)


class StoreError(ReproError):
    """The durable sketch store (:mod:`repro.store`) could not operate.

    Base for every store-layer failure: unusable directories, I/O errors
    wrapped at the storage seam, corruption.  ``OSError`` never escapes
    the store raw.
    """


class StoreCorruptError(StoreError):
    """The on-disk store state is damaged beyond automatic recovery.

    A torn WAL *tail* is not corruption — recovery truncates it silently.
    This error means the durable prefix itself is unusable: a snapshot
    with a bad CRC or foreign config digest, a WAL whose first record is
    unreadable while a snapshot generation says records must exist, or
    framing from a future/unknown version.
    """


class InjectedCrash(StoreError):
    """A deterministic :class:`~repro.store.crash.CrashPlan` kill point fired.

    Simulates ``kill -9`` at a chosen storage operation: the store's
    in-process state is abandoned mid-flight and tests recover from the
    surviving bytes.  Only ever raised under injection; production
    storage never throws it.
    """


class CapacityExceeded(ReproError):
    """More items were inserted into a sketch than its sizing supports.

    This is advisory — IBLTs may still decode above their nominal capacity —
    but protocols that promised a bound surface the violation explicitly.
    """
