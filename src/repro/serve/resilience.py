"""Client-side resilience: typed retry classification, seeded backoff,
and rateless resumption.

The serve layer's errors are already typed; this module adds the policy
that turns types into behaviour.  Three verdicts partition every failure
a sync can surface:

* :data:`RETRY` — transient transport trouble (timeout, disconnect,
  mangled frame, overloaded server).  Retrying the same request is
  expected to succeed; for the rateless variant the retry *resumes*,
  paying only for the increments not yet fed.
* :data:`RESET` — the server rejected our resume token as stale.  The
  cure is dropping the client-side resume state and retrying from
  scratch; the token was the problem, not the transport.
* :data:`FATAL` — deterministic failures (config-digest mismatch,
  refused handshake, decode impossibility).  The same request fails the
  same way forever; a retry policy must surface these immediately
  instead of burning attempts on them.

Backoff is exponential with multiplicative seeded jitter
(``random.Random(seed)`` — deterministic given the seed, as every knob
in this repository must be) and honours the server's ``retry_after``
hint as a floor: a shedding server names the earliest useful retry time,
and backing off *less* than that only re-joins the stampede.

:func:`resilient_sync` composes the pieces around
:func:`repro.serve.service.sync`: one
:class:`~repro.session.rateless.RatelessResumeState` threads through all
attempts, so every increment that survived a dead connection keeps its
value — total bytes over the whole retry sequence stay proportional to
the *remaining* difference, the rateless promise extended across
failures.

A server process that dies mid-session surfaces as a :data:`RETRY`
(connection lost); a resume token minted by that dead incarnation is
answered by its successor with
:class:`~repro.errors.StaleResumeTokenError` → a :data:`RESET` that
restarts the stream from scratch, trading the saved bytes for
correctness.
"""

from __future__ import annotations

import asyncio
import random
import time

from repro.core.adaptive import AdaptiveConfig
from repro.core.config import ProtocolConfig
from repro.core.rateless import RatelessConfig
from repro.errors import (
    ChannelError,
    ConfigError,
    ReproError,
    RetryExhaustedError,
    SerializationError,
    ServerOverloadedError,
    SessionError,
    StaleResumeTokenError,
    SyncRefusedError,
)
from repro.serve.service import sync
from repro.session.rateless import RatelessResumeState

#: Retry verdicts (see module docstring).
RETRY = "retry"
RESET = "reset"
FATAL = "fatal"


def classify(error: BaseException) -> str:
    """Map one failure to its retry verdict.

    Order matters: the recoverable refusals
    (:class:`~repro.errors.StaleResumeTokenError`,
    :class:`~repro.errors.ServerOverloadedError`) subclass
    :class:`~repro.errors.SessionError`, whose other members — timeouts,
    disconnects — are plainly transient.  Everything outside the
    transport layer (decode failures, config errors, unknown exceptions)
    is fatal: retrying a deterministic failure is a hang with extra
    steps.
    """
    if isinstance(error, StaleResumeTokenError):
        return RESET
    if isinstance(error, SyncRefusedError):
        return FATAL
    if isinstance(error, ServerOverloadedError):
        return RETRY
    if isinstance(error, (SessionError, SerializationError, ChannelError)):
        return RETRY
    return FATAL


class RetryPolicy:
    """Exponential backoff with seeded jitter, attempt cap, and deadline.

    ``backoff(attempt)`` grows as ``base_delay * multiplier**attempt``,
    clamped to ``max_delay``, then stretched by a jitter factor drawn
    uniformly from ``[1, 1 + jitter]`` — full determinism given ``seed``
    (two policies with equal seeds produce equal delay sequences), full
    stampede-avoidance given distinct ones.  A server ``retry_after``
    hint acts as a floor on the resulting delay.

    ``attempts`` caps how many times a sync is tried in total;
    ``deadline`` caps the whole retry sequence in seconds (checked
    before each wait, so the policy never starts a sleep it knows will
    overrun the budget).
    """

    def __init__(
        self,
        *,
        attempts: int = 4,
        base_delay: float = 0.05,
        multiplier: float = 2.0,
        max_delay: float = 2.0,
        jitter: float = 0.5,
        deadline: float | None = 30.0,
        seed: int | str = 0,
    ):
        if attempts < 1:
            raise ConfigError(f"attempts must be >= 1, got {attempts}")
        if base_delay < 0 or max_delay < 0:
            raise ConfigError("backoff delays must be >= 0")
        if multiplier < 1.0:
            raise ConfigError(f"multiplier must be >= 1, got {multiplier}")
        if jitter < 0:
            raise ConfigError(f"jitter must be >= 0, got {jitter}")
        if deadline is not None and deadline <= 0:
            raise ConfigError(f"deadline must be positive, got {deadline}")
        self.attempts = attempts
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.max_delay = max_delay
        self.jitter = jitter
        self.deadline = deadline
        self.seed = seed
        self._rng = random.Random(seed)

    def backoff(self, attempt: int, hint: float = 0.0) -> float:
        """Delay before retry number ``attempt + 1`` (attempts are
        0-indexed), floored by a server's ``retry_after`` ``hint``."""
        delay = min(self.max_delay, self.base_delay * self.multiplier**attempt)
        delay *= 1.0 + self.jitter * self._rng.random()
        return max(delay, hint)


async def resilient_sync(
    host: str,
    port: int,
    config: ProtocolConfig,
    points,
    *,
    variant: str = "one-round",
    adaptive: AdaptiveConfig | None = None,
    rateless: RatelessConfig | None = None,
    policy: RetryPolicy | None = None,
    resume: RatelessResumeState | None = None,
    sleep=None,
    **kwargs,
):
    """:func:`~repro.serve.service.sync` wrapped in the retry policy.

    Transient failures back off and retry (rateless syncs resume rather
    than restart); stale resume tokens reset the resume state and retry;
    fatal failures propagate untouched.  When attempts or the deadline
    run out, raises :class:`~repro.errors.RetryExhaustedError` with the
    per-attempt history in ``attempts`` and the last failure as its
    ``__cause__``.

    ``resume`` may be supplied to observe or pre-seed the rateless
    resume state; by default one is created internally for the rateless
    variant.  ``sleep`` is the awaitable used to wait out backoff
    (default :func:`asyncio.sleep`) — injectable so tests can run a full
    retry ladder in zero wall-clock time.
    """
    policy = policy or RetryPolicy()
    do_sleep = asyncio.sleep if sleep is None else sleep
    if resume is None and variant == "rateless":
        resume = RatelessResumeState()
    history: list[tuple[int, str, str]] = []
    started = time.monotonic()
    for attempt in range(policy.attempts):
        try:
            return await sync(
                host, port, config, points,
                variant=variant, adaptive=adaptive, rateless=rateless,
                resume=resume, **kwargs,
            )
        except ReproError as exc:
            verdict = classify(exc)
            history.append((attempt, type(exc).__name__, verdict))
            if verdict == FATAL:
                raise
            if verdict == RESET and resume is not None:
                resume.reset()
            if attempt + 1 >= policy.attempts:
                raise RetryExhaustedError(
                    f"sync failed after {policy.attempts} attempt(s); "
                    f"last error: {type(exc).__name__}: {exc}",
                    attempts=history,
                ) from exc
            delay = policy.backoff(
                attempt, hint=getattr(exc, "retry_after", 0.0)
            )
            if policy.deadline is not None:
                elapsed = time.monotonic() - started
                if elapsed + delay > policy.deadline:
                    raise RetryExhaustedError(
                        f"sync abandoned after {elapsed:.3f}s of a "
                        f"{policy.deadline:g}s deadline budget (next backoff "
                        f"{delay:.3f}s would overrun it); last error: "
                        f"{type(exc).__name__}: {exc}",
                        attempts=history,
                    ) from exc
            await do_sleep(delay)
    # repro-lint: waive[RPL003] reason=unreachable loop-invariant guard; the
    # final iteration above either returns or raises RetryExhaustedError
    raise AssertionError("unreachable: the retry loop always returns or raises")
