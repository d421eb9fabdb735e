"""Sans-I/O protocol session machines (the transport-independent layer).

Every protocol variant — one-round, adaptive, rateless — is
expressed as a
pair of :class:`~repro.session.base.Session` state machines that consume
and produce exact payload bytes with no transport attached.  The public
``reconcile*`` functions pump these sessions over the in-process
:class:`~repro.net.channel.SimulatedChannel`; :mod:`repro.serve` pumps
the *same objects* over asyncio loopback and TCP.  Anything that wants a
new transport (QUIC, gossip, retrying streams) builds on this seam.
"""

from repro.session.adaptive import AdaptiveAliceSession, AdaptiveBobSession
from repro.session.base import Done, OutboundMessage, Session
from repro.session.driver import pump, run_async
from repro.session.one_round import OneRoundAliceSession, OneRoundBobSession
from repro.session.rateless import (
    RatelessAliceSession,
    RatelessBobSession,
    RatelessResumeState,
)

#: Variant names accepted by the session factories and the serve handshake.
VARIANTS = ("one-round", "adaptive", "rateless")


def make_session(variant: str, role: str, config, points, **kwargs) -> Session:
    """Build the session for one endpoint of one variant.

    ``kwargs`` are forwarded to the variant's constructor (``strategy``,
    ``adaptive``, ``rateless``, ``reconciler``, and for the rateless
    variant ``start_index`` on Alice / ``resume`` on Bob).  Unknown
    variants raise
    :class:`~repro.errors.SessionError` so a bad handshake fails typed.
    """
    from repro.errors import SessionError

    if variant == "one-round":
        cls = OneRoundAliceSession if role == "alice" else OneRoundBobSession
        if role == "alice":
            kwargs.pop("strategy", None)
        return cls(config, points, **kwargs)
    if variant == "adaptive":
        cls = AdaptiveAliceSession if role == "alice" else AdaptiveBobSession
        if role == "alice":
            kwargs.pop("strategy", None)
        return cls(config, points, **kwargs)
    if variant == "rateless":
        cls = RatelessAliceSession if role == "alice" else RatelessBobSession
        if role == "alice":
            kwargs.pop("strategy", None)
        return cls(config, points, **kwargs)
    raise SessionError(
        f"unknown protocol variant {variant!r}; expected one of {VARIANTS}"
    )


__all__ = [
    "AdaptiveAliceSession",
    "AdaptiveBobSession",
    "Done",
    "OneRoundAliceSession",
    "OneRoundBobSession",
    "OutboundMessage",
    "RatelessAliceSession",
    "RatelessBobSession",
    "RatelessResumeState",
    "Session",
    "VARIANTS",
    "make_session",
    "pump",
    "run_async",
]
