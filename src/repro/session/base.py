"""The sans-I/O session contract every protocol variant implements.

A :class:`Session` is one endpoint of one protocol execution with **no
notion of transport**: it is handed the exact payload bytes the peer sent
(``feed``) and answers with the exact payload bytes to transmit
(:class:`OutboundMessage`), or with :class:`Done` when the exchange is
complete.  The same session object therefore runs unchanged over the
in-process :class:`~repro.net.channel.SimulatedChannel`, the asyncio
loopback channel, and real TCP (:mod:`repro.serve`) — and over any future
transport, because retries, framing, and concurrency live outside it.

State machine
-------------
``start()`` is called exactly once and yields the messages this endpoint
speaks unprompted (Alice's sketch in the one-round variants, Bob's
estimator request in the adaptive one; the passive side yields none).
Every peer payload is then passed to ``feed()``, which yields the next
outbound messages.  Both return :class:`Done` — carrying any final
outbound messages plus this endpoint's result — when the session needs no
further input.  Driving a session outside this contract (feeding before
start, feeding after :class:`Done`, reading ``result`` early) raises
:class:`~repro.errors.SessionError` rather than corrupting the exchange.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Union

from repro.errors import SessionError

#: Roles a session may play (who the endpoint is in the paper's exchange).
ROLES = ("alice", "bob")


@dataclass(frozen=True)
class OutboundMessage:
    """One payload this endpoint wants transmitted to its peer.

    Attributes
    ----------
    payload:
        The exact bytes to ship (what the peer's ``feed`` must receive).
    label:
        Human-readable transcript tag (e.g. ``"hierarchy-sketch"``);
        never transmitted, so it cannot affect wire compatibility.
    """

    payload: bytes
    label: str = ""


@dataclass(frozen=True)
class Done:
    """Terminal output of a session: final messages plus the result.

    Attributes
    ----------
    messages:
        Outbound messages to transmit before hanging up (may be empty).
    result:
        The endpoint's outcome — a
        :class:`~repro.core.protocol.ReconcileResult` on Bob's side,
        ``None`` on Alice's (she learns nothing in these one-way repairs).
    """

    messages: tuple[OutboundMessage, ...] = ()
    result: object = None


#: What ``start``/``feed`` hand back: more messages (input still expected)
#: or the terminal :class:`Done`.
SessionOutput = Union[list[OutboundMessage], Done]


class Session(abc.ABC):
    """One endpoint of one protocol execution, free of any I/O.

    Subclasses set the class attributes and implement ``_start`` /
    ``_feed``; the base class enforces the state machine (single start,
    no input after :class:`Done`) so every implementation fails the same
    way on misuse.
    """

    #: Protocol variant name, shared with the serve-layer handshake.
    variant: str = ""
    #: ``"alice"`` or ``"bob"``.
    role: str = ""
    #: Transcript labels of the messages this endpoint *receives*, in
    #: order.  Lets transports record inbound payloads under the same
    #: labels a simulated run uses, keeping transcripts comparable.
    inbound_labels: tuple[str, ...] = ()

    def __init__(self) -> None:
        self._started = False
        self._done = False
        self._result: object = None
        self._fed = 0

    # ------------------------------------------------------------- contract

    @property
    def started(self) -> bool:
        """True once ``start()`` has run."""
        return self._started

    @property
    def done(self) -> bool:
        """True once the session returned :class:`Done`."""
        return self._done

    @property
    def result(self) -> object:
        """The endpoint's outcome; only readable once :attr:`done`."""
        if not self._done:
            raise SessionError(
                f"{type(self).__name__} is not finished; no result yet"
            )
        return self._result

    def start(self) -> SessionOutput:
        """Begin the session; returns the messages spoken unprompted."""
        if self._started:
            raise SessionError(f"{type(self).__name__} already started")
        self._started = True
        return self._absorb(self._start())

    def feed(self, payload: bytes) -> SessionOutput:
        """Hand this endpoint one payload from its peer."""
        if not self._started:
            raise SessionError(
                f"{type(self).__name__}.feed() before start()"
            )
        if self._done:
            raise SessionError(
                f"{type(self).__name__} is complete; unexpected extra "
                f"message ({len(payload)} bytes) — duplicated or stray frame?"
            )
        if not isinstance(payload, (bytes, bytearray, memoryview)):
            # memoryview included: zero-copy framing hands transports
            # buffer slices; bytes(payload) below copies them out before
            # the underlying buffer can be recycled.
            raise SessionError(
                f"session payloads must be bytes, got {type(payload).__name__}"
            )
        output = self._feed(bytes(payload))
        # Count the message only after _feed succeeds: inbound_label()
        # must keep labelling the in-flight message while it is being
        # processed (and a failed feed leaves the position unchanged).
        self._fed += 1
        return self._absorb(output)

    def inbound_label(self, index: int | None = None) -> str:
        """Transcript label for the ``index``-th received message.

        With no ``index``, labels the message currently being fed — or,
        between messages, the next one this endpoint expects.  Transports
        may therefore call it either immediately before or during
        ``feed()`` and record the same label.
        """
        index = self._fed if index is None else index
        if index < len(self.inbound_labels):
            return self.inbound_labels[index]
        return "message"

    # ---------------------------------------------------------- subclasses

    def _start(self) -> SessionOutput:
        """Messages this endpoint speaks before any input (default: none)."""
        return []

    @abc.abstractmethod
    def _feed(self, payload: bytes) -> SessionOutput:
        """Consume one peer payload; return the next output."""

    # ------------------------------------------------------------ internals

    def _absorb(self, out: SessionOutput) -> SessionOutput:
        if isinstance(out, Done):
            self._done = True
            self._result = out.result
        return out
