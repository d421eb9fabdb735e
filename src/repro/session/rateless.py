"""Sans-I/O sessions for the rateless streaming protocol.

A strict ping-pong: Alice opens with increment 0 and sends increment
``j+1`` for every CONTINUE ack; Bob feeds each increment into a resumable
:class:`~repro.iblt.decode.PeelState` and answers STOP the moment the
union of received segments peels to empty (or CONTINUE otherwise).  Both
sides enforce the shared ``max_increments`` cap with a typed
:class:`~repro.errors.ReconciliationFailure`, so an over-large difference
terminates loudly instead of streaming forever.  All protocol logic stays
in :class:`~repro.core.rateless.RatelessReconciler`; these classes only
adapt it to the :class:`~repro.session.base.Session` contract.
"""

from __future__ import annotations

from repro.core.config import ProtocolConfig
from repro.core.rateless import (
    RatelessConfig,
    RatelessReconciler,
    ack_bytes,
    parse_ack,
)
from repro.errors import ReconciliationFailure
from repro.iblt.decode import PeelState
from repro.session.base import Done, OutboundMessage, Session, SessionOutput

#: Transcript labels — every Alice message is a cell increment, every Bob
#: message an ack, so both repeat for the life of the session.
CELLS_LABEL = "rateless-cells"
ACK_LABEL = "rateless-ack"


class RatelessResumeState:
    """Client-held survivor of an interrupted rateless sync.

    The rateless stream is the one protocol where a broken connection
    does not have to forfeit the transferred bytes: every increment Bob
    already fed lives on in his resumable
    :class:`~repro.iblt.decode.PeelState`.  This object carries exactly
    that across connection attempts — the peel state, the index of the
    next increment Bob expects, and the server-issued resume token — so
    a retrying client (:func:`repro.serve.resilience.resilient_sync`)
    can reconnect and receive only the *remaining* increments.

    Purely data, no I/O: the session mutates it as increments are fed;
    the transport reads :attr:`token` / :attr:`next_index` to build the
    resume request and stores the token the server hands back.
    """

    def __init__(self) -> None:
        self.token: str | None = None
        self.peel: PeelState | None = None
        self.next_index: int = 0
        self.completed: bool = False

    @property
    def in_progress(self) -> bool:
        """True when there is transferred work worth resuming."""
        return (
            not self.completed
            and self.token is not None
            and self.peel is not None
            and self.next_index > 0
        )

    def reset(self) -> None:
        """Drop all resume state (e.g. after a stale-token refusal)."""
        self.token = None
        self.peel = None
        self.next_index = 0
        self.completed = False


class RatelessAliceSession(Session):
    """Alice's side: stream increments until Bob says STOP.

    ``start_index`` makes the session open with increment ``k`` instead
    of 0 — the server's resume path: her increments are a deterministic
    function of (config, points, index), so continuing a broken stream
    needs no per-connection sketch state, only the index to speak next.
    """

    variant = "rateless"
    role = "alice"

    def __init__(
        self,
        config: ProtocolConfig,
        points,
        rateless: RatelessConfig | None = None,
        reconciler: RatelessReconciler | None = None,
        start_index: int = 0,
    ):
        super().__init__()
        self.config = config
        self._points = points
        self._reconciler = reconciler or RatelessReconciler(config, rateless)
        cap = self._reconciler.rateless.max_increments
        if not 0 <= start_index < cap:
            raise ReconciliationFailure(
                f"cannot resume the rateless stream at increment "
                f"{start_index}; valid indices are 0..{cap - 1}"
            )
        self._sent = start_index

    def _increment(self, index: int) -> bytes:
        return self._reconciler.alice_increment(self._points, index)

    @property
    def sent_increments(self) -> int:
        """Absolute number of increments streamed so far (resume-aware):
        the next increment this session would send."""
        return self._sent

    def inbound_label(self, index: int | None = None) -> str:
        return ACK_LABEL

    def _start(self) -> SessionOutput:
        payload = self._increment(self._sent)
        self._sent += 1
        return [OutboundMessage(payload, CELLS_LABEL)]

    def _feed(self, payload: bytes) -> SessionOutput:
        if parse_ack(payload):
            return Done()
        cap = self._reconciler.rateless.max_increments
        if self._sent >= cap:
            raise ReconciliationFailure(
                f"peer still undecoded after the shared cap of {cap} "
                "rateless increments"
            )
        out = self._increment(self._sent)
        self._sent += 1
        return [OutboundMessage(out, CELLS_LABEL)]


class RatelessBobSession(Session):
    """Bob's side: peel incrementally, stop the instant decode succeeds."""

    variant = "rateless"
    role = "bob"

    def __init__(
        self,
        config: ProtocolConfig,
        points,
        rateless: RatelessConfig | None = None,
        strategy: str = "occurrence",
        reconciler: RatelessReconciler | None = None,
        resume: RatelessResumeState | None = None,
    ):
        super().__init__()
        self.config = config
        self._points = points
        self._strategy = strategy
        self._reconciler = reconciler or RatelessReconciler(config, rateless)
        self._resume = resume
        if resume is not None and resume.in_progress:
            # Continue the interrupted stream: the peel state already
            # holds every segment fed before the connection died.
            self._state = resume.peel
            self._received = resume.next_index
        else:
            self._state = PeelState()
            self._received = 0
            if resume is not None:
                resume.peel = self._state
                resume.next_index = 0
                resume.completed = False
        self._keys = None

    def inbound_label(self, index: int | None = None) -> str:
        return CELLS_LABEL

    def _feed(self, payload: bytes) -> SessionOutput:
        n_alice, alice_segment = self._reconciler.read_increment(
            payload, self._received
        )
        if self._keys is None:
            self._keys = self._reconciler.keys_for(self._points)
        bob_segment = self._reconciler.segment_table(self._keys, self._received)
        self._received += 1
        self._state.extend(alice_segment.subtract(bob_segment))
        if self._resume is not None:
            # Checkpoint only after the segment is fully absorbed: a feed
            # that raised mid-parse must leave the resume point unmoved.
            self._resume.next_index = self._received
        if self._state.failed:
            raise ReconciliationFailure(
                "rateless peel aborted: the stream decoded to an implausibly "
                "large difference (false-peel churn)"
            )
        if self._state.solved:
            peeled = self._state.result()
            balance = len(peeled.alice_keys) - len(peeled.bob_keys)
            if balance != n_alice - len(self._points):
                raise ReconciliationFailure(
                    "rateless decode is unbalanced: recovered "
                    f"{balance:+d} keys but the set sizes differ by "
                    f"{n_alice - len(self._points):+d}"
                )
            result = self._reconciler.bob_repair(
                self._points, peeled.alice_keys, peeled.bob_keys, self._strategy
            )
            if self._resume is not None:
                self._resume.completed = True
            return Done(
                messages=(OutboundMessage(ack_bytes(stop=True), ACK_LABEL),),
                result=result,
            )
        cap = self._reconciler.rateless.max_increments
        if self._received >= cap:
            raise ReconciliationFailure(
                f"rateless decode still incomplete after the cap of {cap} "
                "increments; the difference exceeds the configured stream "
                "budget (raise max_increments or initial_cells)"
            )
        return [OutboundMessage(ack_bytes(stop=False), ACK_LABEL)]
