"""Sans-I/O sessions for the two-round adaptive protocol.

Bob opens (the strided estimator request), Alice answers (the sized IBLT
window), Bob finishes.  As with the other variants, every byte is produced
by the existing :class:`~repro.core.adaptive.AdaptiveReconciler`, so
transcripts are identical to the pre-session code.
"""

from __future__ import annotations

from repro.core.adaptive import AdaptiveConfig, AdaptiveReconciler
from repro.core.config import ProtocolConfig
from repro.session.base import Done, OutboundMessage, Session, SessionOutput

#: Transcript labels (pre-date the session layer; pinned by golden tests).
REQUEST_LABEL = "adaptive-request"
WINDOW_LABEL = "adaptive-window"


class AdaptiveAliceSession(Session):
    """Alice's side: wait for the request, answer with the window, done."""

    variant = "adaptive"
    role = "alice"
    inbound_labels = (REQUEST_LABEL,)

    def __init__(
        self,
        config: ProtocolConfig,
        points,
        adaptive: AdaptiveConfig | None = None,
        reconciler: AdaptiveReconciler | None = None,
    ):
        super().__init__()
        self.config = config
        self._points = points
        self._reconciler = reconciler or AdaptiveReconciler(config, adaptive)

    def _feed(self, payload: bytes) -> SessionOutput:
        response = self._reconciler.alice_respond(payload, self._points)
        return Done(messages=(OutboundMessage(response, WINDOW_LABEL),))


class AdaptiveBobSession(Session):
    """Bob's side: open with the request, finish on the window."""

    variant = "adaptive"
    role = "bob"
    inbound_labels = (WINDOW_LABEL,)

    def __init__(
        self,
        config: ProtocolConfig,
        points,
        adaptive: AdaptiveConfig | None = None,
        strategy: str = "occurrence",
        reconciler: AdaptiveReconciler | None = None,
    ):
        super().__init__()
        self.config = config
        self._points = points
        self._strategy = strategy
        self._reconciler = reconciler or AdaptiveReconciler(config, adaptive)

    def _start(self) -> SessionOutput:
        request = self._reconciler.bob_request(self._points)
        return [OutboundMessage(request, REQUEST_LABEL)]

    def _feed(self, payload: bytes) -> SessionOutput:
        result = self._reconciler.bob_finish(payload, self._points, self._strategy)
        return Done(result=result)
