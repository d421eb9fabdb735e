"""Sans-I/O session for the sharded one-round protocol.

Wire-wise the sharded exchange has the one-round shape — Alice speaks one
(shard-framed) message, Bob repairs — so a single class covers both roles.
The :class:`~repro.scale.engine.ShardedReconciler` may be injected to share
its grid; it holds no resources, so there is nothing to release.
"""

from __future__ import annotations

from repro.core.config import ProtocolConfig
from repro.errors import SessionError
from repro.scale.engine import ShardedReconciler
from repro.session.base import Done, OutboundMessage, Session, SessionOutput

#: Transcript label of the shard-framed sketch (pinned by existing tests).
SHARDED_LABEL = "sharded-sketch"


class ShardedSession(Session):
    """Either endpoint of the sharded protocol, selected by ``role``."""

    variant = "sharded"

    def __init__(
        self,
        config: ProtocolConfig,
        points,
        role: str,
        strategy: str = "occurrence",
        reconciler: ShardedReconciler | None = None,
        encoded: bytes | None = None,
    ):
        super().__init__()
        if role not in ("alice", "bob"):
            raise SessionError(f"role must be 'alice' or 'bob', got {role!r}")
        self.config = config
        self.role = role
        self.inbound_labels = () if role == "alice" else (SHARDED_LABEL,)
        self._points = points
        self._strategy = strategy
        self._reconciler = reconciler or ShardedReconciler(config)
        # Optional pre-encoded Alice payload (see OneRoundAliceSession).
        self._encoded = encoded

    def _start(self) -> SessionOutput:
        if self.role != "alice":
            return []
        payload = (
            self._encoded
            if self._encoded is not None
            else self._reconciler.encode(self._points)
        )
        return Done(messages=(OutboundMessage(payload, SHARDED_LABEL),))

    def _feed(self, payload: bytes) -> SessionOutput:
        if self.role == "alice":
            raise SessionError("sharded Alice expects no inbound messages")
        result = self._reconciler.decode_and_repair(
            payload, self._points, self._strategy
        )
        return Done(result=result)
