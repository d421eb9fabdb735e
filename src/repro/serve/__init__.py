"""Networked reconciliation: frames, handshake, asyncio server + client.

This package is the transport side of the sans-I/O split: the session
machines in :mod:`repro.session` own all protocol logic, while everything
here only moves their payload bytes — length-prefixed frames over TCP,
a handshake agreeing on variant + public-coin config digest + version,
a bounded-concurrency server that is Alice for every connection, and an
async client that is Bob.  Simulated, loopback-asyncio, and TCP runs all
ship byte-identical payloads.

The resilience layer (:mod:`repro.serve.resilience`) adds typed
retry-vs-fatal classification, seeded exponential backoff, and rateless
session resumption on top of the plain client; the server sheds load
with typed ``RETRY_LATER`` refusals past its pending watermark and
bounds every connection with a session deadline.  Deterministic fault
injection for all of it lives in :mod:`repro.net.faults`.

One process serves: each session's compute runs inline on the server's
event loop.  In every variant the peel and the repair run at the client
(Bob); Alice sends a cached sketch, public-coin increments or one
estimate and window, so a sync's server CPU is a small fraction of its
client's and the client fleet, not the server, fills the machine's
cores.
"""

from repro.serve.frames import (
    FrameDecoder,
    MAX_FRAME_BYTES,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.serve.handshake import WIRE_VERSION, config_digest
from repro.serve.resilience import (
    FATAL,
    RESET,
    RETRY,
    RetryPolicy,
    classify,
    resilient_sync,
)
from repro.serve.service import (
    DEFAULT_SESSION_DEADLINE,
    DEFAULT_TIMEOUT,
    ReconciliationServer,
    ServerCore,
    SessionStats,
    close_writer,
    pump_stream,
    sync,
    sync_blocking,
)

__all__ = [
    "DEFAULT_SESSION_DEADLINE",
    "DEFAULT_TIMEOUT",
    "FATAL",
    "FrameDecoder",
    "MAX_FRAME_BYTES",
    "RESET",
    "RETRY",
    "ReconciliationServer",
    "RetryPolicy",
    "ServerCore",
    "SessionStats",
    "WIRE_VERSION",
    "classify",
    "close_writer",
    "config_digest",
    "encode_frame",
    "pump_stream",
    "read_frame",
    "resilient_sync",
    "sync",
    "sync_blocking",
    "write_frame",
]
