"""repro — Robust Set Reconciliation (SIGMOD 2014), reproduced in Python.

Two parties hold point multisets in ``[Δ]^d`` that are *almost* equal —
most points are noisy duplicates, a few are genuinely different.  This
library implements the paper's randomly-offset-quadtree + IBLT protocol,
which repairs Bob's set to within ``O(d) · EMD_k`` of Alice's using
``Õ(k)`` communication, together with every substrate it stands on and
the exact-reconciliation baselines it is evaluated against.

Quickstart
----------
>>> from repro import ProtocolConfig, reconcile
>>> config = ProtocolConfig(delta=1024, dimension=2, k=4, seed=42)
>>> alice = [(100, 100), (500, 501), (900, 4)]
>>> bob = [(100, 101), (500, 500), (700, 700)]
>>> result = reconcile(alice, bob, config)
>>> len(result.repaired) == len(bob)
True

Backends
--------
IBLT cell storage is pluggable (:mod:`repro.iblt.backends`): the pure-Python
reference (``"pure"``, always available) and a numpy-vectorized engine
(``"numpy"``, an optional extra: ``pip install repro[numpy]``).  Select one
with ``ProtocolConfig(backend=...)``, per table with ``IBLT(config,
backend=...)``, or on the CLI with ``--backend``; the default ``"auto"``
uses the fastest available engine and falls back to pure.  All backends are
bit-compatible on the wire — the numpy one is ~an order of magnitude faster
on batch work (sketch construction, subtract, decode) for large inputs.
Custom engines register via
:func:`repro.iblt.backends.register_backend`.

Multi-core encode
-----------------
Alice's message is one IBLT per grid level, and the level tables are
independent: with the numpy backend a large encode builds them on a
thread pool ``min(levels, cpu_count)`` wide (see
:func:`repro.core.sketch.build_level_sketches`).  Small inputs and the
pure backend build inline.  The bytes are the same either way.

Serving over a network
----------------------
Every protocol variant — one-round, adaptive, and the rateless
stream (:func:`repro.core.rateless.reconcile_rateless`, whose bytes track
the *true* difference size with no estimation round) — is a sans-I/O
session state machine
(:mod:`repro.session`); the ``reconcile*`` functions are thin drivers
pumping those sessions over a simulated channel.
:mod:`repro.serve` pumps the same sessions over real TCP: an asyncio
server (Alice) with a handshake, bounded session concurrency, and
per-session stats, plus an async client (Bob) — wire bytes identical to
the simulated runs.  CLI: ``python -m repro serve`` / ``repro sync``.

See ``examples/`` for end-to-end scenarios and ``benchmarks/`` for the
reproduced evaluation.
"""

from repro.core.adaptive import AdaptiveConfig, AdaptiveReconciler, reconcile_adaptive
from repro.iblt.backends import available_backends, register_backend
from repro.core.broadcast import BroadcastReport, broadcast_reconcile
from repro.core.config import ProtocolConfig
from repro.core.grid import ShiftedGridHierarchy
from repro.core.incremental import IncrementalSketch
from repro.core.protocol import HierarchicalReconciler, ReconcileResult, reconcile
from repro.core.rateless import RatelessConfig, RatelessReconciler, reconcile_rateless
from repro.emd import emd, emd_1d, emd_k
from repro.errors import (
    BackendUnavailableError,
    CapacityExceeded,
    ChannelError,
    ConfigError,
    DecodeFailure,
    ReconciliationFailure,
    ReproError,
    RetryExhaustedError,
    SerializationError,
    ServerOverloadedError,
    SessionError,
    StaleResumeTokenError,
    StoreCorruptError,
    StoreError,
    SyncRefusedError,
)
from repro.net.channel import Direction, LoopbackChannel, SimulatedChannel
from repro.net.transcript import Transcript

__version__ = "1.1.0"

__all__ = [
    "AdaptiveConfig",
    "AdaptiveReconciler",
    "BackendUnavailableError",
    "BroadcastReport",
    "CapacityExceeded",
    "IncrementalSketch",
    "broadcast_reconcile",
    "ChannelError",
    "ConfigError",
    "DecodeFailure",
    "Direction",
    "HierarchicalReconciler",
    "LoopbackChannel",
    "ProtocolConfig",
    "RatelessConfig",
    "RatelessReconciler",
    "ReconcileResult",
    "ReconciliationFailure",
    "ReproError",
    "RetryExhaustedError",
    "SerializationError",
    "ServerOverloadedError",
    "SessionError",
    "StaleResumeTokenError",
    "StoreCorruptError",
    "StoreError",
    "SyncRefusedError",
    "ShiftedGridHierarchy",
    "SimulatedChannel",
    "Transcript",
    "available_backends",
    "register_backend",
    "emd",
    "emd_1d",
    "emd_k",
    "reconcile",
    "reconcile_adaptive",
    "reconcile_rateless",
    "__version__",
]
