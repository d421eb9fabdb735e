"""Durable reconciliation store: crash-safe sketch persistence.

The serve layer keeps every sketch in RAM; this package makes the
incremental one-round sketch survive ``kill -9``.  The design is the
classic WAL + snapshot pair, specialised to the protocol's xor-merge
cell algebra:

* :mod:`repro.store.wal` — an append-only log of *key deltas* (one
  CRC-framed, generation-tagged record per insert/remove batch, payload
  packed with the shared columnar codec).  A point update logs
  ``O(levels)`` deltas — cells touched, never whole tables.
* :mod:`repro.store.snapshot` — periodic full-state snapshots in the
  columnar cell layout, written to a temp file and published with one
  atomic rename; publishing a snapshot rotates the WAL and bumps the
  generation.
* :mod:`repro.store.store` — :class:`DurableSketchStore`, the façade:
  WAL-before-ack batch updates, recovery that truncates a torn WAL tail
  at the first bad CRC and replays the rest onto the latest snapshot,
  bit-identical to a fresh encode of the acknowledged points.
* :mod:`repro.store.storage` — the single I/O seam (`OsStorage` over a
  directory, `MemStorage` with durable/volatile modelling), the only
  module allowed to touch files (enforced by repro-lint RPL008).
* :mod:`repro.store.crash` — :class:`CrashPlan`, the deterministic
  ``kill -9`` injector (sibling of :class:`~repro.net.faults.FaultPlan`)
  behind the crash/recover/verify matrix.
"""

from repro.store.crash import CrashInjector, CrashPlan
from repro.store.storage import MemStorage, OsStorage
from repro.store.store import DurableSketchStore, RecoveryInfo

__all__ = [
    "CrashInjector",
    "CrashPlan",
    "DurableSketchStore",
    "MemStorage",
    "OsStorage",
    "RecoveryInfo",
]
