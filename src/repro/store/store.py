""":class:`DurableSketchStore` — the crash-safe sketch façade.

Ties the pieces together around one invariant: **WAL before ack**.  A
batch update plans the whole batch against the live sketch (each
point's rank counts the live cell plus the batch's earlier points;
every level validated, nothing mutated), frames the per-level key
groups into a single CRC'd record, appends and fsyncs it, and only
then applies each group in memory as one signed IBLT batch and
returns.  A batch the caller saw acknowledged therefore survives any
crash; a batch interrupted mid-append is wholly in or wholly out (the
record CRC decides), never half-applied.

Recovery (:meth:`DurableSketchStore.open` on a non-empty directory):

1. load the newest published snapshot (CRC + config digest checked) —
   or start from an empty sketch when none exists;
2. scan the WAL, stop at the first record that fails to frame or
   checksum, truncate that torn tail durably (a clean record of another
   layout version is refused typed instead — it is acknowledged data);
3. replay, in log order, every record whose generation matches the
   snapshot's — through the same group-wise apply a live batch uses;
   older generations are already folded into the snapshot and are
   skipped.

The result is bit-identical — :meth:`DurableSketchStore.one_round_encode`
and all — to a fresh sketch
of the acknowledged points, which the differential crash matrix
(``tests/test_store_recovery.py``) proves at every kill point, and a
second recovery of a recovered store is a fixpoint.

Snapshots (:meth:`DurableSketchStore.snapshot`, auto-triggered by WAL
growth) write the full columnar state to a temp file, fsync, publish it
atomically, then rotate in a fresh WAL and bump the generation — each
step individually crash-safe because replay keys off the published
snapshot's generation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.config import ProtocolConfig
from repro.core.incremental import IncrementalSketch
from repro.errors import ConfigError, StoreCorruptError
from repro.serve.handshake import config_digest
from repro.store import snapshot as snapshot_codec
from repro.store import wal as wal_codec
from repro.store.storage import OsStorage

#: Flat file names inside a store directory.
SNAPSHOT_NAME = "snapshot.bin"
WAL_NAME = "wal.log"
_TMP_SUFFIX = "~tmp"

#: Default WAL size that triggers an automatic snapshot on the next
#: batch.  Crossing it trades one snapshot write for a shorter replay —
#: BENCH_10 measures the actual crossover on this hardware.
DEFAULT_SNAPSHOT_BYTES = 8 * 1024 * 1024


@dataclass(frozen=True)
class RecoveryInfo:
    """What :meth:`DurableSketchStore.open` found and did.

    Attributes
    ----------
    source:
        ``"fresh"`` (empty directory), ``"snapshot"``, ``"wal"`` or
        ``"snapshot+wal"`` — where the recovered state came from.
    generation:
        Snapshot epoch the store resumed at.
    replayed_records / replayed_deltas:
        WAL records (and key deltas inside them) applied on top of the
        snapshot.
    truncated_bytes:
        Torn-tail bytes discarded at the first bad CRC (0 on a clean
        shutdown).
    n_points:
        Point count of the recovered sketch.
    """

    source: str
    generation: int
    replayed_records: int
    replayed_deltas: int
    truncated_bytes: int
    n_points: int


class DurableSketchStore:
    """A :class:`~repro.core.incremental.IncrementalSketch` whose
    updates survive ``kill -9``.

    Build via :meth:`open`; mutate via :meth:`insert_batch` /
    :meth:`remove_batch` / :meth:`bulk_load`; read via :attr:`sketch`
    (treat as read-only) and :meth:`one_round_encode`.
    """

    def __init__(
        self,
        config: ProtocolConfig,
        storage,
        sketch: IncrementalSketch,
        generation: int,
        recovery: RecoveryInfo,
        *,
        snapshot_every_bytes: int = DEFAULT_SNAPSHOT_BYTES,
    ):
        self.config = config
        self.storage = storage
        self.sketch = sketch
        self.generation = generation
        self.recovery = recovery
        self.snapshot_every_bytes = snapshot_every_bytes
        self._digest = config_digest(config, "one-round")
        self._wal_bytes = 0

    @classmethod
    def open(
        cls,
        config: ProtocolConfig,
        directory: str | None = None,
        *,
        storage=None,
        snapshot_every_bytes: int = DEFAULT_SNAPSHOT_BYTES,
    ) -> "DurableSketchStore":
        """Open (recovering if needed) the store in ``directory``.

        Pass ``storage`` explicitly to run over a
        :class:`~repro.store.storage.MemStorage` (tests, crash matrix);
        otherwise an :class:`~repro.store.storage.OsStorage` over
        ``directory`` is used.
        """
        if storage is None:
            storage = OsStorage(directory)
        digest = config_digest(config, "one-round")
        snap_bytes = storage.read(SNAPSHOT_NAME)
        if snap_bytes is not None:
            sketch, generation = snapshot_codec.load_snapshot(
                snap_bytes, config, digest
            )
            source = "snapshot"
        else:
            sketch, generation = IncrementalSketch(config), 0
            source = "fresh"
        wal_bytes = storage.read(WAL_NAME)
        records, clean_len = wal_codec.scan_records(wal_bytes or b"")
        truncated = len(wal_bytes or b"") - clean_len
        if truncated:
            storage.truncate(WAL_NAME, clean_len)
        replayed_records = replayed_deltas = 0
        for record_generation, kind, payload in records:
            if record_generation < generation:
                continue
            if record_generation > generation:
                raise StoreCorruptError(
                    f"WAL record at generation {record_generation} outruns "
                    f"the published snapshot (generation {generation})"
                )
            if kind != wal_codec.KIND_DELTAS:
                raise StoreCorruptError(f"unknown WAL record kind {kind}")
            groups = wal_codec.decode_deltas(sketch, payload)
            sketch.apply(groups)
            replayed_records += 1
            replayed_deltas += sum(len(keys) for _, keys, _ in groups)
        if replayed_records:
            source = "wal" if source == "fresh" else "snapshot+wal"
        if wal_bytes is None:
            # First boot: publish an empty WAL so its directory entry is
            # durable before any acked append lands in it.
            storage.write(WAL_NAME + _TMP_SUFFIX, b"")
            storage.fsync(WAL_NAME + _TMP_SUFFIX)
            storage.publish(WAL_NAME + _TMP_SUFFIX, WAL_NAME)
        recovery = RecoveryInfo(
            source=source,
            generation=generation,
            replayed_records=replayed_records,
            replayed_deltas=replayed_deltas,
            truncated_bytes=truncated,
            n_points=sketch.n_points,
        )
        store = cls(
            config, storage, sketch, generation, recovery,
            snapshot_every_bytes=snapshot_every_bytes,
        )
        store._wal_bytes = clean_len
        return store

    def _log_batch(self, points, sign: int) -> int:
        """Plan a batch, WAL it, fsync, apply, maybe snapshot."""
        points = list(points)
        if not points:
            return 0
        groups = self.sketch.plan(points, sign)
        payload = wal_codec.encode_deltas(self.sketch, groups)
        record = wal_codec.encode_record(
            self.generation, wal_codec.KIND_DELTAS, payload
        )
        self.storage.append(WAL_NAME, record)
        self.storage.fsync(WAL_NAME)
        self.sketch.apply(groups)
        self._wal_bytes += len(record)
        if self._wal_bytes >= self.snapshot_every_bytes:
            self.snapshot()
        return len(points)

    def insert_batch(self, points) -> int:
        """Durably insert a batch: one WAL record, fsynced before return.

        Validation (occupancy) runs during planning — a failed batch
        writes nothing and applies nothing.  Returns the batch size.
        """
        return self._log_batch(points, 1)

    def remove_batch(self, points) -> int:
        """Durably remove a batch (same contract as :meth:`insert_batch`;
        a point whose cell the batch empties raises
        ``ReconciliationFailure``)."""
        return self._log_batch(points, -1)

    def insert(self, point) -> None:
        """Durably insert one point (a one-element batch)."""
        self.insert_batch([point])

    def remove(self, point) -> None:
        """Durably remove one point (a one-element batch)."""
        self.remove_batch([point])

    def bulk_load(self, points) -> int:
        """Load an initial point set as one batch, without a WAL record.

        Only valid on an empty store.  Durability comes from the
        snapshot this publishes, not from the WAL — the load is
        acknowledged when it returns; a crash before that recovers an
        empty store.
        """
        points = list(points)
        if self.sketch.n_points or self._wal_bytes:
            raise ConfigError(
                "bulk_load requires an empty store; use insert_batch"
            )
        self.sketch.insert_all(points)
        self.snapshot()
        self.recovery = replace(self.recovery, n_points=self.sketch.n_points)
        return len(points)

    def snapshot(self) -> None:
        """Publish a full snapshot and rotate the WAL (generation bump).

        Crash-safe at every step: the snapshot becomes visible in one
        atomic publish at generation N+1, after which the old WAL's
        generation-N records are dead weight that replay skips; the WAL
        rotation then reclaims them with a second atomic publish.
        """
        payload = snapshot_codec.encode_snapshot(
            self.sketch, self.generation + 1, self._digest
        )
        tmp = SNAPSHOT_NAME + _TMP_SUFFIX
        self.storage.write(tmp, payload)
        self.storage.fsync(tmp)
        self.storage.publish(tmp, SNAPSHOT_NAME)
        wal_tmp = WAL_NAME + _TMP_SUFFIX
        self.storage.write(wal_tmp, b"")
        self.storage.fsync(wal_tmp)
        self.storage.publish(wal_tmp, WAL_NAME)
        self.generation += 1
        self._wal_bytes = 0

    def one_round_encode(self) -> bytes:
        """The live one-round message (bit-identical to a fresh encode)."""
        return self.sketch.encode()
