"""Differential crash matrix for the durable store (PR 10 tentpole).

The contract under test: a :class:`~repro.store.DurableSketchStore`
recovered after a crash at *any* storage operation is bit-identical —
``one_round_encode()`` and all — to a fresh sketch of exactly the
acknowledged batches (or acknowledged + the one batch in flight, wholly in or wholly
out, never half-applied).  The matrix enumerates every kill point of a
canonical scenario (first boot, insert batches, a mid-run snapshot
rotation, a remove batch), sweeps torn and clean variants of the dying
write, and runs the same plans over the POSIX-pessimistic
:class:`~repro.store.MemStorage` and a real directory.  A second
recovery of a recovered store must be a fixpoint.
"""

from __future__ import annotations

import random
import zlib
from collections import Counter
from dataclasses import replace

import pytest

from repro.core.config import ProtocolConfig
from repro.errors import ConfigError, InjectedCrash, StoreCorruptError, StoreError
from repro.iblt.backends import available_backends
from repro.core.incremental import IncrementalSketch
from repro.core.protocol import HierarchicalReconciler
from repro.net.bits import BitReader, BitWriter
from repro.serve.handshake import config_digest
from repro.store import (
    CrashPlan,
    DurableSketchStore,
    MemStorage,
    OsStorage,
)
from repro.store import wal as wal_codec
from repro.store.store import SNAPSHOT_NAME, WAL_NAME
from repro.workloads.synthetic import uniform_points

SEED = 9
DELTA = 2048
CONFIG = ProtocolConfig(delta=DELTA, dimension=2, k=6, seed=7, backend="pure")
BACKENDS = [name for name in ("pure", "numpy") if name in available_backends()]

#: Scenario shape: five insert batches of 20 plus one remove batch that
#: spans two of them; a snapshot rotation after the third batch.
SNAPSHOT_AFTER = 2


def _batches() -> list[tuple[str, list]]:
    rng = random.Random(SEED)
    points = uniform_points(rng, 100, DELTA, 2)
    ops = [("insert", points[i * 20 : (i + 1) * 20]) for i in range(5)]
    ops.append(("remove", points[10:30]))
    return ops


def _config(backend: str) -> ProtocolConfig:
    return replace(CONFIG, backend=backend)


_EXPECTED_CACHE: dict[str, list[bytes]] = {}


def _expected(backend: str) -> list[bytes]:
    """``_expected(b)[k]`` = fresh encode after the first ``k`` batches."""
    if backend not in _EXPECTED_CACHE:
        config = _config(backend)
        multiset: Counter = Counter()

        def fresh() -> bytes:
            sketch = IncrementalSketch(config)
            sketch.insert_all(
                [p for p, count in multiset.items() for _ in range(count)]
            )
            return sketch.encode()

        encodes = [fresh()]
        for kind, batch in _batches():
            for point in batch:
                if kind == "insert":
                    multiset[point] += 1
                else:
                    multiset[point] -= 1
                    if not multiset[point]:
                        del multiset[point]
            encodes.append(fresh())
        _EXPECTED_CACHE[backend] = encodes
    return _EXPECTED_CACHE[backend]


def _run_scenario(config, storage, acked: list[int]) -> DurableSketchStore:
    """Boot + batches + mid-run snapshot; ``acked[0]`` tracks progress."""
    store = DurableSketchStore.open(config, storage=storage)
    for index, (kind, batch) in enumerate(_batches()):
        if kind == "insert":
            store.insert_batch(batch)
        else:
            store.remove_batch(batch)
        acked[0] = index + 1
        if index == SNAPSHOT_AFTER:
            store.snapshot()
    return store


def _total_ops() -> int:
    """Dry-run the scenario to enumerate its storage operations."""
    injector = CrashPlan(seed=SEED, kill_after=None).injector()
    _run_scenario(CONFIG, MemStorage(injector=injector), [0])
    return injector.ops


TOTAL_OPS = _total_ops()


def _assert_recovered(storage, backend: str, acked: int) -> DurableSketchStore:
    """Recover, check bit-identity to an allowed fresh encode + fixpoint."""
    config = _config(backend)
    expected = _expected(backend)
    recovered = DurableSketchStore.open(config, storage=storage)
    allowed = {
        expected[acked],
        expected[min(acked + 1, len(expected) - 1)],
    }
    assert recovered.one_round_encode() in allowed
    again = DurableSketchStore.open(config, storage=storage)
    assert again.one_round_encode() == recovered.one_round_encode()
    assert again.recovery.truncated_bytes == 0
    assert again.recovery.n_points == recovered.recovery.n_points
    return recovered


class TestCrashMatrix:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("torn", [False, True], ids=["clean", "torn"])
    @pytest.mark.parametrize("kill", range(TOTAL_OPS))
    def test_every_kill_point_mem(self, kill, torn, backend):
        plan = CrashPlan(seed=SEED, kill_after=kill, torn=torn)
        storage = MemStorage(injector=plan.injector())
        acked = [0]
        with pytest.raises(InjectedCrash):
            _run_scenario(_config(backend), storage, acked)
        storage.crash(plan.rng("crash"))
        _assert_recovered(storage, backend, acked[0])

    @pytest.mark.parametrize("kill", range(TOTAL_OPS))
    def test_every_kill_point_os(self, kill, tmp_path):
        plan = CrashPlan(seed=SEED, kill_after=kill, torn=True)
        storage = OsStorage(str(tmp_path), injector=plan.injector())
        acked = [0]
        with pytest.raises(InjectedCrash):
            _run_scenario(CONFIG, storage, acked)
        # The real filesystem is kinder than MemStorage: everything the
        # dead process wrote survives, minus the dying op's torn tail.
        _assert_recovered(OsStorage(str(tmp_path)), "pure", acked[0])

    def test_op_count_is_stable(self):
        # The matrix only covers every kill point if the dry-run count
        # is the real count; re-derive it to catch drift.
        assert TOTAL_OPS == _total_ops()
        assert TOTAL_OPS > 20

    def test_plans_are_reproducible(self):
        def survivors(plan):
            storage = MemStorage(injector=plan.injector())
            with pytest.raises(InjectedCrash):
                _run_scenario(CONFIG, storage, [0])
            storage.crash(plan.rng("crash"))
            return {
                name: storage.read(name)
                for name in (SNAPSHOT_NAME, WAL_NAME)
                if storage.read(name) is not None
            }

        kill = TOTAL_OPS // 2
        first = survivors(CrashPlan(seed=SEED, kill_after=kill, torn=True))
        second = survivors(CrashPlan(seed=SEED, kill_after=kill, torn=True))
        assert first == second


class TestCleanRecovery:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_round_trip_bit_identity(self, backend):
        storage = MemStorage()
        store = _run_scenario(_config(backend), storage, [0])
        assert store.one_round_encode() == _expected(backend)[-1]
        recovered = DurableSketchStore.open(_config(backend), storage=storage)
        assert recovered.one_round_encode() == store.one_round_encode()
        assert recovered.recovery.source == "snapshot+wal"
        assert recovered.recovery.replayed_records == 3
        assert recovered.recovery.truncated_bytes == 0
        again = DurableSketchStore.open(_config(backend), storage=storage)
        assert again.recovery == recovered.recovery

    def test_torn_tail_truncated_at_first_bad_crc(self):
        storage = MemStorage()
        _run_scenario(CONFIG, storage, [0])
        wal = storage.read(WAL_NAME)
        storage.write(WAL_NAME, wal[:-3])
        storage.fsync(WAL_NAME)
        recovered = DurableSketchStore.open(CONFIG, storage=storage)
        # The chopped record (the final remove batch) is wholly out.
        assert recovered.one_round_encode() == _expected("pure")[-2]
        assert recovered.recovery.truncated_bytes > 0
        again = DurableSketchStore.open(CONFIG, storage=storage)
        assert again.recovery.truncated_bytes == 0
        assert again.one_round_encode() == recovered.one_round_encode()

    def test_bulk_load_snapshot_durability(self):
        storage = MemStorage()
        store = DurableSketchStore.open(CONFIG, storage=storage)
        points = uniform_points(random.Random(3), 80, DELTA, 2)
        store.bulk_load(points)
        assert store.recovery.n_points == 80
        recovered = DurableSketchStore.open(CONFIG, storage=storage)
        assert recovered.one_round_encode() == store.one_round_encode()
        assert recovered.recovery.source == "snapshot"
        with pytest.raises(ConfigError):
            store.bulk_load(points)

    def test_one_round_encode_matches_a_fresh_encode(self):
        store = DurableSketchStore.open(CONFIG, storage=MemStorage())
        points = uniform_points(random.Random(5), 40, DELTA, 2)
        store.insert_batch(points)
        assert store.one_round_encode() == store.sketch.encode()
        assert store.one_round_encode() == HierarchicalReconciler(
            CONFIG
        ).encode(points)


class _CountingBytes(bytes):
    """``bytes`` that tallies how many bytes its slices copy."""

    copied = 0

    def __getitem__(self, index):
        item = super().__getitem__(index)
        if isinstance(index, slice):
            type(self).copied += len(item)
        return item


class TestWalScan:
    def test_scan_copies_linear_in_log_size(self, monkeypatch):
        """Scanning a log copies O(len(data)) bytes, not a tail per
        record: 2,000 records must not copy more than a few times the log
        (re-slicing the rest of the log per record copies ~1,000x)."""
        payloads = [bytes([i % 251]) * 40 for i in range(2000)]
        records = [
            wal_codec.encode_record(3, wal_codec.KIND_DELTAS, payload)
            for payload in payloads
        ]
        monkeypatch.setattr(_CountingBytes, "copied", 0)
        # A torn tail (a cut record header) must still end the scan.
        data = _CountingBytes(b"".join(records) + records[0][:7])
        scanned, clean = wal_codec.scan_records(data)
        assert clean == len(data) - 7
        assert [payload for _, _, payload in scanned] == payloads
        assert _CountingBytes.copied <= 4 * len(data)


def _v1_record(generation: int, payload: bytes) -> bytes:
    """A WAL record framed as version 1 wrote it (the same frame)."""
    writer = BitWriter()
    writer.write_uint(wal_codec.WAL_MAGIC, 8)
    writer.write_uint(1, 8)
    writer.write_varint(generation)
    writer.write_uint(wal_codec.KIND_DELTAS, 8)
    writer.write_bytes(payload)
    body = writer.getvalue()
    return body + zlib.crc32(body).to_bytes(4, "big")


class TestTypedFailures:
    def _loaded_storage(self) -> MemStorage:
        storage = MemStorage()
        _run_scenario(CONFIG, storage, [0])
        return storage

    def test_corrupt_snapshot_is_typed(self):
        storage = self._loaded_storage()
        snap = bytearray(storage.read(SNAPSHOT_NAME))
        snap[len(snap) // 2] ^= 0xFF
        storage.write(SNAPSHOT_NAME, bytes(snap))
        with pytest.raises(StoreCorruptError, match="CRC"):
            DurableSketchStore.open(CONFIG, storage=storage)

    def test_config_digest_mismatch_is_typed(self):
        storage = self._loaded_storage()
        drifted = replace(CONFIG, seed=CONFIG.seed + 1)
        with pytest.raises(ConfigError, match="digest"):
            DurableSketchStore.open(drifted, storage=storage)

    def test_wal_outrunning_snapshot_is_typed(self):
        storage = self._loaded_storage()
        rogue = wal_codec.encode_record(99, wal_codec.KIND_DELTAS, b"\x00")
        storage.append(WAL_NAME, rogue)
        storage.fsync(WAL_NAME)
        with pytest.raises(StoreCorruptError, match="outruns"):
            DurableSketchStore.open(CONFIG, storage=storage)

    def test_unknown_record_kind_is_typed(self):
        storage = self._loaded_storage()
        store = DurableSketchStore.open(CONFIG, storage=storage)
        rogue = wal_codec.encode_record(store.generation, 7, b"\x00")
        storage.append(WAL_NAME, rogue)
        storage.fsync(WAL_NAME)
        with pytest.raises(StoreCorruptError, match="kind"):
            DurableSketchStore.open(CONFIG, storage=storage)

    def _wal_only_storage(self) -> MemStorage:
        """A store whose only state is a WAL of three acked points."""
        storage = MemStorage()
        store = DurableSketchStore.open(CONFIG, storage=storage)
        store.insert_batch(uniform_points(random.Random(4), 3, DELTA, 2))
        return storage

    def test_unknown_wal_version_is_typed_not_truncated(self):
        """A record that frames and passes its CRC under an unknown layout
        version is acked data this build cannot read: refused typed, and
        the log keeps every byte (it used to be cut as a torn tail)."""
        storage = self._wal_only_storage()
        record = bytearray(
            wal_codec.encode_record(0, wal_codec.KIND_DELTAS, b"\x00")
        )
        record[1] = wal_codec.WAL_VERSION + 1
        body = bytes(record[:-4])
        storage.append(WAL_NAME, body + zlib.crc32(body).to_bytes(4, "big"))
        storage.fsync(WAL_NAME)
        wal = storage.read(WAL_NAME)
        with pytest.raises(StoreCorruptError, match="layout version"):
            DurableSketchStore.open(CONFIG, storage=storage)
        assert storage.read(WAL_NAME) == wal

    def test_parent_format_wal_is_typed_not_truncated(self):
        """A version-1 record (delta groups addressed per shard) after a
        clean version-2 prefix is refused, not truncated."""
        storage = self._wal_only_storage()
        level = CONFIG.sketch_levels[0]
        payload = BitWriter()
        payload.write_varint(1)  # one group
        payload.write_varint(0)  # shard
        payload.write_varint(level)
        payload.write_varint(0)  # no deltas
        payload.write_bytes(b"")
        storage.append(WAL_NAME, _v1_record(0, payload.getvalue()))
        storage.fsync(WAL_NAME)
        wal = storage.read(WAL_NAME)
        with pytest.raises(StoreCorruptError, match="layout version 1"):
            DurableSketchStore.open(CONFIG, storage=storage)
        assert storage.read(WAL_NAME) == wal

    def test_torn_record_of_unknown_version_still_truncates(self):
        """Only a CRC-valid record is refused: a torn one is still a tail."""
        storage = self._wal_only_storage()
        clean = storage.read(WAL_NAME)
        storage.append(WAL_NAME, _v1_record(0, b"\x00")[:-2])
        storage.fsync(WAL_NAME)
        recovered = DurableSketchStore.open(CONFIG, storage=storage)
        assert recovered.recovery.n_points == 3
        assert recovered.recovery.truncated_bytes > 0
        assert storage.read(WAL_NAME) == clean

    def test_parent_format_snapshot_is_typed(self):
        """A version-1 snapshot (shard count plus a per-shard loop, digested
        under the sharded variant) is refused typed."""
        storage = self._loaded_storage()
        body = storage.read(SNAPSHOT_NAME)[:-4]
        reader = BitReader(body)
        reader.read_uint(8)
        reader.read_uint(8)
        generation = reader.read_varint()
        reader.read_bytes()  # the version-2 digest
        per_level = body[reader.bits_consumed // 8:]
        writer = BitWriter()
        writer.write_uint(0xCC, 8)
        writer.write_uint(1, 8)
        writer.write_varint(generation)
        writer.write_bytes(
            config_digest(CONFIG, "sharded").encode("ascii")
        )
        writer.write_varint(1)  # one shard
        v1 = writer.getvalue() + per_level
        storage.write(SNAPSHOT_NAME, v1 + zlib.crc32(v1).to_bytes(4, "big"))
        with pytest.raises(StoreCorruptError, match="layout version 1"):
            DurableSketchStore.open(CONFIG, storage=storage)

    def test_missing_directory_is_typed(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            OsStorage(str(tmp_path / "nope"))

    def test_bad_store_file_names_rejected(self):
        storage = MemStorage()
        for name in ("", "a/b", ".hidden", "a..b"):
            with pytest.raises(StoreError):
                storage.read(name)


class TestWalBeforeAck:
    """The serve-layer contract: a live insert is WAL'd and fsynced
    before the server acknowledges it — a crash mid-ingest loses only
    unacknowledged points."""

    def _loaded(self, storage, points):
        from repro.serve import ServerCore

        store = DurableSketchStore.open(CONFIG, storage=storage)
        store.bulk_load(points)
        return store, ServerCore(CONFIG, list(points), store=store)

    def test_ingest_acks_are_durable(self):
        points = uniform_points(random.Random(11), 40, DELTA, 2)
        extra = uniform_points(random.Random(12), 10, DELTA, 2)
        storage = MemStorage()
        store, core = self._loaded(storage, points)
        assert core.ingest(extra) == 10
        assert len(core.points) == 50
        assert core.encoded("one-round") == store.one_round_encode()
        recovered = DurableSketchStore.open(CONFIG, storage=storage)
        assert recovered.one_round_encode() == store.one_round_encode()
        assert recovered.recovery.n_points == 50

    def test_crash_during_ingest_loses_only_the_unacked_batch(self):
        points = uniform_points(random.Random(11), 40, DELTA, 2)
        extra = uniform_points(random.Random(12), 10, DELTA, 2)
        injector = CrashPlan(seed=1, kill_after=None).injector()
        self._loaded(MemStorage(injector=injector), points)
        boot_ops = injector.ops

        plan = CrashPlan(seed=1, kill_after=boot_ops, torn=True)
        storage = MemStorage(injector=plan.injector())
        store, core = self._loaded(storage, points)
        before = store.one_round_encode()
        with pytest.raises(InjectedCrash):
            core.ingest(extra)
        # The ack never happened: neither the point list nor the live
        # sketch moved, and recovery sees only the bulk-loaded state.
        assert len(core.points) == 40
        assert store.one_round_encode() == before
        storage.crash(plan.rng("crash"))
        recovered = DurableSketchStore.open(CONFIG, storage=storage)
        assert recovered.one_round_encode() == before
        assert recovered.recovery.n_points == 40


class _LoseAll:
    """An rng whose every draw is 0 — the harshest legal crash."""

    def randrange(self, n: int) -> int:
        return 0


class TestMemStorageModel:
    def test_unsynced_bytes_can_vanish(self):
        storage = MemStorage()
        storage.write("f.bin", b"durable")
        storage.fsync("f.bin")
        storage.publish("f.bin", "f.bin")  # dir-sync the binding
        storage.append("f.bin", b"-volatile")
        storage.crash(_LoseAll())
        assert storage.read("f.bin") == b"durable"

    def test_unsynced_binding_can_vanish(self):
        storage = MemStorage()
        storage.write("tmp.bin", b"x")
        storage.fsync("tmp.bin")  # bytes durable, binding not
        storage.crash(_LoseAll())
        assert storage.read("tmp.bin") is None

    def test_publish_makes_bindings_durable(self):
        storage = MemStorage()
        storage.write("a~tmp", b"payload")
        storage.fsync("a~tmp")
        storage.publish("a~tmp", "a.bin")
        storage.crash(_LoseAll())
        assert storage.read("a.bin") == b"payload"
        assert storage.read("a~tmp") is None
