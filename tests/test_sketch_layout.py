"""The hierarchy sketch's fixed-width level layout (:mod:`repro.core.sketch`).

Each level travels as ``level id | count width | length-prefixed cell
blob``.  ``from_bytes`` validates every header and blob length up front and
unpacks nothing; a level's blob becomes a table only when the level probe
first uses it.
"""

from __future__ import annotations

import pytest

from repro.core import sketch as sketch_module
from repro.core.config import ProtocolConfig
from repro.core.incremental import IncrementalSketch
from repro.core.protocol import HierarchicalReconciler, probe_levels
from repro.core.repair import plan_repair
from repro.core.sketch import (
    MAGIC,
    VERSION,
    HierarchySketch,
    LevelSketch,
    level_iblt_config,
)
from repro.errors import ReconciliationFailure, SerializationError
from repro.iblt.backends import available_backends
from repro.iblt.table import IBLT
from repro.net import codec
from repro.net.bits import BitReader, BitWriter
from repro.net.codec import fixed_count_width
from repro.store import DurableSketchStore, MemStorage
from repro.workloads.synthetic import perturbed_pair

BACKENDS = available_backends()
needs_numpy = pytest.mark.skipif(
    "numpy" not in BACKENDS, reason="numpy not installed"
)


@pytest.fixture
def unpacks(monkeypatch):
    """Every level blob unpacked into a table, in unpack order."""
    calls: list[bytes] = []
    real = sketch_module.decode_cells_fixed

    def counting(blob, *args):
        calls.append(blob)
        return real(blob, *args)

    monkeypatch.setattr(sketch_module, "decode_cells_fixed", counting)
    return calls


def _parties(backend: str = "auto", seed: int = 1):
    workload = perturbed_pair(seed, 400, 2**12, 2, 4, 2.0)
    config = ProtocolConfig(
        delta=2**12, dimension=2, k=8, seed=seed, backend=backend
    )
    return workload, config, HierarchicalReconciler(config)


def _fields(payload: bytes):
    """``(n_points, [[level, width, blob], ...])`` of a sketch payload."""
    reader = BitReader(payload)
    assert (reader.read_uint(8), reader.read_uint(8)) == (MAGIC, VERSION)
    n_points = reader.read_varint()
    levels = [
        [reader.read_varint(), reader.read_uint(8), reader.read_bytes()]
        for _ in range(reader.read_varint())
    ]
    reader.expect_end()
    return n_points, levels


def _payload(n_points: int, levels) -> bytes:
    writer = BitWriter()
    writer.write_uint(MAGIC, 8)
    writer.write_uint(VERSION, 8)
    writer.write_varint(n_points)
    writer.write_varint(len(levels))
    for level, width, blob in levels:
        writer.write_varint(level)
        writer.write_uint(width, 8)
        writer.write_bytes(blob)
    return writer.getvalue()


class TestCountWidth:
    def test_bit_length_of_largest_zigzag_count(self):
        assert fixed_count_width([0, 0]) == 1
        assert fixed_count_width([]) == 1
        assert fixed_count_width([-1, 0]) == 1  # zigzag 1
        assert fixed_count_width([1]) == 2  # zigzag 2
        assert fixed_count_width([108, -3]) == 8  # zigzag 216
        assert fixed_count_width([-128, 5]) == 8  # zigzag 255

    @needs_numpy
    def test_numpy_column_matches_list(self):
        import numpy as np

        for counts in ([0], [3, -7, 2], [-(2**40), 9], [2**61]):
            assert fixed_count_width(np.asarray(counts, dtype=np.int64)) == (
                fixed_count_width(counts)
            )

    def test_each_level_carries_its_own_width(self):
        workload, config, reconciler = _parties()
        _, levels = _fields(reconciler.encode(workload.alice))
        sketch = HierarchySketch.from_bytes(
            reconciler.encode(workload.alice), config, reconciler.grid
        )
        widths = [width for _, width, _ in levels]
        assert widths == [
            fixed_count_width(level.table.rows_arrays()[0])
            for level in sketch.levels
        ]
        assert len(set(widths)) > 1  # coarse levels hold larger counts


class TestMalformedPayloads:
    """Every malformed layout is refused by ``from_bytes`` before any level
    blob is unpacked."""

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda levels, top: levels[0].__setitem__(1, 0), "count width 0"),
            (lambda levels, top: levels[0].__setitem__(1, 64), "count width 64"),
            (
                lambda levels, top: levels[0].__setitem__(2, levels[0][2][:-1]),
                "blob",
            ),
            (
                lambda levels, top: levels[0].__setitem__(
                    2, levels[0][2] + b"\x00"
                ),
                "blob",
            ),
            (
                lambda levels, top: levels[1].__setitem__(0, levels[0][0]),
                "twice",
            ),
            (
                lambda levels, top: levels[0].__setitem__(0, top + 1),
                "out of range",
            ),
        ],
        ids=[
            "width-0", "width-64", "blob-short", "blob-long",
            "duplicate-level", "level-out-of-range",
        ],
    )
    def test_rejected_before_unpacking(self, unpacks, mutate, message):
        workload, config, reconciler = _parties()
        n_points, levels = _fields(reconciler.encode(workload.alice))
        mutate(levels, reconciler.grid.max_level)
        with pytest.raises(SerializationError, match=message):
            HierarchySketch.from_bytes(
                _payload(n_points, levels), config, reconciler.grid
            )
        assert unpacks == []

    def test_trailing_byte(self, unpacks):
        workload, config, reconciler = _parties()
        payload = reconciler.encode(workload.alice) + b"\x00"
        with pytest.raises(SerializationError):
            HierarchySketch.from_bytes(payload, config, reconciler.grid)
        assert unpacks == []

    def test_old_version_refused(self):
        workload, config, reconciler = _parties()
        payload = bytearray(reconciler.encode(workload.alice))
        payload[1] = 1
        with pytest.raises(SerializationError, match="version"):
            HierarchySketch.from_bytes(bytes(payload), config, reconciler.grid)

    def test_oversized_count_is_refused_on_write(self):
        config = ProtocolConfig(delta=256, dimension=1, k=2, seed=9)
        grid = HierarchicalReconciler(config).grid
        table = IBLT(level_iblt_config(config, grid, 0))
        table._backend.load_rows(
            [2**62] + [0] * (table.config.cells - 1),
            [0] * table.config.cells,
            [0] * table.config.cells,
        )
        with pytest.raises(SerializationError, match="63"):
            HierarchySketch(1, [LevelSketch(0, table)]).to_bytes()


class TestLazyUnpacking:
    def test_parse_unpacks_nothing(self, unpacks):
        workload, config, reconciler = _parties()
        sketch = HierarchySketch.from_bytes(
            reconciler.encode(workload.alice), config, reconciler.grid
        )
        assert len(sketch.levels) == len(config.sketch_levels)
        assert unpacks == []

    @pytest.mark.parametrize("probe", ["binary", "linear"])
    def test_bob_unpacks_exactly_the_probed_levels(self, unpacks, probe):
        workload, config, reconciler = _parties()
        payload = reconciler.encode(workload.alice)
        result = reconciler.decode_and_repair(payload, workload.bob, probe=probe)
        assert len(unpacks) == len(result.levels_probed)
        assert len(result.repaired) == len(workload.alice)
        if probe == "binary":
            assert len(result.levels_probed) < len(config.sketch_levels)

    def test_reserialises_to_the_same_bytes(self):
        workload, config, reconciler = _parties()
        payload = reconciler.encode(workload.alice)
        sketch = HierarchySketch.from_bytes(payload, config, reconciler.grid)
        assert sketch.to_bytes() == payload


class TestBackendParity:
    """Pure and numpy hosts (and the scalar codec) write the same bytes."""

    def _payloads(self, build, monkeypatch) -> list[bytes]:
        payloads = [build(backend) for backend in BACKENDS]
        with monkeypatch.context() as patch:
            patch.setattr(codec, "_np", None)
            payloads.append(build("pure"))
        return payloads

    def test_one_round_encode(self, monkeypatch):
        def build(backend):
            workload, _, reconciler = _parties(backend)
            return reconciler.encode(workload.alice)

        first, *rest = self._payloads(build, monkeypatch)
        assert all(payload == first for payload in rest)

    def test_empty_tables(self, monkeypatch):
        def build(backend):
            config = ProtocolConfig(
                delta=256, dimension=1, k=2, seed=9, backend=backend
            )
            return HierarchicalReconciler(config).encode([])

        first, *rest = self._payloads(build, monkeypatch)
        assert all(payload == first for payload in rest)
        _, levels = _fields(first)
        assert {width for _, width, _ in levels} == {1}

    def test_store_sketch_after_deletions(self, monkeypatch):
        workload, _, _ = _parties()

        def build(backend):
            config = ProtocolConfig(
                delta=2**12, dimension=2, k=8, seed=1, backend=backend
            )
            store = DurableSketchStore.open(config, storage=MemStorage())
            store.insert_batch(workload.alice)
            store.remove_batch(workload.alice[::3])
            store.remove(workload.alice[1])
            return store.one_round_encode()

        first, *rest = self._payloads(build, monkeypatch)
        assert all(payload == first for payload in rest)
        # Deletions leave the same bytes as encoding the survivors afresh.
        survivors = [
            point for index, point in enumerate(workload.alice)
            if index % 3 and index != 1
        ]
        config = ProtocolConfig(delta=2**12, dimension=2, k=8, seed=1)
        assert first == HierarchicalReconciler(config).encode(survivors)

    def test_incremental_encode_matches_fresh(self):
        workload, config, reconciler = _parties()
        incremental = IncrementalSketch(config)
        incremental.insert_all(workload.alice)
        assert incremental.encode() == reconciler.encode(workload.alice)


class TestFalseDecodeDuringProbing:
    """With 8-bit checksums a peel can pass the count-balance check yet
    name a Bob-surplus key Bob does not hold.  The probe plans each peel
    as it goes, so the repair planner's refusal marks that level
    undecodable and the search goes on."""

    SEED = 112

    def _case(self, backend):
        workload = perturbed_pair(self.SEED, 200, 1024, 2, 6, 4.0)
        config = ProtocolConfig(
            delta=1024, dimension=2, k=4, seed=self.SEED, checksum_bits=8,
            backend=backend,
        )
        return workload, config, HierarchicalReconciler(config)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_false_decode_is_skipped(self, backend):
        workload, config, reconciler = self._case(backend)
        payload = reconciler.encode(workload.alice)

        # Without planning during the probe, the search settles on a false
        # decode that the planner can only refuse.
        sketch = HierarchySketch.from_bytes(payload, config, reconciler.grid)
        levels = {level.level: level for level in sketch.levels}
        key_pass = reconciler.grid.vector_key_pass(workload.bob, tuple(levels))
        false_level, false_result, _, _ = probe_levels(
            levels,
            lambda level, table: reconciler.level_table(
                workload.bob, level, table.config.cells, key_pass
            ),
            lambda level, result: None,
            sketch.n_points, len(workload.bob), config,
        )
        with pytest.raises(ReconciliationFailure):
            plan_repair(
                workload.bob, false_result.alice_keys, false_result.bob_keys,
                reconciler.grid, false_level, key_pass=key_pass,
            )

        result = reconciler.decode_and_repair(payload, workload.bob)
        assert false_level in result.levels_probed
        assert result.level != false_level
        assert len(result.repaired) == len(workload.alice)

    def test_every_level_rejected_fails_typed_from_the_probe(self):
        workload, config, reconciler = _parties()
        sketch = HierarchySketch.from_bytes(
            reconciler.encode(workload.alice), config, reconciler.grid
        )
        levels = {level.level: level for level in sketch.levels}

        def reject(level, result):
            raise ReconciliationFailure(f"level {level} rejected")

        with pytest.raises(ReconciliationFailure, match="no level"):
            probe_levels(
                levels,
                lambda level, table: reconciler.level_table(
                    workload.bob, level, table.config.cells
                ),
                reject,
                sketch.n_points, len(workload.bob), config,
            )
