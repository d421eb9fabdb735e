"""Batched sketch maintenance against a sequential per-point oracle.

Incremental sketches and the durable store plan a whole batch, then land
each (shard, level) as one signed IBLT batch.  The contract checked here:

* after every batch, ``encode()``, every level's ``level_cell_counts`` and
  ``n_points`` equal those of an oracle that applies the same points one
  at a time, one scalar IBLT update per (point, level) — across the pure
  and numpy backends and one or two shards, with in-batch duplicates,
  points landing in occupied cells and removes that empty cells;
* a batch that fails planning (a full occupancy field, a remove from a
  cell the batch empties) raises typed and changes nothing: not the
  sketch, not ``n_points``, not the WAL;
* the WAL bytes of a seeded scenario are pinned, so the on-disk record
  format cannot move.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace

import pytest

from repro.core.config import ProtocolConfig
from repro.core.grid import ShiftedGridHierarchy
from repro.core.incremental import IncrementalSketch
from repro.core.sketch import HierarchySketch, LevelSketch, level_iblt_config
from repro.errors import (
    CapacityExceeded,
    ConfigError,
    ReconciliationFailure,
    StoreCorruptError,
)
from repro.iblt.backends import available_backends
from repro.iblt.table import IBLT
from repro.scale.engine import shard_protocol_config
from repro.scale.incremental import ShardedIncrementalSketch
from repro.scale.partition import SpacePartitioner
from repro.scale.wire import write_frame, write_shard_sketch
from repro.store import DurableSketchStore, MemStorage
from repro.store import wal as wal_codec
from repro.store.store import WAL_NAME

BACKENDS = [name for name in ("pure", "numpy") if name in available_backends()]


class PerPointOracle:
    """One shard's hierarchy maintained a point at a time: validate every
    level, then one scalar ``IBLT.insert`` / ``delete`` per level."""

    def __init__(self, config: ProtocolConfig):
        self.config = config
        shift = None if config.random_shift else (0,) * config.dimension
        self.grid = ShiftedGridHierarchy(
            config.delta, config.dimension, config.seed, config.occupancy_bits,
            shift=shift,
        )
        self.tables = {
            level: IBLT(
                level_iblt_config(config, self.grid, level),
                backend=config.backend,
            )
            for level in config.sketch_levels
        }
        self.counts = {level: {} for level in config.sketch_levels}
        self.n_points = 0

    def _update(self, point, sign: int) -> None:
        occ_bits = self.grid.occupancy_bits
        ranks = {}
        for level in self.tables:
            cell_id = self.grid.cell_id(point, level)
            count = self.counts[level].get(cell_id, 0)
            rank = count if sign > 0 else count - 1
            if rank < 0:
                raise ReconciliationFailure(f"remove of {point}: empty cell")
            if rank >= 1 << occ_bits:
                raise CapacityExceeded(f"{point} overflows level {level}")
            ranks[level] = (cell_id, rank)
        for level, (cell_id, rank) in ranks.items():
            key = (cell_id << occ_bits) | rank
            if sign > 0:
                self.tables[level].insert(key)
            else:
                self.tables[level].delete(key)
            if count := rank + (sign > 0):
                self.counts[level][cell_id] = count
            else:
                del self.counts[level][cell_id]
        self.n_points += sign

    def insert(self, point) -> None:
        self._update(point, 1)

    def remove(self, point) -> None:
        self._update(point, -1)

    def level_sketches(self) -> list[LevelSketch]:
        return [LevelSketch(level, table) for level, table in self.tables.items()]

    def encode(self) -> bytes:
        return HierarchySketch(
            n_points=self.n_points,
            levels=[
                LevelSketch(level, table.copy())
                for level, table in self.tables.items()
            ],
        ).to_bytes()


class ShardedOracle:
    """Per-point oracle of :class:`ShardedIncrementalSketch`."""

    def __init__(self, config: ProtocolConfig):
        self.config = config
        self.partitioner = SpacePartitioner(config)
        self.shards = [
            PerPointOracle(shard_protocol_config(config))
            for _ in range(config.shards)
        ]

    def insert(self, point) -> None:
        self.shards[self.partitioner.shard_of(point)].insert(point)

    def remove(self, point) -> None:
        self.shards[self.partitioner.shard_of(point)].remove(point)

    def encode(self) -> bytes:
        return write_frame(
            self.config.shards,
            self.partitioner.level,
            [shard.n_points for shard in self.shards],
            [
                write_shard_sketch(shard.n_points, shard.level_sketches())
                for shard in self.shards
            ],
        )


def _config(backend: str, shards: int = 1, **overrides) -> ProtocolConfig:
    return ProtocolConfig(
        delta=64, dimension=2, k=4, seed=5, shards=shards, backend=backend,
        **overrides,
    )


def _batches() -> list[tuple[str, list]]:
    """Insert/remove batches over a small pool of points: in-batch
    duplicates, later batches landing in occupied cells, and removes that
    empty cells (every copy of a point, and whole fine cells)."""
    rng = random.Random(17)
    pool = [(rng.randrange(64), rng.randrange(64)) for _ in range(12)]
    first = [rng.choice(pool) for _ in range(40)]
    second = [rng.choice(pool) for _ in range(25)] + [(3, 3)] * 4
    emptied = sorted(set(first))[:3]
    remove_all = [p for p in first + second if p in emptied]
    remove_some = second[:10]
    refill = [rng.choice(pool) for _ in range(15)] + emptied
    return [
        ("insert", first),
        ("insert", second),
        ("remove", remove_all),
        ("remove", remove_some),
        ("insert", refill),
        ("insert", [(63, 63)]),
        ("remove", [(63, 63), (3, 3)]),
    ]


def _assert_matches(sketch, oracle_shards, encode_oracle) -> None:
    assert sketch.encode() == encode_oracle
    for shard, oracle in zip(sketch.shard_sketches(), oracle_shards):
        assert shard.n_points == oracle.n_points
        for level in shard.config.sketch_levels:
            assert shard.level_cell_counts(level) == oracle.counts[level]


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("backend", BACKENDS)
def test_batches_match_per_point_oracle(backend, shards):
    config = _config(backend, shards)
    sketch = ShardedIncrementalSketch(config)
    oracle = ShardedOracle(config)
    single = IncrementalSketch(config) if shards == 1 else None
    for kind, batch in _batches():
        for point in batch:
            getattr(oracle, kind)(point)
        if kind == "insert":
            sketch.insert_all(batch)
        else:
            sketch.apply(sketch.plan(batch, -1))
        _assert_matches(sketch, oracle.shards, oracle.encode())
        assert sketch.n_points == sum(s.n_points for s in oracle.shards)
        if single is not None:
            if kind == "insert":
                single.insert_all(batch)
            else:
                single.apply(single.plan(batch, -1))
            assert single.encode() == oracle.shards[0].encode()
            assert single.n_points == oracle.shards[0].n_points


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("backend", BACKENDS)
def test_store_batches_and_replay_match_oracle(backend, shards):
    """The store's batch path (plan, WAL, apply) and its WAL replay both
    land on the per-point oracle's state."""
    config = _config(backend, shards)
    storage = MemStorage()
    store = DurableSketchStore.open(config, storage=storage)
    oracle = ShardedOracle(config)
    for kind, batch in _batches():
        for point in batch:
            getattr(oracle, kind)(point)
        if kind == "insert":
            store.insert_batch(batch)
        else:
            store.remove_batch(batch)
        _assert_matches(store.sketch, oracle.shards, oracle.encode())
    recovered = DurableSketchStore.open(config, storage=storage)
    assert recovered.recovery.replayed_records == len(_batches())
    _assert_matches(recovered.sketch, oracle.shards, oracle.encode())


#: sha256 of the WAL the seeded scenario below writes, recorded with the
#: per-key maintenance path that preceded batched apply.
PINNED_WAL_SHA256 = (
    "64bb7bcd2cc1ae762eb79a63d950ef061628a83c809e8641975163dac2e2dc69"
)


def pinned_wal_bytes(backend: str) -> bytes:
    config = ProtocolConfig(
        delta=2048, dimension=2, k=6, seed=7, shards=2, backend=backend
    )
    rng = random.Random(23)
    points = [(rng.randrange(2048), rng.randrange(2048)) for _ in range(60)]
    storage = MemStorage()
    store = DurableSketchStore.open(config, storage=storage)
    store.insert_batch(points[:30] + points[:5])
    store.insert_batch(points[30:])
    store.remove_batch(points[:5] + points[40:50])
    store.insert(points[0])
    store.remove(points[59])
    return storage.read(WAL_NAME)


@pytest.mark.parametrize("backend", BACKENDS)
def test_wal_bytes_pinned(backend):
    wal = pinned_wal_bytes(backend)
    assert hashlib.sha256(wal).hexdigest() == PINNED_WAL_SHA256


# ------------------------------------------------------------- atomicity


def _overflow_config(backend: str, shards: int) -> ProtocolConfig:
    return ProtocolConfig(
        delta=256, dimension=1, k=2, seed=3, occupancy_bits=2, shards=shards,
        backend=backend,
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_insert_all_is_atomic_on_a_loaded_sketch(backend):
    """Regression: ``insert_all`` on a non-empty sketch used to insert
    point by point, so an overflow at the fifth point left the first
    four applied."""
    sketch = IncrementalSketch(_overflow_config(backend, 1))
    sketch.insert_all([(10,)])
    before = sketch.encode()
    with pytest.raises(CapacityExceeded, match="occupancy field"):
        sketch.insert_all([(200,), (11,), (11,), (11,), (11,)])
    assert sketch.n_points == 1
    assert sketch.encode() == before


@pytest.mark.parametrize("backend", BACKENDS)
def test_sharded_insert_all_is_atomic_on_a_loaded_sketch(backend):
    sketch = ShardedIncrementalSketch(_overflow_config(backend, 2))
    sketch.insert_all([(10,)])
    before = sketch.encode()
    with pytest.raises(CapacityExceeded, match="occupancy field"):
        sketch.insert_all([(200,), (11,), (11,), (11,), (11,)])
    assert sketch.n_points == 1
    assert sketch.encode() == before


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_failure_names_the_first_failing_point(backend):
    """The error is the one a point-by-point run raises: the earliest
    failing point in batch order, at its finest failing level — here a
    coarse-level overflow at index 2 beats a level-0 overflow at index
    5."""
    config = ProtocolConfig(
        delta=8, dimension=1, k=1, seed=0, occupancy_bits=1,
        random_shift=False, backend=backend,
    )
    sketch = IncrementalSketch(config)
    with pytest.raises(CapacityExceeded, match=r"cell \(0,\) at level 1 "):
        sketch.insert_all([(0,), (1,), (0,), (6,), (6,), (6,)])
    assert sketch.n_points == 0
    with pytest.raises(ReconciliationFailure, match=r"remove of \(5,\)"):
        sketch.apply(sketch.plan([(5,)], -1))
    with pytest.raises(ConfigError, match="got 0"):
        sketch.plan([(5,)], 0)


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("backend", BACKENDS)
def test_store_failed_batches_leave_wal_and_sketch_unchanged(backend, shards):
    """A batch that fails planning raises typed before the WAL append:
    the log does not grow, the live sketch does not move, and recovery
    sees only the acknowledged batches."""
    config = replace(_overflow_config(backend, shards), delta=256)
    storage = MemStorage()
    store = DurableSketchStore.open(config, storage=storage)
    store.insert_batch([(10,), (10,), (50,)])
    wal_len = len(storage.read(WAL_NAME))
    before = store.encode()

    with pytest.raises(CapacityExceeded):
        store.insert_batch([(200,), (10,), (10,), (10,), (90,)])
    # Removing (50,) twice empties its cell at the second copy.
    with pytest.raises(ReconciliationFailure, match="is empty"):
        store.remove_batch([(10,), (50,), (50,), (10,)])

    assert len(storage.read(WAL_NAME)) == wal_len
    assert store.encode() == before
    assert store.sketch.n_points == 3
    recovered = DurableSketchStore.open(config, storage=storage)
    assert recovered.encode() == before
    assert recovered.recovery.n_points == 3


def test_wal_group_with_a_bad_sign_is_refused_typed():
    """Replay validates a decoded group's signs before any of it lands."""
    sketch = ShardedIncrementalSketch(_config("pure", 2))
    level = sketch.sketch_levels()[0]
    payload = wal_codec.encode_deltas(sketch, [(1, level, [5, 9], [1, 0])])
    with pytest.raises(StoreCorruptError, match="sign 0 is not ±1"):
        wal_codec.decode_deltas(sketch, payload)
    good = wal_codec.encode_deltas(sketch, [(1, level, [5, 9], [1, -1])])
    [(shard, got_level, keys, signs)] = wal_codec.decode_deltas(sketch, good)
    assert (shard, got_level, list(keys), list(signs)) == (1, level, [5, 9], [1, -1])
