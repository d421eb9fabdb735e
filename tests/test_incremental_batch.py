"""Batched sketch maintenance against a sequential per-point oracle.

Incremental sketches and the durable store plan a whole batch, then land
each level as one signed IBLT batch.  The contract checked here:

* after every batch, ``encode()``, every level's ``level_cell_counts`` and
  ``n_points`` equal those of an oracle that applies the same points one
  at a time, one scalar IBLT update per (point, level) — across the pure
  and numpy backends and one or two dimensions, with in-batch duplicates,
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
from repro.store import DurableSketchStore, MemStorage
from repro.store import wal as wal_codec
from repro.store.store import WAL_NAME

BACKENDS = [name for name in ("pure", "numpy") if name in available_backends()]


class PerPointOracle:
    """The hierarchy maintained a point at a time: validate every level,
    then one scalar ``IBLT.insert`` / ``delete`` per level."""

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

    def encode(self) -> bytes:
        return HierarchySketch(
            n_points=self.n_points,
            levels=[
                LevelSketch(level, table) for level, table in self.tables.items()
            ],
        ).to_bytes()


def _config(backend: str, dimension: int = 2, **overrides) -> ProtocolConfig:
    return ProtocolConfig(
        delta=64, dimension=dimension, k=4, seed=5, backend=backend,
        **overrides,
    )


def _batches(dimension: int = 2) -> list[tuple[str, list]]:
    """Insert/remove batches over a small pool of points: in-batch
    duplicates, later batches landing in occupied cells, and removes that
    empty cells (every copy of a point, and whole fine cells)."""
    rng = random.Random(17)
    pool = [
        tuple(rng.randrange(64) for _ in range(dimension)) for _ in range(12)
    ]
    corner, far = (3,) * dimension, (63,) * dimension
    first = [rng.choice(pool) for _ in range(40)]
    second = [rng.choice(pool) for _ in range(25)] + [corner] * 4
    emptied = sorted(set(first) - {corner})[:3]
    remove_all = [p for p in first + second if p in emptied]
    remove_some = [p for p in second if p not in emptied][:10]
    refill = [rng.choice(pool) for _ in range(15)] + emptied
    return [
        ("insert", first),
        ("insert", second),
        ("remove", remove_all),
        ("remove", remove_some),
        ("insert", refill),
        ("insert", [far]),
        ("remove", [far, corner]),
    ]


def _assert_matches(sketch, oracle) -> None:
    assert sketch.encode() == oracle.encode()
    assert sketch.n_points == oracle.n_points
    for level in sketch.config.sketch_levels:
        assert sketch.level_cell_counts(level) == oracle.counts[level]


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("backend", BACKENDS)
def test_batches_match_per_point_oracle(backend, dimension):
    config = _config(backend, dimension)
    sketch = IncrementalSketch(config)
    oracle = PerPointOracle(config)
    for kind, batch in _batches(dimension):
        for point in batch:
            getattr(oracle, kind)(point)
        if kind == "insert":
            sketch.insert_all(batch)
        else:
            sketch.apply(sketch.plan(batch, -1))
        _assert_matches(sketch, oracle)


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("backend", BACKENDS)
def test_store_batches_and_replay_match_oracle(backend, dimension):
    """The store's batch path (plan, WAL, apply) and its WAL replay both
    land on the per-point oracle's state."""
    config = _config(backend, dimension)
    storage = MemStorage()
    store = DurableSketchStore.open(config, storage=storage)
    oracle = PerPointOracle(config)
    for kind, batch in _batches(dimension):
        for point in batch:
            getattr(oracle, kind)(point)
        if kind == "insert":
            store.insert_batch(batch)
        else:
            store.remove_batch(batch)
        _assert_matches(store.sketch, oracle)
    recovered = DurableSketchStore.open(config, storage=storage)
    assert recovered.recovery.replayed_records == len(_batches())
    _assert_matches(recovered.sketch, oracle)


#: sha256 of the WAL the seeded scenario below writes, recorded when the
#: record layout became version 2 (per-level delta groups).
PINNED_WAL_SHA256 = (
    "d72d3bcd52d3efd54db2315c5c8094a4df67affa1c956e49ead830430b7321c0"
)


def pinned_wal_bytes(backend: str) -> bytes:
    config = ProtocolConfig(delta=2048, dimension=2, k=6, seed=7, backend=backend)
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


def _overflow_config(backend: str, dimension: int = 1) -> ProtocolConfig:
    return ProtocolConfig(
        delta=256, dimension=dimension, k=2, seed=3, occupancy_bits=2,
        backend=backend,
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_insert_all_is_atomic_on_a_loaded_sketch(backend):
    """Regression: ``insert_all`` on a non-empty sketch used to insert
    point by point, so an overflow at the fifth point left the first
    four applied."""
    sketch = IncrementalSketch(_overflow_config(backend))
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


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("backend", BACKENDS)
def test_store_failed_batches_leave_wal_and_sketch_unchanged(backend, dimension):
    """A batch that fails planning raises typed before the WAL append:
    the log does not grow, the live sketch does not move, and recovery
    sees only the acknowledged batches."""
    config = _overflow_config(backend, dimension)
    p10, p50, p90, p200 = ((x,) * dimension for x in (10, 50, 90, 200))
    storage = MemStorage()
    store = DurableSketchStore.open(config, storage=storage)
    store.insert_batch([p10, p10, p50])
    wal_len = len(storage.read(WAL_NAME))
    before = store.one_round_encode()

    with pytest.raises(CapacityExceeded):
        store.insert_batch([p200, p10, p10, p10, p90])
    # Removing p50 twice empties its cell at the second copy.
    with pytest.raises(ReconciliationFailure, match="is empty"):
        store.remove_batch([p10, p50, p50, p10])

    assert len(storage.read(WAL_NAME)) == wal_len
    assert store.one_round_encode() == before
    assert store.sketch.n_points == 3
    recovered = DurableSketchStore.open(config, storage=storage)
    assert recovered.one_round_encode() == before
    assert recovered.recovery.n_points == 3


def test_wal_group_with_a_bad_sign_is_refused_typed():
    """Replay validates a decoded group's signs before any of it lands."""
    sketch = IncrementalSketch(_config("pure"))
    level = sketch.config.sketch_levels[0]
    payload = wal_codec.encode_deltas(sketch, [(level, [5, 9], [1, 0])])
    with pytest.raises(StoreCorruptError, match="sign 0 is not ±1"):
        wal_codec.decode_deltas(sketch, payload)
    good = wal_codec.encode_deltas(sketch, [(level, [5, 9], [1, -1])])
    [(got_level, keys, signs)] = wal_codec.decode_deltas(sketch, good)
    assert (got_level, list(keys), list(signs)) == (level, [5, 9], [1, -1])
