"""Edge-case tests for the batch IBLT APIs (insert_many / delete_many).

Every case runs against all available backends: empty batches, duplicate
keys inside one batch, batches far larger than the table, generator inputs,
invalid keys, and occupancy overflow near ``CapacityExceeded``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import ProtocolConfig
from repro.core.grid import ShiftedGridHierarchy
from repro.core.incremental import IncrementalSketch
from repro.core.sketch import level_iblt_config
from repro.errors import CapacityExceeded, ConfigError
from repro.iblt.backends import available_backends, get_backend, resolve_backend
from repro.iblt.decode import decode
from repro.iblt.table import IBLT, IBLTConfig

BACKENDS = available_backends()


def make_table(backend, cells=32, q=4, key_bits=64, seed=1):
    return IBLT(
        IBLTConfig(cells=cells, q=q, key_bits=key_bits, seed=seed), backend=backend
    )


@pytest.mark.parametrize("backend", BACKENDS)
class TestBatchEdgeCases:
    def test_empty_batch_is_a_noop(self, backend):
        table = make_table(backend)
        table.insert_many([])
        table.delete_many([])
        table.insert_many(iter(()))
        assert table.is_empty()

    def test_duplicate_keys_in_one_batch(self, backend):
        """A batch with the same key twice equals two sequential inserts."""
        batch = make_table(backend)
        batch.insert_many([7, 7, 7, 9])
        sequential = make_table(backend)
        for key in (7, 7, 7, 9):
            sequential.insert(key)
        assert batch.to_bytes() == sequential.to_bytes()

    def test_batch_insert_then_batch_delete_is_empty(self, backend):
        keys = [k * 31 + 1 for k in range(100)]
        table = make_table(backend)
        table.insert_many(keys)
        table.delete_many(keys)
        assert table.is_empty()

    def test_batch_larger_than_table(self, backend):
        """Overfull tables stay well-formed; decode fails cleanly."""
        rng = random.Random(5)
        keys = [rng.getrandbits(64) for _ in range(500)]
        table = make_table(backend, cells=16)
        table.insert_many(keys)
        assert sum(table.cell(i)[0] for i in range(16)) == 500 * 4  # q cells per key
        result = decode(table)
        assert not result.success

    def test_generator_input(self, backend):
        table = make_table(backend)
        table.insert_many(key for key in range(50))
        other = make_table(backend)
        other.insert_many(list(range(50)))
        assert table.to_bytes() == other.to_bytes()

    def test_negative_key_in_batch_rejected(self, backend):
        table = make_table(backend)
        with pytest.raises(ValueError, match="non-negative"):
            table.insert_many([1, 2, -3])

    def test_oversized_key_in_batch_rejected(self, backend):
        table = make_table(backend, key_bits=16)
        with pytest.raises(ValueError, match="exceeds configured key width"):
            table.insert_many([1, 1 << 16])

    def test_signed_batch_matches_sequential(self, backend):
        """One signed batch equals the same inserts/deletes one by one."""
        keys = [7, 9, 7, 11, 9, 7, 1 << 40]
        signs = [1, 1, 1, -1, -1, 1, -1]
        batch = make_table(backend)
        batch.apply_many(keys, signs)
        sequential = make_table(backend)
        for key, sign in zip(keys, signs):
            if sign > 0:
                sequential.insert(key)
            else:
                sequential.delete(key)
        assert batch.to_bytes() == sequential.to_bytes()

    def test_signed_batch_validates_keys_and_lengths(self, backend):
        table = make_table(backend, key_bits=16)
        with pytest.raises(ValueError, match="non-negative"):
            table.apply_many([1, -2], [1, -1])
        with pytest.raises(ValueError, match="exceeds configured key width"):
            table.apply_many([1, 1 << 16], [-1, 1])
        with pytest.raises(ConfigError, match="2 keys but 1 signs"):
            table.apply_many([1, 2], [1])

    def test_mixed_inserts_and_batches_compose(self, backend):
        table = make_table(backend)
        table.insert(1)
        table.insert_many([2, 3])
        table.delete(2)
        table.delete_many([1, 3])
        assert table.is_empty()


@pytest.mark.parametrize("backend", BACKENDS)
class TestCapacityOverflow:
    def test_grid_batch_overflow_raises(self, backend):
        """The batch key pass hits the occupancy wall like the scalar one."""
        grid = ShiftedGridHierarchy(256, 1, seed=1, occupancy_bits=1)
        points = [(9,)] * 3  # occupancy field holds 2 co-located points
        with pytest.raises(CapacityExceeded, match="share a level-0 cell"):
            grid.level_keys(points, (0,))

    def test_grid_batch_at_capacity_succeeds(self, backend):
        grid = ShiftedGridHierarchy(256, 1, seed=1, occupancy_bits=1)
        keys = grid.level_keys([(9,), (9,)], (0,))[0]
        assert len(set(keys)) == 2  # distinct occurrence ranks

    def test_incremental_overflow_raises(self, backend):
        config = ProtocolConfig(
            delta=256, dimension=1, k=2, seed=3, occupancy_bits=1, backend=backend
        )
        sketch = IncrementalSketch(config)
        sketch.insert((10,))
        sketch.insert((10,))
        with pytest.raises(CapacityExceeded, match="occupancy field"):
            sketch.insert((10,))

    def test_incremental_bulk_overflow_raises(self, backend):
        config = ProtocolConfig(
            delta=256, dimension=1, k=2, seed=3, occupancy_bits=1, backend=backend
        )
        with pytest.raises(CapacityExceeded):
            IncrementalSketch(config).insert_all([(10,)] * 3)

    def test_incremental_insert_is_atomic_on_overflow(self, backend):
        """Regression: a mid-hierarchy overflow must not corrupt the sketch.

        (0,), (1,), (2,) occupy distinct level-0 cells but share the single
        coarse cell, so the third insert fails only at the coarse level —
        it must leave every level's table untouched.
        """
        config = ProtocolConfig(
            delta=4, dimension=1, k=1, seed=0, occupancy_bits=1,
            random_shift=False, backend=backend,
        )
        sketch = IncrementalSketch(config)
        sketch.insert((0,))
        sketch.insert((1,))
        before = sketch.encode()
        with pytest.raises(CapacityExceeded):
            sketch.insert((2,))
        assert sketch.n_points == 2
        assert sketch.encode() == before


class TestVectorizedGridFallback:
    """Regression: grids too wide for int64 must use the pure key path."""

    def test_huge_grid_falls_back(self):
        grid = ShiftedGridHierarchy((1 << 62) + 1, 1, seed=3, occupancy_bits=4)
        assert grid.max_level == 63
        assert grid._level_keys_vectorized([(5,)], (grid.max_level,)) is None

    def test_huge_grid_keys_are_consistent(self):
        # Near-2^63 shifts overflowed int64 in the vectorized pass before
        # the max_level guard; both points and keys must stay non-negative.
        grid = ShiftedGridHierarchy(
            (1 << 62) + 1, 1, seed=3, occupancy_bits=4, shift=((1 << 63) - 5,)
        )
        keys = grid.level_keys([((1 << 62),), (17,)], (grid.max_level,))
        assert all(key >= 0 for key in keys[grid.max_level])
        assert keys == grid.level_keys(
            [((1 << 62),), (17,)], (grid.max_level,)
        )


class TestSizingValidation:
    """Regression: non-positive cell counts fail fast with ConfigError."""

    def setup_method(self):
        self.config = ProtocolConfig(delta=1024, dimension=2, k=4, seed=5)
        self.grid = ShiftedGridHierarchy(1024, 2, 5)

    @pytest.mark.parametrize("cells", [0, -4, -1])
    def test_level_iblt_config_rejects_non_positive_cells(self, cells):
        with pytest.raises(ConfigError, match="positive cell count"):
            level_iblt_config(self.config, self.grid, 2, cells)

    def test_level_iblt_config_accepts_positive_cells(self):
        assert level_iblt_config(self.config, self.grid, 2, 8).cells == 8

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_iblt_config_rejects_non_positive_cells(self, backend):
        with pytest.raises(ConfigError):
            IBLT(IBLTConfig(cells=0, q=4), backend=backend)
        with pytest.raises(ConfigError):
            IBLT(IBLTConfig(cells=-8, q=4), backend=backend)


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="unknown IBLT backend"):
            get_backend("fpga")
        with pytest.raises(ConfigError, match="unknown IBLT backend"):
            ProtocolConfig(delta=256, dimension=1, k=2, backend="fpga")

    def test_auto_resolves_for_every_shape(self):
        wide = IBLTConfig(cells=16, q=4, key_bits=200)
        assert resolve_backend("auto", wide).name == "pure"
        narrow = IBLTConfig(cells=16, q=4, key_bits=64)
        assert resolve_backend(None, narrow).name in BACKENDS

    @pytest.mark.skipif("numpy" not in BACKENDS, reason="numpy unavailable")
    def test_explicit_numpy_rejects_wide_keys(self):
        wide = IBLTConfig(cells=16, q=4, key_bits=200)
        with pytest.raises(ConfigError, match="does not support"):
            resolve_backend("numpy", wide)
