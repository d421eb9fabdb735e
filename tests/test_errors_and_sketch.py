"""Unit tests for the error hierarchy and the sketch wire-format helpers."""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.grid import ShiftedGridHierarchy
from repro.core.sketch import HierarchySketch, LevelSketch, level_iblt_config
from repro.errors import (
    BackendUnavailableError,
    CapacityExceeded,
    ChannelError,
    ConfigError,
    DecodeFailure,
    ReconciliationFailure,
    ReproError,
    SerializationError,
)
from repro.iblt.table import IBLT


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc_type", [
        ConfigError, SerializationError, DecodeFailure,
        ReconciliationFailure, ChannelError, CapacityExceeded,
        BackendUnavailableError,
    ])
    def test_all_derive_from_repro_error(self, exc_type):
        assert issubclass(exc_type, ReproError)

    def test_config_error_is_value_error(self):
        """Callers using stdlib idioms still catch config problems."""
        assert issubclass(ConfigError, ValueError)

    def test_backend_unavailable_exported_from_package_root(self):
        import repro

        assert repro.BackendUnavailableError is BackendUnavailableError
        assert "BackendUnavailableError" in repro.__all__

    def test_typed_error_migration_keeps_value_error_compat(self):
        """The PR-7 ValueError -> ConfigError migrations must not break
        callers that catch ValueError (ConfigError subclasses it)."""
        from repro.iblt.hashing import HashFamily, splitmix64

        with pytest.raises(ValueError):
            splitmix64(-1)
        with pytest.raises(ValueError):
            HashFamily(q=1, cells=10, seed=0)
        config = ProtocolConfig(delta=64, dimension=1, k=2, seed=1)
        table = IBLT(level_iblt_config(
            config, ShiftedGridHierarchy(64, 1, 1), config.sketch_levels[0]
        ))
        with pytest.raises(ValueError):
            table.insert(-5)
        # And the same failures remain catchable as typed ConfigError.
        with pytest.raises(ConfigError):
            splitmix64(-1)
        with pytest.raises(ConfigError):
            table.insert(-5)

    def test_decode_failure_carries_diagnostics(self):
        failure = DecodeFailure("stalled", recovered=7, remaining=3)
        assert failure.recovered == 7
        assert failure.remaining == 3
        assert "stalled" in str(failure)

    def test_catching_base_catches_everything(self):
        with pytest.raises(ReproError):
            raise CapacityExceeded("full")


class TestLevelConfigDerivation:
    def setup_method(self):
        self.config = ProtocolConfig(delta=1024, dimension=2, k=4, seed=5)
        self.grid = ShiftedGridHierarchy(1024, 2, 5)

    def test_levels_get_distinct_seeds(self):
        seeds = {
            level_iblt_config(self.config, self.grid, level).seed
            for level in self.config.sketch_levels
        }
        assert len(seeds) == len(self.config.sketch_levels)

    def test_key_bits_shrink_with_level(self):
        widths = [
            level_iblt_config(self.config, self.grid, level).key_bits
            for level in self.config.sketch_levels
        ]
        assert widths == sorted(widths, reverse=True)

    def test_cells_override(self):
        config = level_iblt_config(self.config, self.grid, 3, cells=64)
        assert config.cells == 64

    def test_default_cells_from_protocol_config(self):
        config = level_iblt_config(self.config, self.grid, 3)
        assert config.cells == self.config.cells_per_level


class TestHierarchySketchWire:
    def setup_method(self):
        self.config = ProtocolConfig(delta=256, dimension=1, k=2, seed=9)
        self.grid = ShiftedGridHierarchy(256, 1, 9)

    def build(self, levels):
        sketches = [
            LevelSketch(level, IBLT(level_iblt_config(self.config, self.grid, level)))
            for level in levels
        ]
        return HierarchySketch(n_points=5, levels=sketches)

    def test_roundtrip_subset_of_levels(self):
        sketch = self.build([0, 4, 8])
        restored = HierarchySketch.from_bytes(
            sketch.to_bytes(), self.config, self.grid
        )
        assert [s.level for s in restored.levels] == [0, 4, 8]
        assert restored.n_points == 5

    def test_too_many_levels_rejected(self):
        sketch = self.build(list(range(self.grid.max_level + 1)))
        payload = bytearray(sketch.to_bytes())
        # Patch the level-count varint (byte 2 after magic+version given
        # n_points=5 < 128 occupies one byte).
        payload[3] = 200
        with pytest.raises(SerializationError):
            HierarchySketch.from_bytes(bytes(payload), self.config, self.grid)
