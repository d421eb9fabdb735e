"""Wire format of the hierarchy sketch (the protocol's one message).

A :class:`HierarchySketch` is Alice's entire transmission in the one-round
protocol: one IBLT per grid level, finest first, preceded by a small header.
The per-level IBLT configs are *derived* from the shared
:class:`~repro.core.config.ProtocolConfig` (public coins), so only cell
contents travel.

Header layout::

    magic     8 bits   (0xR5 = 0xB5)
    version   8 bits
    n_points  varint   (|S_A|; lets the receiver check count balance)
    n_levels  varint
    then per level: level id (varint) followed by the level's IBLT cells.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import ProtocolConfig
from repro.core.grid import ShiftedGridHierarchy
from repro.errors import ConfigError, SerializationError
from repro.iblt.hashing import hash_with_salt
from repro.iblt.table import IBLT, IBLTConfig
from repro.net.bits import BitReader, BitWriter

MAGIC = 0xB5
VERSION = 1


def level_iblt_config(
    config: ProtocolConfig, grid: ShiftedGridHierarchy, level: int, cells: int | None = None
) -> IBLTConfig:
    """The (derived, never transmitted) IBLT config of one grid level."""
    resolved_cells = cells if cells is not None else config.cells_per_level
    if resolved_cells <= 0:
        # Catch bad sizing here, with a protocol-level message, instead of
        # deep inside a backend's array allocation.
        raise ConfigError(
            f"level {level} IBLT needs a positive cell count, got {resolved_cells}"
        )
    return IBLTConfig(
        cells=resolved_cells,
        q=config.q,
        key_bits=grid.key_bits(level),
        checksum_bits=config.checksum_bits,
        seed=hash_with_salt(level, config.seed ^ 0x1EB1),
    )


@dataclass
class LevelSketch:
    """One grid level's IBLT."""

    level: int
    table: IBLT


def build_level_sketches(
    config: ProtocolConfig,
    grid: ShiftedGridHierarchy,
    points,
) -> list[LevelSketch]:
    """Build every sketched level's IBLT from one pass over the points.

    The grid hashes all points into their per-level keys in a single pass
    (a :class:`~repro.core.grid.VectorKeyPass` when numpy is available,
    whose key arrays go straight to the backend), then each level's table
    ingests its key vector through the backend's batch path — the hot loop
    of the whole protocol, and the reason :class:`ProtocolConfig` carries a
    ``backend`` selection.
    """
    levels = config.sketch_levels
    key_pass = grid.vector_key_pass(points, levels)
    if key_pass is None:
        keys_by_level = grid.level_keys(points, levels)
    sketches = []
    for level in levels:
        table = IBLT(level_iblt_config(config, grid, level), backend=config.backend)
        if key_pass is not None:
            table.insert_many(key_pass.keys(level))
        else:
            table.insert_many(keys_by_level[level])
        sketches.append(LevelSketch(level, table))
    return sketches


@dataclass
class HierarchySketch:
    """The full one-round message: every sketched level, finest first."""

    n_points: int
    levels: list[LevelSketch]

    def to_bytes(self) -> bytes:
        """Serialise header + all level tables."""
        writer = BitWriter()
        writer.write_uint(MAGIC, 8)
        writer.write_uint(VERSION, 8)
        writer.write_varint(self.n_points)
        writer.write_varint(len(self.levels))
        for sketch in self.levels:
            writer.write_varint(sketch.level)
            sketch.table.write_to(writer)
        return writer.getvalue()

    @classmethod
    def from_bytes(
        cls,
        data: bytes,
        config: ProtocolConfig,
        grid: ShiftedGridHierarchy,
    ) -> "HierarchySketch":
        """Deserialise and re-derive each level's IBLT config."""
        reader = BitReader(data)
        if reader.read_uint(8) != MAGIC:
            raise SerializationError("bad magic byte; not a hierarchy sketch")
        if reader.read_uint(8) != VERSION:
            raise SerializationError("unsupported sketch version")
        n_points = reader.read_varint()
        n_levels = reader.read_varint()
        if n_levels > grid.max_level + 1:
            raise SerializationError(
                f"sketch claims {n_levels} levels, grid has {grid.max_level + 1}"
            )
        levels: list[LevelSketch] = []
        seen_levels: set[int] = set()
        for _ in range(n_levels):
            level = reader.read_varint()
            if not 0 <= level <= grid.max_level:
                raise SerializationError(f"level {level} out of range")
            if level in seen_levels:
                # A malformed payload can carry the same level twice; later
                # copies would silently shadow the first in the receiver's
                # level index, so reject at the wire boundary.
                raise SerializationError(
                    f"sketch carries level {level} twice"
                )
            seen_levels.add(level)
            table_config = level_iblt_config(config, grid, level)
            levels.append(
                LevelSketch(
                    level,
                    IBLT.read_from(reader, table_config, backend=config.backend),
                )
            )
        reader.expect_end()
        return cls(n_points=n_points, levels=levels)
