"""Wire format of the hierarchy sketch (the protocol's one message).

A :class:`HierarchySketch` is Alice's entire transmission in the one-round
protocol: one IBLT per grid level, finest first, preceded by a small
header.  The per-level IBLT configs are *derived* from the shared
:class:`~repro.core.config.ProtocolConfig` (public coins), so only cell
contents travel.

Layout (every field byte-aligned)::

    magic        8 bits   (0xB5)
    version      8 bits   (2)
    n_points     varint   (|S_A|; lets the receiver check count balance)
    n_levels     varint
    per level:
        level id     varint
        count width  8 bits   (1..63: bit length of the level's largest
                              zigzag-mapped cell count)
        cells        length-prefixed bytes: the fixed-width cell blob of
                     :func:`repro.net.codec.encode_cells_fixed`

Each cell spends exactly ``count_width + key_bits + checksum_bits`` bits,
so a level's blob length is fixed by its header.  :meth:`HierarchySketch.
from_bytes` checks every header and blob length up front, then keeps the
blobs packed: a level's cells are unpacked the first time its table is
used, and Bob's level search unpacks a copy of only the levels it probes
(:meth:`LevelSketch.table_copy`), leaving the parsed sketch unchanged.

The level tables are independent, so :func:`build_level_sketches` builds
them as one task per level, on threads for a large numpy encode; the
bytes do not depend on how the tasks were scheduled.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.core.config import ProtocolConfig
from repro.core.grid import ShiftedGridHierarchy
from repro.errors import ConfigError, SerializationError
from repro.iblt.backends import available_backends
from repro.iblt.hashing import hash_with_salt
from repro.iblt.table import IBLT, IBLTConfig
from repro.net.bits import BitReader, BitWriter
from repro.net.codec import (
    decode_cells_fixed,
    encode_cells_fixed,
    fixed_count_width,
)

MAGIC = 0xB5
VERSION = 2

#: Widest count field the fixed-width codec packs natively.
MAX_COUNT_WIDTH = 63


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


class LevelSketch:
    """One grid level's IBLT.

    Built ones hold their table.  Parsed ones hold the level's count width
    and cell blob until :attr:`table` is first read, which unpacks them.
    """

    __slots__ = ("level", "_table", "_packed")

    def __init__(self, level: int, table: IBLT | None = None, packed=None):
        self.level = level
        self._table = table
        #: ``(config, count_width, blob, backend)`` until unpacked.
        self._packed = packed

    @property
    def table(self) -> IBLT:
        """The level's IBLT, unpacked from its blob on first use."""
        if self._table is None:
            self._table = self._unpack()
            self._packed = None
        return self._table

    def table_copy(self) -> IBLT:
        """A new IBLT of the level's cells, owned by the caller.

        Unpacked from the blob while the level is still packed, else a copy
        of :attr:`table`; either way :attr:`table` is left as it was, so the
        caller may update the copy in place.
        """
        if self._table is None:
            return self._unpack()
        return self._table.copy()

    def _unpack(self) -> IBLT:
        config, width, blob, backend = self._packed
        return IBLT.from_columns(
            config,
            *decode_cells_fixed(
                blob, config.cells, width, config.key_bits,
                config.checksum_bits,
            ),
            backend=backend,
        )

    def wire_fields(self) -> tuple[int, bytes]:
        """``(count width, cell blob)`` encoded from the table."""
        counts, key_sums, check_sums = self.table.rows_arrays()
        width = fixed_count_width(counts)
        if width > MAX_COUNT_WIDTH:
            raise SerializationError(
                f"level {self.level} counts need {width} bits, "
                f"the sketch carries at most {MAX_COUNT_WIDTH}"
            )
        config = self.table.config
        return width, encode_cells_fixed(
            counts, key_sums, check_sums,
            width, config.key_bits, config.checksum_bits,
        )


#: Fewest points whose level tables are built on threads.  Serial against
#: 2 threads on 2 vCPUs (numpy, d=2, k=16, medians of alternating runs):
#: threads lose at n=4,000 (15.0 vs 15.4 ms) and n=1e4 (37.9 vs 39.7 ms),
#: and win at n=2e4 (78.0 vs 67.8 ms) and n=1e5 (507 vs 305 ms).
FAN_OUT_MIN_POINTS = 20_000


def fan_out_width(config: ProtocolConfig, n_points: int) -> int:
    """How many threads :func:`build_level_sketches` builds levels on.

    ``min(levels, cpu_count)`` for the numpy backend, whose array work
    releases the GIL; 1 (inline) for the pure backend, which threads
    cannot speed up, and below :data:`FAN_OUT_MIN_POINTS`, where opening a
    pool costs more than it saves.  Scheduling never reaches the wire.
    """
    numpy = config.backend == "numpy" or (
        config.backend == "auto" and "numpy" in available_backends()
    )
    if n_points < FAN_OUT_MIN_POINTS or not numpy:
        return 1
    return min(len(config.sketch_levels), os.cpu_count() or 1)


def _build_level(task) -> LevelSketch:
    """One level's table from that level's keys: the fan-out's task.

    Reads its arguments and returns a new sketch; it shares nothing
    mutable with the other levels' tasks (repro-lint RPL007).
    """
    config, grid, level, level_keys = task
    table = IBLT(level_iblt_config(config, grid, level), backend=config.backend)
    table.insert_many(level_keys(level))
    return LevelSketch(level, table)


def build_level_sketches(
    config: ProtocolConfig,
    grid: ShiftedGridHierarchy,
    points,
) -> list[LevelSketch]:
    """Build every sketched level's IBLT from one pass over the points.

    The grid validates, shifts and sorts the points once (a
    :class:`~repro.core.grid.VectorKeyPass` when numpy is available, whose
    key arrays go straight to the backend); each level's table then
    derives its keys and ingests them through the backend's batch path as
    one independent task.  The tasks run on a thread pool
    :func:`fan_out_width` wide, opened and closed within the call, or
    inline at width 1.  Either way the tables, and so the payload, are
    identical.
    """
    levels = config.sketch_levels
    key_pass = grid.vector_key_pass(points, levels)
    if key_pass is not None:
        level_keys = key_pass.keys
    else:
        level_keys = grid.level_keys(points, levels).__getitem__
    tasks = [(config, grid, level, level_keys) for level in levels]
    width = fan_out_width(config, len(points))
    if width == 1:
        return [_build_level(task) for task in tasks]
    with ThreadPoolExecutor(max_workers=width) as pool:
        return list(pool.map(_build_level, tasks))


@dataclass
class HierarchySketch:
    """The full one-round message: every sketched level, finest first."""

    n_points: int
    levels: list[LevelSketch]

    def to_bytes(self) -> bytes:
        """Serialise header + every level's width and cell blob."""
        writer = BitWriter()
        writer.write_uint(MAGIC, 8)
        writer.write_uint(VERSION, 8)
        writer.write_varint(self.n_points)
        writer.write_varint(len(self.levels))
        for sketch in self.levels:
            width, blob = sketch.wire_fields()
            writer.write_varint(sketch.level)
            writer.write_uint(width, 8)
            writer.write_bytes(blob)
        return writer.getvalue()

    @classmethod
    def from_bytes(
        cls,
        data: bytes,
        config: ProtocolConfig,
        grid: ShiftedGridHierarchy,
    ) -> "HierarchySketch":
        """Validate every header and blob length; unpack no cells.

        Each level's IBLT config is re-derived from the public coins, and
        its blob must hold exactly ``ceil(cells * (count_width + key_bits +
        checksum_bits) / 8)`` bytes.  The tables are unpacked lazily (see
        :class:`LevelSketch`).
        """
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
            width = reader.read_uint(8)
            if not 1 <= width <= MAX_COUNT_WIDTH:
                raise SerializationError(
                    f"level {level} count width {width} is outside "
                    f"[1, {MAX_COUNT_WIDTH}]"
                )
            blob = reader.read_bytes()
            table_config = level_iblt_config(config, grid, level)
            stride = width + table_config.key_bits + table_config.checksum_bits
            expected = (table_config.cells * stride + 7) // 8
            if len(blob) != expected:
                raise SerializationError(
                    f"level {level} cell blob holds {len(blob)} bytes, "
                    f"{table_config.cells} cells need {expected}"
                )
            levels.append(LevelSketch(
                level, packed=(table_config, width, blob, config.backend)
            ))
        reader.expect_end()
        return cls(n_points=n_points, levels=levels)
