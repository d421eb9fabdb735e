"""Columnar full-state snapshots of an incremental sketch.

A snapshot is everything recovery needs to reconstruct the sketch
without touching a single point: per level, the IBLT cell columns
**and** the per-cell point counts.  The counts must be
persisted — they assign occurrence ranks to future inserts and are not
derivable from the hashed cell sums — and they ride the same
fixed-width columnar codec as the cells (cell ids in the key column,
counts zigzagged in the count column).

Layout (byte-aligned, one file, written to a temp name and published
atomically)::

    magic 0xCC | version | generation varint | config digest bytes |
    n_points varint | level count varint | per level: level varint,
    cell blob, occupied-cell count varint, counts blob | CRC32 (4 bytes,
    big-endian, over everything preceding)

The config digest pins the public coins the state was built under — a
store opened with a drifted config is refused before any cell is
loaded.  A snapshot that fails its CRC is *corruption* (unlike a WAL
tail there is nothing to truncate to), surfaced as
:class:`~repro.errors.StoreCorruptError`; so is a snapshot of another
layout version (version 1 carried a shard count and a per-shard loop),
which is refused rather than guessed at.
"""

from __future__ import annotations

import zlib

from repro.core.config import ProtocolConfig
from repro.errors import ConfigError, SerializationError, StoreCorruptError
from repro.net.bits import BitReader, BitWriter
from repro.net.codec import decode_cells_fixed, encode_cells_fixed
from repro.core.incremental import IncrementalSketch

SNAPSHOT_MAGIC = 0xCC
SNAPSHOT_VERSION = 2

#: Unused checksum column width for the counts blob.
_PAD_BITS = 1


def count_width(n_points: int) -> int:
    """Bits per cell-count field of a snapshot's level blob: a table holds
    ``n_points`` keys, so a (zigzag-mapped) count never exceeds
    ``2 * n_points``."""
    return max(1, (2 * n_points).bit_length())


def _count_bits(occupancy_bits: int) -> int:
    """Width of a zigzagged per-cell count (≤ ``2^occ`` ⇒ zigzag ≤ ``2^(occ+1)``)."""
    return occupancy_bits + 2


def encode_snapshot(
    sketch: IncrementalSketch, generation: int, digest: str
) -> bytes:
    """Serialise the sketch's full state at ``generation``."""
    writer = BitWriter()
    writer.write_uint(SNAPSHOT_MAGIC, 8)
    writer.write_uint(SNAPSHOT_VERSION, 8)
    writer.write_varint(generation)
    writer.write_bytes(digest.encode("ascii"))
    writer.write_varint(sketch.n_points)
    levels = sketch.level_sketches()
    writer.write_varint(len(levels))
    width = count_width(sketch.n_points)
    count_bits = _count_bits(sketch.grid.occupancy_bits)
    for level_sketch in levels:
        level, table = level_sketch.level, level_sketch.table
        writer.write_varint(level)
        counts, key_sums, check_sums = table.rows_arrays()
        writer.write_bytes(
            encode_cells_fixed(
                counts, key_sums, check_sums,
                width, table.config.key_bits, table.config.checksum_bits,
            )
        )
        occupancy = sketch.level_cell_counts(level)
        cell_ids = sorted(occupancy)
        writer.write_varint(len(cell_ids))
        writer.write_bytes(
            encode_cells_fixed(
                list(map(occupancy.__getitem__, cell_ids)), cell_ids,
                [0] * len(cell_ids),
                count_bits, table.config.key_bits, _PAD_BITS,
            )
        )
    body = writer.getvalue()
    return body + zlib.crc32(body).to_bytes(4, "big")


def load_snapshot(
    data: bytes, config: ProtocolConfig, digest: str
) -> tuple[IncrementalSketch, int]:
    """Rebuild a sketch from snapshot bytes; returns ``(sketch, generation)``.

    Raises :class:`~repro.errors.StoreCorruptError` on damage or an
    unknown layout version, and :class:`~repro.errors.ConfigError` when
    the snapshot was written under a different protocol config (digest
    mismatch).
    """
    if len(data) < 4 or int.from_bytes(data[-4:], "big") != zlib.crc32(data[:-4]):
        raise StoreCorruptError(
            "snapshot fails its CRC — the store is damaged beyond recovery"
        )
    try:
        reader = BitReader(data[:-4])
        if reader.read_uint(8) != SNAPSHOT_MAGIC:
            raise StoreCorruptError("bad snapshot magic byte")
        version = reader.read_uint(8)
        if version != SNAPSHOT_VERSION:
            raise StoreCorruptError(
                f"snapshot layout version {version}, this build reads "
                f"{SNAPSHOT_VERSION}"
            )
        generation = reader.read_varint()
        recorded = reader.read_bytes().decode("ascii", "replace")
        if recorded != digest:
            raise ConfigError(
                f"store was written under config digest {recorded}, "
                f"this config digests to {digest} — refusing to load"
            )
        sketch = IncrementalSketch(config)
        n_points = reader.read_varint()
        n_levels = reader.read_varint()
        expected_levels = list(config.sketch_levels)
        if n_levels != len(expected_levels):
            raise StoreCorruptError(
                f"snapshot carries {n_levels} levels, config sketches "
                f"{len(expected_levels)}"
            )
        width = count_width(n_points)
        count_bits = _count_bits(sketch.grid.occupancy_bits)
        tables = {ls.level: ls.table for ls in sketch.level_sketches()}
        for expected_level in expected_levels:
            level = reader.read_varint()
            if level != expected_level:
                raise StoreCorruptError(
                    f"snapshot level {level} where {expected_level} expected"
                )
            cfg = tables[level].config
            blob = reader.read_bytes()
            stride = width + cfg.key_bits + cfg.checksum_bits
            if len(blob) != (cfg.cells * stride + 7) // 8:
                raise StoreCorruptError(
                    f"snapshot level {level} cell blob has a wrong size"
                )
            counts, key_sums, check_sums = decode_cells_fixed(
                blob, cfg.cells, width, cfg.key_bits, cfg.checksum_bits
            )
            occupied = reader.read_varint()
            counts_blob = reader.read_bytes()
            stride = count_bits + cfg.key_bits + _PAD_BITS
            if len(counts_blob) != (occupied * stride + 7) // 8:
                raise StoreCorruptError(
                    f"snapshot level {level} counts blob has a wrong size"
                )
            cell_counts, cell_ids, _ = decode_cells_fixed(
                counts_blob, occupied, count_bits, cfg.key_bits, _PAD_BITS
            )
            if hasattr(cell_ids, "tolist"):  # numpy columns -> Python ints
                cell_ids, cell_counts = cell_ids.tolist(), cell_counts.tolist()
            sketch.restore_level(
                level, counts, key_sums, check_sums,
                dict(zip(cell_ids, cell_counts)),
            )
        sketch.restore_n_points(n_points)
        reader.expect_end()
    except SerializationError as exc:
        raise StoreCorruptError(f"undecodable snapshot: {exc}") from exc
    return sketch, generation
