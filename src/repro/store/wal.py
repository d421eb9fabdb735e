"""The append-only write-ahead log: CRC-framed key-delta records.

One record per insert/remove **batch**, so a point update costs
``O(levels)`` logged deltas — cells touched, never tables.  Each delta
is a packed protocol key ``(cell_id << occupancy_bits) | rank`` with a
±1 sign.  A record is grouped per ``(shard, level)``, and replay lands
each group as one signed IBLT batch plus one pass over the per-cell
counts: the cell algebra (counts add, sums xor) makes the table update
order-free, and only the counts read the rank chain, in the log order
a group preserves by construction.

Record layout (byte-aligned, appended verbatim)::

    magic 0xCB | version | generation varint | kind | payload bytes
    (varint length + data) | CRC32 (4 bytes, big-endian, over all
    preceding record bytes)

The generation tags which snapshot epoch a record extends: recovery
replays only records matching the loaded snapshot's generation and
skips older ones (their effects are already inside the snapshot).  A
scan stops at the first record that fails to frame or checksum — the
torn tail a mid-append crash leaves — and reports the clean prefix
length so recovery can truncate it.

Delta payloads (``KIND_DELTAS``) pack per-``(shard, level)`` groups
with the shared columnar codec: signs ride the zigzag count column,
keys the key column, at the exact per-level key width the sketch
derives — the same bit layout discipline as the wire format.
"""

from __future__ import annotations

import zlib

from repro.errors import SerializationError, StoreCorruptError
from repro.net.bits import BitReader, BitWriter
from repro.net.codec import decode_cells_fixed, encode_cells_fixed

WAL_MAGIC = 0xCB
WAL_VERSION = 1

#: Record kinds.  One today; the byte exists so future record types
#: (per-peer watermarks, tombstones) extend the log without reframing.
KIND_DELTAS = 1

#: Width of the zigzag-encoded ±1 sign column (zigzag(+1)=2, zigzag(-1)=1).
_SIGN_BITS = 2
#: Unused checksum column (the codec requires one; 1 bit of zeros).
_PAD_BITS = 1


def encode_record(generation: int, kind: int, payload: bytes) -> bytes:
    """Frame one WAL record (header + payload + trailing CRC32)."""
    writer = BitWriter()
    writer.write_uint(WAL_MAGIC, 8)
    writer.write_uint(WAL_VERSION, 8)
    writer.write_varint(generation)
    writer.write_uint(kind, 8)
    writer.write_bytes(payload)
    body = writer.getvalue()
    return body + zlib.crc32(body).to_bytes(4, "big")


def scan_records(data: bytes) -> tuple[list[tuple[int, int, bytes]], int]:
    """Parse every clean record; stop at the first torn/corrupt byte.

    Returns ``([(generation, kind, payload), ...], clean_length)`` where
    ``clean_length`` is the byte offset just past the last record that
    framed and checksummed — everything beyond it is the torn tail a
    crash left, and recovery truncates it.  Never raises on bad bytes:
    a WAL tail cannot be "corrupt beyond recovery", only short.
    """
    records: list[tuple[int, int, bytes]] = []
    offset = 0
    total = len(data)
    while offset < total:
        reader = BitReader(data[offset:])
        try:
            if reader.read_uint(8) != WAL_MAGIC:
                break
            if reader.read_uint(8) != WAL_VERSION:
                break
            generation = reader.read_varint()
            kind = reader.read_uint(8)
            payload = reader.read_bytes()
        except SerializationError:
            break
        body_len = reader.bits_consumed // 8
        end = offset + body_len + 4
        if end > total:
            break
        crc = int.from_bytes(data[offset + body_len:end], "big")
        if crc != zlib.crc32(data[offset:offset + body_len]):
            break
        records.append((generation, kind, payload))
        offset = end
    return records, offset


def encode_deltas(sketch, groups) -> bytes:
    """Pack one batch's planned deltas into a ``KIND_DELTAS`` payload.

    ``groups`` is an ordered ``[(shard, level, keys, signs), ...]`` — the
    sketch's plan of a batch, order preserved within each group (rank
    chains).  ``sketch`` supplies the per-level key widths.
    """
    writer = BitWriter()
    writer.write_varint(len(groups))
    for shard, level, keys, signs in groups:
        writer.write_varint(shard)
        writer.write_varint(level)
        writer.write_varint(len(keys))
        blob = encode_cells_fixed(
            signs, keys, [0] * len(keys),
            _SIGN_BITS, sketch.key_bits(level), _PAD_BITS,
        )
        writer.write_bytes(blob)
    return writer.getvalue()


def decode_deltas(sketch, payload: bytes) -> list[tuple]:
    """Unpack a ``KIND_DELTAS`` payload into ``(shard, level, keys, signs)``
    groups — the shape :meth:`ShardedIncrementalSketch.apply` lands.

    Validates against the live sketch's shape — a record addressing an
    unknown shard or level means the log belongs to a different config
    and the store refuses it typed.
    """
    shards = len(sketch.shard_sketches())
    levels = set(sketch.sketch_levels())
    groups = []
    try:
        reader = BitReader(payload)
        n_groups = reader.read_varint()
        for _ in range(n_groups):
            shard = reader.read_varint()
            level = reader.read_varint()
            count = reader.read_varint()
            blob = reader.read_bytes()
            if shard >= shards or level not in levels:
                raise StoreCorruptError(
                    f"WAL delta group addresses shard {shard} level {level}, "
                    "which this config does not maintain"
                )
            key_bits = sketch.key_bits(level)
            expected = (count * (_SIGN_BITS + key_bits + _PAD_BITS) + 7) // 8
            if len(blob) != expected:
                raise StoreCorruptError(
                    f"WAL delta blob holds {len(blob)} bytes, "
                    f"{count} deltas need {expected}"
                )
            signs, keys, _ = decode_cells_fixed(
                blob, count, _SIGN_BITS, key_bits, _PAD_BITS
            )
            bad = set(signs.tolist() if hasattr(signs, "tolist") else signs)
            bad -= {1, -1}
            if bad:
                raise StoreCorruptError(f"WAL delta sign {min(bad)} is not ±1")
            groups.append((shard, level, keys, signs))
        reader.expect_end()
    except SerializationError as exc:
        raise StoreCorruptError(f"undecodable WAL delta payload: {exc}") from exc
    return groups
