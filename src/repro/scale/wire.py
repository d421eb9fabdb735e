"""The sharded frame: the outer message enclosing one sketch per shard.

Each shard's payload is an ordinary :class:`~repro.core.sketch.
HierarchySketch` (fixed-width, length-prefixed level blobs), written and
parsed by :mod:`repro.core.sketch`; this module only frames them.

Layout::

    magic            8 bits   (0xB6)
    version          8 bits   (2)
    shards           varint
    partition_level  varint
    directory        varint per shard: |S_A ∩ shard|
    payloads         length-prefixed per-shard sketch bytes

All fields are byte-aligned, so payloads move through the reader's bulk
slice path.
"""

from __future__ import annotations

from repro.net.bits import BitWriter

#: Outer frame constants (the sharded message enclosing shard payloads).
SHARD_MAGIC = 0xB6
SHARD_VERSION = 2


def write_frame(
    shards: int, partition_level: int, counts: list[int], payloads: list[bytes]
) -> bytes:
    """Frame per-shard payloads into one sharded message.

    The single authority for the outer layout — both the from-scratch
    encoder and the incremental sketch emit through here, which is what
    keeps their bytes bit-identical.
    """
    writer = BitWriter()
    writer.write_uint(SHARD_MAGIC, 8)
    writer.write_uint(SHARD_VERSION, 8)
    writer.write_varint(shards)
    writer.write_varint(partition_level)
    for count in counts:
        writer.write_varint(count)
    for payload in payloads:
        writer.write_bytes(payload)
    return writer.getvalue()
