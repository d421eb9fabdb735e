"""The shared wire codec for IBLT cell payloads — vectorized, bit-identical.

Every sketch payload in this library serialises IBLT cells in one of two
layouts:

**v1 varint layout** (one-round sketches, the adaptive exchange, strata
estimators — via :meth:`repro.iblt.table.IBLT.write_to`)::

    per cell:  svarint(count) | uint(key_sum, key_bits) | uint(check_sum, checksum_bits)

**v2 fixed-width layout** (the sharded frame, :mod:`repro.scale.wire`)::

    per cell:  uint(zigzag(count), count_width) | uint(key_sum, key_bits) | uint(check_sum, checksum_bits)

Historically v1 was produced and parsed field-at-a-time through Python
:class:`~repro.net.bits.BitWriter` / :class:`~repro.net.bits.BitReader`
calls — roughly three Python-level calls per cell, the dominant remaining
CPU cost of a sync in the serve layer — while v2 kept a private numpy
copy inside ``scale/wire.py``.  This module is now the single home of
both: scalar reference functions (the bit-exact spec, always available)
and numpy fast paths that pack / unpack whole tables columnarly via
``np.packbits`` / ``np.unpackbits``.

The fast paths are **bit-identical** to the scalar reference — golden
transcripts do not move — and fall back to the scalar functions whenever
they cannot guarantee that (no numpy, fields wider than 64 bits, values
that do not fit native dtypes, adversarial varint chains).  Fallbacks re-parse from the original stream position, so the
error type, message, and consumed-bit count on malformed payloads are
byte-for-byte the reference's.  The codec's differential tests check
both properties against the reference.

Varint vectorization
--------------------
A zigzag-mapped count spends one 8-bit LEB128 group per 7 payload bits,
so a cell's width is only *per-table* constant when every count fits one
group (|count| <= 63 — every subtracted table, and any sketch whose
per-cell load stays small).  That common case is a pure fixed-stride
bit-matrix.  Dense tables with multi-group counts still vectorize: the
writer computes each count's group length arithmetically and scatters
fields at cumulative bit offsets; the reader discovers group lengths
with a cheap continuation-bit walk (a couple of integer ops per cell —
far less than the three field parses it replaces) and then gathers all
fields vectorized.
"""

from __future__ import annotations

try:  # soft dependency: the scalar reference paths run without numpy
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

from repro.errors import SerializationError
from repro.net.bits import BitReader, BitWriter, zigzag_decode, zigzag_encode

#: The scalar reader rejects varints longer than 1024 bits (147 groups);
#: chains at or past the limit fall back so the reference error fires.
_VARINT_MAX_GROUPS = 146

#: Valid zigzag counts fit uint64 in at most 10 groups; longer (or
#: 10-group values that overflow uint64) chains are parsed by the scalar
#: reference, which handles arbitrary-precision counts.
_VARINT_U64_GROUPS = 9


def _vector_ready(key_bits: int, check_bits: int) -> bool:
    return (
        _np is not None
        and 0 < key_bits <= 64
        and 0 < check_bits <= 64
    )


def _columns(counts, key_sums, check_sums):
    """The three cell columns as (int64, uint64, uint64) arrays.

    Returns ``None`` when the values do not fit the native widths (huge
    Python ints, foreign dtypes) — the caller then takes the scalar path,
    which supports arbitrary ints and raises the reference errors.
    """
    try:
        if isinstance(counts, _np.ndarray) and counts.dtype.kind not in "iu":
            return None
        if isinstance(key_sums, _np.ndarray) and key_sums.dtype.kind not in "iu":
            return None
        if isinstance(check_sums, _np.ndarray) and check_sums.dtype.kind not in "iu":
            return None
        c = _np.asarray(counts, dtype=_np.int64)
        k = _np.asarray(key_sums, dtype=_np.uint64)
        s = _np.asarray(check_sums, dtype=_np.uint64)
    except (OverflowError, TypeError, ValueError):
        return None
    return c, k, s


def _fields_fit(keys, checks, key_bits: int, check_bits: int) -> bool:
    """True when every key/checksum fits its declared width (the scalar
    writer raises on the first that does not; the fallback reproduces it)."""
    if keys.size == 0:
        return True
    if key_bits < 64 and bool((keys >> _np.uint64(key_bits)).any()):
        return False
    if check_bits < 64 and bool((checks >> _np.uint64(check_bits)).any()):
        return False
    return True


def _writable_columns(counts, key_sums, check_sums, key_bits, check_bits):
    """The columns as native arrays when the vector writers may encode them.

    ``None`` demands the scalar fallback: values outside native widths,
    fields wider than declared (the reference writer raises there), or
    counts so large their zigzag would overflow int64 arithmetic.  The
    one shared gate of both cell layouts' write paths — v1 varint and v2
    fixed-width must never drift apart on when they vectorize.
    """
    cols = _columns(counts, key_sums, check_sums)
    if (
        cols is None
        or not _fields_fit(cols[1], cols[2], key_bits, check_bits)
        or (cols[0].size and bool((_np.abs(cols[0]) >= 2**62).any()))
    ):
        return None
    return cols


def _field_bits(values, width: int) -> "_np.ndarray":
    """Each value's low ``width`` bits as a ``(n, width)`` 0/1 matrix.

    One C pass: big-endian byte view + ``np.unpackbits`` — no per-bit
    Python arithmetic, no 8-byte-per-bit intermediates.
    """
    raw = values.astype(">u8").view(_np.uint8).reshape(-1, 8)
    return _np.unpackbits(raw, axis=1)[:, 64 - width:]


def _bits_to_uint64(bits) -> "_np.ndarray":
    """Inverse of :func:`_field_bits`: a ``(n, width)`` 0/1 matrix as uint64."""
    n, width = bits.shape
    padded = _np.zeros((n, 64), dtype=_np.uint8)
    padded[:, 64 - width:] = bits
    return (
        _np.packbits(padded, axis=1).view(">u8").ravel().astype(_np.uint64)
    )


def _pack_fixed_matrix(fields) -> "_np.ndarray":
    """Fixed-stride cells as one flat 0/1 bit array (row = cell).

    ``fields`` is a sequence of ``(values, width)`` columns, uint64-castable,
    already validated to fit their widths.
    """
    columns = [
        _field_bits(values.astype(_np.uint64), width)
        for values, width in fields
    ]
    return _np.concatenate(columns, axis=1).reshape(-1)


def _matrix_field(matrix, offset: int, width: int) -> "_np.ndarray":
    """One fixed-width column of a ``(cells, stride)`` bit matrix, as uint64."""
    return _bits_to_uint64(matrix[:, offset:offset + width])


def _scatter_field(bits, starts, values, width: int) -> None:
    """Write a fixed-width field of every cell at per-cell bit offsets."""
    idx = starts[:, None] + _np.arange(width, dtype=_np.int64)[None, :]
    bits[idx] = _field_bits(values, width)


def _gather_field(bits, starts, width: int) -> "_np.ndarray":
    """Read a fixed-width field of every cell at per-cell bit offsets."""
    idx = starts[:, None] + _np.arange(width, dtype=_np.int64)[None, :]
    return _bits_to_uint64(bits[idx])


def _zigzag_vec(counts) -> "_np.ndarray":
    """Vectorized :func:`~repro.net.bits.zigzag_encode` over int64 counts."""
    return _np.where(counts >= 0, 2 * counts, -2 * counts - 1).astype(_np.uint64)


def _unzigzag_vec(zig) -> "_np.ndarray":
    """Vectorized :func:`~repro.net.bits.zigzag_decode` (uint64 -> int64)."""
    half = (zig >> _np.uint64(1)).astype(_np.int64)
    return _np.where(zig & _np.uint64(1) == 0, half, -half - 1)


# --------------------------------------------------------------- v1 varint


def write_cells_scalar(
    writer: BitWriter, counts, key_sums, check_sums, key_bits: int, check_bits: int
) -> None:
    """The field-at-a-time reference writer (the v1 wire spec)."""
    for count, key, check in zip(counts, key_sums, check_sums):
        writer.write_svarint(int(count))
        writer.write_uint(int(key), key_bits)
        writer.write_uint(int(check), check_bits)


def write_cells(
    writer: BitWriter, counts, key_sums, check_sums, key_bits: int, check_bits: int
) -> None:
    """Serialise parallel cell columns in the v1 varint layout.

    Bit-identical to :func:`write_cells_scalar`; vectorized whenever numpy
    is available and the columns fit native widths.
    """
    if not _vector_ready(key_bits, check_bits):
        write_cells_scalar(
            writer, counts, key_sums, check_sums, key_bits, check_bits
        )
        return
    cols = _writable_columns(counts, key_sums, check_sums, key_bits, check_bits)
    if cols is None:
        write_cells_scalar(
            writer, counts, key_sums, check_sums, key_bits, check_bits
        )
        return
    c, k, s = cols
    if c.size == 0:
        return
    zig = _zigzag_vec(c)
    groups = _np.ones(c.shape, dtype=_np.int64)
    for g in range(1, 10):
        groups += zig >= _np.uint64(1 << (7 * g))
    if int(groups.max()) == 1:
        # Every count is a single LEB128 group (|count| <= 63): the whole
        # table is one fixed-stride bit matrix.
        writer.write_bits(
            _pack_fixed_matrix(((zig, 8), (k, key_bits), (s, check_bits)))
        )
        return
    # Mixed group lengths: scatter each field at cumulative bit offsets.
    fixed = key_bits + check_bits
    record = 8 * groups + fixed
    offs = _np.zeros(c.size, dtype=_np.int64)
    _np.cumsum(record[:-1], out=offs[1:])
    bits = _np.zeros(int(offs[-1] + record[-1]), dtype=_np.uint8)
    for g in range(int(groups.max())):
        sel = _np.flatnonzero(groups > g)
        group = (zig[sel] >> _np.uint64(7 * g)) & _np.uint64(0x7F)
        group |= (groups[sel] - 1 > g).astype(_np.uint64) << _np.uint64(7)
        _scatter_field(bits, offs[sel] + 8 * g, group, 8)
    _scatter_field(bits, offs + 8 * groups, k, key_bits)
    _scatter_field(bits, offs + 8 * groups + key_bits, s, check_bits)
    writer.write_bits(bits)


def read_cells_scalar(
    reader: BitReader, cells: int, key_bits: int, check_bits: int
):
    """The field-at-a-time reference parser (the v1 wire spec)."""
    counts: list[int] = []
    key_sums: list[int] = []
    check_sums: list[int] = []
    for _ in range(cells):
        counts.append(reader.read_svarint())
        key_sums.append(reader.read_uint(key_bits))
        check_sums.append(reader.read_uint(check_bits))
    return counts, key_sums, check_sums


def _scan_varint_groups(reader: BitReader, cells: int, fixed_bits: int):
    """Per-cell LEB128 group counts, by walking continuation bits.

    A couple of integer operations per cell — the only sequential part of
    the vectorized parse.  Returns ``(groups, span_bits)`` or ``None``
    when the stream is truncated, a chain reaches the reference reader's
    length limit, or a count would overflow uint64: the caller then
    re-parses with the scalar reference from the same position, which
    raises (or succeeds) exactly as it always did.
    """
    # Sibling-module access: the scan reads raw buffer bits without the
    # per-call overhead a public bit-at-a-time API would add.
    view = reader._view
    total = reader._total_bits
    start = reader._pos
    pos = start
    groups: list[int] = []
    for _ in range(cells):
        count = 1
        while True:
            if pos + 8 > total:
                return None
            if not (view[pos >> 3] >> (7 - (pos & 7))) & 1:
                break
            count += 1
            if count > _VARINT_MAX_GROUPS:
                return None
            pos += 8
        if count > _VARINT_U64_GROUPS:
            return None
        pos += 8 + fixed_bits
        if pos > total:
            return None
        groups.append(count)
    return groups, pos - start


def read_cells(reader: BitReader, cells: int, key_bits: int, check_bits: int):
    """Parse ``cells`` v1-layout cells into three parallel columns.

    Returns numpy arrays (int64 counts, uint64 keys/checksums) on the fast
    path and plain lists of ints from the scalar reference otherwise; both
    consume identical bits and feed ``Backend.load_rows`` directly.
    """
    if not _vector_ready(key_bits, check_bits) or cells <= 0:
        return read_cells_scalar(reader, cells, key_bits, check_bits)
    stride = 8 + key_bits + check_bits
    if reader.bits_remaining < cells * stride:
        # Truncated (or multi-group varints could not fit either): the
        # reference parser raises the canonical overrun error mid-field.
        return read_cells_scalar(reader, cells, key_bits, check_bits)
    head = reader.peek_bits(cells * stride).reshape(cells, stride)
    if not head[:, 0].any():
        # Single-group counts throughout: one fixed-stride matrix.
        zig = _matrix_field(head, 0, 8)
        keys = _matrix_field(head, 8, key_bits)
        checks = _matrix_field(head, 8 + key_bits, check_bits)
        reader.skip_bits(cells * stride)
        return _unzigzag_vec(zig), keys, checks
    scan = _scan_varint_groups(reader, cells, key_bits + check_bits)
    if scan is None:
        return read_cells_scalar(reader, cells, key_bits, check_bits)
    group_list, span = scan
    groups = _np.asarray(group_list, dtype=_np.int64)
    bits = reader.peek_bits(span)
    record = 8 * groups + key_bits + check_bits
    offs = _np.zeros(cells, dtype=_np.int64)
    _np.cumsum(record[:-1], out=offs[1:])
    zig = _np.zeros(cells, dtype=_np.uint64)
    for g in range(int(groups.max())):
        sel = _np.flatnonzero(groups > g)
        byte = _gather_field(bits, offs[sel] + 8 * g, 8)
        zig[sel] |= (byte & _np.uint64(0x7F)) << _np.uint64(7 * g)
    keys = _gather_field(bits, offs + 8 * groups, key_bits)
    checks = _gather_field(bits, offs + 8 * groups + key_bits, check_bits)
    reader.skip_bits(span)
    return _unzigzag_vec(zig), keys, checks


# ---------------------------------------------------------- v2 fixed-width


def encode_cells_fixed_scalar(
    counts, key_sums, check_sums, count_width: int, key_bits: int, check_bits: int
) -> bytes:
    """Reference encoder for one fixed-width cell blob (the v2 wire spec)."""
    writer = BitWriter()
    for count, key, check in zip(counts, key_sums, check_sums):
        writer.write_uint(zigzag_encode(int(count)), count_width)
        writer.write_uint(int(key), key_bits)
        writer.write_uint(int(check), check_bits)
    return writer.getvalue()


def encode_cells_fixed(
    counts, key_sums, check_sums, count_width: int, key_bits: int, check_bits: int
) -> bytes:
    """One table's cells as a standalone fixed-width blob (v2 layout)."""
    if not _vector_ready(key_bits, check_bits) or count_width > 63:
        return encode_cells_fixed_scalar(
            counts, key_sums, check_sums, count_width, key_bits, check_bits
        )
    cols = _writable_columns(counts, key_sums, check_sums, key_bits, check_bits)
    if cols is None:
        return encode_cells_fixed_scalar(
            counts, key_sums, check_sums, count_width, key_bits, check_bits
        )
    c, k, s = cols
    if c.size == 0:
        return b""
    zig = _zigzag_vec(c)
    if int(zig.max()).bit_length() > count_width:
        # Mirror the reference writer's does-not-fit error.
        raise SerializationError(
            f"cell count {int(c[zig.argmax()])} does not fit the "
            f"{count_width}-bit count field"
        )
    bits = _pack_fixed_matrix(
        ((zig, count_width), (k, key_bits), (s, check_bits))
    )
    return _np.packbits(bits).tobytes()


def decode_cells_fixed_scalar(
    blob: bytes, cells: int, count_width: int, key_bits: int, check_bits: int
):
    """Reference parser for one fixed-width cell blob."""
    reader = BitReader(blob)
    counts: list[int] = []
    key_sums: list[int] = []
    check_sums: list[int] = []
    for _ in range(cells):
        counts.append(zigzag_decode(reader.read_uint(count_width)))
        key_sums.append(reader.read_uint(key_bits))
        check_sums.append(reader.read_uint(check_bits))
    return counts, key_sums, check_sums


def decode_cells_fixed(
    blob: bytes, cells: int, count_width: int, key_bits: int, check_bits: int
):
    """Parse one fixed-width cell blob into three parallel columns.

    The caller (:mod:`repro.scale.wire`) validates the blob's byte length
    against ``cells`` first; this only splits fields.
    """
    if not _vector_ready(key_bits, check_bits) or count_width > 63:
        return decode_cells_fixed_scalar(
            blob, cells, count_width, key_bits, check_bits
        )
    stride = count_width + key_bits + check_bits
    matrix = _np.unpackbits(
        _np.frombuffer(blob, dtype=_np.uint8), count=cells * stride
    ).reshape(cells, stride)
    zig = _matrix_field(matrix, 0, count_width)
    keys = _matrix_field(matrix, count_width, key_bits)
    checks = _matrix_field(matrix, count_width + key_bits, check_bits)
    return _unzigzag_vec(zig), keys, checks
