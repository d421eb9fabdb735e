"""Differential suite for the vectorized wire codec (PR 5).

The contract under test: the vectorized codec paths in
:mod:`repro.net.codec` (and the bulk bit primitives in
:mod:`repro.net.bits` they ride on) are **bit-identical** to the scalar
``BitWriter``/``BitReader`` reference — for every payload kind the
protocols ship (one-round hierarchy sketches, the adaptive round-2
window, strata estimators), across backends, q
values, and seeds — and reject malformed payloads with exactly the same
:class:`~repro.errors.SerializationError` behaviour.

Hiding numpy from the codec (``codec._np = None``) is the escape hatch
both sides of each comparison use: with it hidden, every write/read goes
through the field-at-a-time reference paths that predate the codec.  Without numpy installed the two sides
coincide (everything is scalar), so the suite stays green — and cheap —
on the no-numpy CI leg.
"""

from __future__ import annotations

import random

import pytest

from repro.core.adaptive import AdaptiveReconciler
from repro.core.config import ProtocolConfig
from repro.core.protocol import HierarchicalReconciler
from repro.errors import SerializationError
from repro.iblt.backends import available_backends
from repro.iblt.hashing import TabulationHash, trailing_zeros
from repro.iblt.strata import StrataConfig, StrataEstimator
from repro.iblt.table import IBLT, IBLTConfig
from repro.net import codec
from repro.net.bits import BitReader, BitWriter

BACKENDS = available_backends()
SEEDS = (0, 7)
QS = (3, 4)

try:
    import numpy as _np
except ImportError:
    _np = None


@pytest.fixture()
def scalar_codec(monkeypatch):
    """Force the scalar reference paths for the duration of one test."""
    monkeypatch.setattr(codec, "_np", None)


def _both_ways(produce):
    """Run ``produce`` with the vector codec and the scalar reference."""
    fast = produce()
    saved = codec._np
    codec._np = None
    try:
        reference = produce()
    finally:
        codec._np = saved
    return fast, reference


def _table(backend, q, seed, *, dense=False, key_bits=60, checksum_bits=32):
    """A populated table: subtracted-style (small counts) or dense."""
    rng = random.Random(seed)
    cells = 24 * q
    config = IBLTConfig(
        cells=cells, q=q, key_bits=key_bits,
        checksum_bits=checksum_bits, seed=seed,
    )
    table = IBLT(config, backend=backend)
    # Dense tables push per-cell counts past 63, so their zigzag varints
    # span multiple LEB128 groups — the codec's variable-stride paths.
    n = cells * 40 if dense else cells // 2
    table.insert_many([rng.getrandbits(key_bits) for _ in range(n)])
    return table


# ------------------------------------------------------------ table layer


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dense", (False, True), ids=("sparse", "dense"))
def test_table_bytes_identical(backend, q, seed, dense):
    table = _table(backend, q, seed, dense=dense)
    fast, reference = _both_ways(table.to_bytes)
    assert fast == reference


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("reader_backend", BACKENDS)
@pytest.mark.parametrize("dense", (False, True), ids=("sparse", "dense"))
def test_table_roundtrip_identical(backend, reader_backend, dense):
    table = _table(backend, 4, 1, dense=dense)
    payload = table.to_bytes()

    def parse():
        parsed = IBLT.from_bytes(payload, table.config, backend=reader_backend)
        return [parsed.cell(i) for i in range(table.config.cells)]

    fast, reference = _both_ways(parse)
    assert fast == reference
    assert fast == [table.cell(i) for i in range(table.config.cells)]


def test_unaligned_table_writes_identical():
    """Tables written mid-stream (odd bit offsets) still match the spec."""
    table = _table(BACKENDS[-1], 3, 2)

    def produce():
        writer = BitWriter()
        writer.write_uint(5, 3)  # leave the writer bit-misaligned
        table.write_to(writer)
        writer.write_uint(1, 1)
        return writer.getvalue()

    fast, reference = _both_ways(produce)
    assert fast == reference


def test_huge_counts_fall_back_to_scalar_bytes():
    """Counts beyond one varint group — and beyond int64 — stay identical."""
    config = IBLTConfig(cells=8, q=4, key_bits=16, checksum_bits=8, seed=0)
    table = IBLT(config)
    table._backend.load_rows(
        [0, 1, -1, 63, -64, 64, 5000, -(2**40)],
        [0, 1, 2, 3, 65535, 5, 6, 7],
        [0, 1, 2, 3, 255, 5, 6, 7],
    )
    fast, reference = _both_ways(table.to_bytes)
    assert fast == reference

    def parse():
        parsed = IBLT.from_bytes(fast, config)
        return [parsed.cell(i) for i in range(config.cells)]

    parsed_fast, parsed_reference = _both_ways(parse)
    assert parsed_fast == parsed_reference
    assert [row[0] for row in parsed_fast] == [
        0, 1, -1, 63, -64, 64, 5000, -(2**40)
    ]


def test_wide_keys_use_reference_path():
    """key_bits > 64 cannot vectorize; bytes still match the reference."""
    config = IBLTConfig(cells=12, q=4, key_bits=80, checksum_bits=16, seed=3)
    table = IBLT(config)
    rng = random.Random(3)
    for _ in range(6):
        table.insert(rng.getrandbits(80))
    fast, reference = _both_ways(table.to_bytes)
    assert fast == reference
    parsed = IBLT.from_bytes(fast, config)
    assert [parsed.cell(i) for i in range(12)] == [
        table.cell(i) for i in range(12)
    ]


# --------------------------------------------------------- protocol layer


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("seed", SEEDS)
def test_one_round_sketch_identical(backend, q, seed):
    rng = random.Random(seed)
    points = [(rng.randrange(512), rng.randrange(512)) for _ in range(120)]
    config = ProtocolConfig(
        delta=512, dimension=2, k=4, q=q, seed=seed, backend=backend
    )
    reconciler = HierarchicalReconciler(config)
    fast, reference = _both_ways(lambda: reconciler.encode(points))
    assert fast == reference


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_adaptive_exchange_identical(backend, seed):
    rng = random.Random(seed)
    alice = [(rng.randrange(1024), rng.randrange(1024)) for _ in range(150)]
    bob = alice[3:] + [(rng.randrange(1024), rng.randrange(1024))]
    config = ProtocolConfig(
        delta=1024, dimension=2, k=6, seed=seed, backend=backend
    )

    def produce():
        reconciler = AdaptiveReconciler(config)
        request = reconciler.bob_request(bob)
        response = reconciler.alice_respond(request, alice)
        return request, response

    fast, reference = _both_ways(produce)
    assert fast == reference


def test_adaptive_alice_state_reuse_identical_bytes():
    """reuse_alice_state answers repeat requests with identical bytes."""
    rng = random.Random(11)
    alice = [(rng.randrange(1024), rng.randrange(1024)) for _ in range(150)]
    bob = alice[2:] + [(5, 9)]
    config = ProtocolConfig(delta=1024, dimension=2, k=6, seed=11)
    plain = AdaptiveReconciler(config)
    reusing = AdaptiveReconciler(config, reuse_alice_state=True)
    request = plain.bob_request(bob)
    expected = plain.alice_respond(request, alice)
    assert reusing.alice_respond(request, alice) == expected
    # Second call hits the caches; bytes must not drift.
    assert reusing.alice_respond(request, alice) == expected


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("seed", SEEDS)
def test_strata_estimator_identical(backend, q, seed):
    rng = random.Random(seed)
    keys = [rng.getrandbits(64) for _ in range(400)]
    config = StrataConfig(strata=8, cells_per_stratum=12, q=q, seed=seed)

    def produce():
        estimator = StrataEstimator(config, backend=backend)
        estimator.insert_all(keys)
        return estimator.to_bytes()

    fast, reference = _both_ways(produce)
    assert fast == reference
    # The bulk stratum assignment must agree with per-key inserts.
    scalar_est = StrataEstimator(config, backend=backend)
    scalar_est._insert_all_scalar(keys)
    assert scalar_est.to_bytes() == fast


# ------------------------------------------------------- malformed parity


def _parse_error(payload, config):
    """The (type, message) a full parse of ``payload`` raises, or None."""
    try:
        IBLT.from_bytes(payload, config)
        return None
    except SerializationError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("dense", (False, True), ids=("sparse", "dense"))
def test_truncation_rejection_parity(dense):
    """Every truncation of a valid payload fails identically on both paths."""
    table = _table(BACKENDS[-1], 4, 5, dense=dense)
    payload = table.to_bytes()
    cuts = sorted({0, 1, 2, len(payload) // 2, len(payload) - 1})
    for cut in cuts:
        fast, reference = _both_ways(
            lambda cut=cut: _parse_error(payload[:cut], table.config)
        )
        assert fast == reference
        assert fast is not None, f"truncation at {cut} must not parse"


def test_trailing_data_rejection_parity():
    table = _table(BACKENDS[-1], 4, 6)
    payload = table.to_bytes() + b"\xff"
    fast, reference = _both_ways(lambda: _parse_error(payload, table.config))
    assert fast == reference
    assert fast is not None and "trailing" in fast[1]


def test_varint_bomb_rejection_parity():
    """An endless continuation chain trips the reference limit both ways."""
    config = IBLTConfig(cells=4, q=4, key_bits=16, checksum_bits=8, seed=0)
    payload = b"\x80" * 4096
    fast, reference = _both_ways(lambda: _parse_error(payload, config))
    assert fast == reference
    assert fast is not None and "varint" in fast[1]


def test_garbage_bytes_rejection_parity():
    rng = random.Random(9)
    config = IBLTConfig(cells=12, q=4, key_bits=32, checksum_bits=16, seed=9)
    for trial in range(20):
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(120)))
        fast, reference = _both_ways(
            lambda payload=payload: _parse_error(payload, config)
        )
        assert fast == reference, f"trial {trial} diverged"


# -------------------------------------------------------- bulk primitives


def test_write_bits_matches_write_bit():
    rng = random.Random(4)
    pattern = [rng.randrange(2) for _ in range(300)]
    for head_bits in range(8):  # every starting alignment
        reference = BitWriter()
        bulk = BitWriter()
        for writer in (reference, bulk):
            for _ in range(head_bits):
                writer.write_bit(1)
        for bit in pattern:
            reference.write_bit(bit)
        bulk.write_bits(pattern)
        assert bulk.getvalue() == reference.getvalue()
        assert bulk.bit_length == reference.bit_length


def test_read_bits_matches_read_bit():
    rng = random.Random(5)
    data = bytes(rng.randrange(256) for _ in range(40))
    for offset in range(8):
        reference = BitReader(data)
        bulk = BitReader(data)
        for reader in (reference, bulk):
            reader.read_uint(offset + 1)
        want = [reference.read_bit() for _ in range(200)]
        got = list(bulk.read_bits(200))
        assert got == want
        assert bulk.bits_consumed == reference.bits_consumed


def test_peek_bits_does_not_consume():
    reader = BitReader(b"\xa5\x5a")
    first = list(reader.peek_bits(9))
    assert list(reader.peek_bits(9)) == first
    assert reader.bits_consumed == 0
    assert list(reader.read_bits(9)) == first


def test_peek_and_skip_overruns_raise():
    reader = BitReader(b"\x01")
    with pytest.raises(SerializationError):
        reader.peek_bits(9)
    with pytest.raises(SerializationError):
        reader.skip_bits(9)
    reader.skip_bits(8)
    assert reader.bits_remaining == 0


@pytest.mark.skipif(_np is None, reason="bulk paths need numpy")
def test_strata_bulk_insert_rejects_negative_arrays():
    """Signed arrays with negatives must fail like the scalar path, not
    silently wrap into huge uint64 keys."""
    config = StrataConfig(strata=4, cells_per_stratum=9, q=3, seed=2)
    estimator = StrataEstimator(config)
    with pytest.raises(ValueError):
        estimator.insert_all(_np.array([3, -1], dtype=_np.int64))
    with pytest.raises(ValueError):
        estimator.insert_all([3, -1])
    # Float arrays would truncate silently under a uint64 cast; the scalar
    # path rejects them loudly instead.
    with pytest.raises(TypeError):
        estimator.insert_all(_np.array([1.5], dtype=_np.float64))


@pytest.mark.skipif(_np is None, reason="bulk hashing paths need numpy")
def test_bulk_hashing_matches_scalar():
    from repro.iblt.hashing import trailing_zeros_many

    rng = random.Random(6)
    values = [rng.getrandbits(64) for _ in range(500)] + [0, 1, 2**63]
    arr = _np.asarray(values, dtype=_np.uint64)
    tab = TabulationHash(123)
    assert tab.hash_many(arr).tolist() == [tab(v) for v in values]
    for limit in (1, 7, 15, 63):
        assert trailing_zeros_many(arr, limit).tolist() == [
            trailing_zeros(v, limit) for v in values
        ]


def test_scalar_codec_fixture_forces_reference(scalar_codec):
    """The escape hatch really disables the vector paths."""
    table = _table(BACKENDS[-1], 4, 8)
    reader = BitReader(table.to_bytes())
    counts, keys, checks = codec.read_cells(
        reader, table.config.cells, table.config.key_bits,
        table.config.checksum_bits,
    )
    assert isinstance(counts, list)  # scalar reference returns plain lists
