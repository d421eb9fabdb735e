"""Malformed / truncated adaptive payloads must fail with SerializationError.

Satellite coverage for the wire-layer bugfixes: bad magic, wrong version,
mid-estimator truncation, duplicate window levels — every case must raise
:class:`~repro.errors.SerializationError` (or, for impossible configs,
:class:`~repro.errors.ConfigError`), never an uncontrolled crash.
"""

from __future__ import annotations

import pytest

import random

from repro.core.adaptive import (
    REQUEST_MAGIC,
    RESPONSE_MAGIC,
    VERSION,
    AdaptiveConfig,
    AdaptiveReconciler,
)
from repro.core.config import ProtocolConfig
from repro.core.protocol import HierarchicalReconciler
from repro.core.sketch import HierarchySketch
from repro.errors import ConfigError, SerializationError
from repro.iblt.backends import available_backends
from repro.iblt.strata import StrataEstimator
from repro.net.bits import BitReader, BitWriter
from repro.net.codec import read_cells_scalar, write_cells_scalar


def _parties():
    config = ProtocolConfig(delta=1024, dimension=2, k=4, seed=21)
    reconciler = AdaptiveReconciler(config)
    alice = [(10, 10), (500, 501), (900, 4), (77, 300)]
    bob = [(10, 11), (500, 500), (700, 700), (77, 300)]
    return reconciler, alice, bob


class TestRoundOneMalformed:
    def test_bad_magic(self):
        reconciler, alice, bob = _parties()
        request = bytearray(reconciler.bob_request(bob))
        request[0] ^= 0xFF
        with pytest.raises(SerializationError, match="magic"):
            reconciler.alice_respond(bytes(request), alice)

    def test_wrong_version(self):
        reconciler, alice, bob = _parties()
        request = bytearray(reconciler.bob_request(bob))
        request[1] = 0x7E
        with pytest.raises(SerializationError, match="version"):
            reconciler.alice_respond(bytes(request), alice)

    @pytest.mark.parametrize("keep_fraction", [0.25, 0.5, 0.9])
    def test_mid_estimator_truncation(self, keep_fraction):
        reconciler, alice, bob = _parties()
        request = reconciler.bob_request(bob)
        truncated = request[: int(len(request) * keep_fraction)]
        with pytest.raises(SerializationError):
            reconciler.alice_respond(truncated, alice)

    def test_trailing_garbage(self):
        reconciler, alice, bob = _parties()
        request = reconciler.bob_request(bob)
        with pytest.raises(SerializationError):
            reconciler.alice_respond(request + b"\xa5", alice)


BACKENDS = [
    pytest.param(
        backend,
        marks=pytest.mark.skipif(
            backend not in available_backends(), reason=f"{backend} unavailable"
        ),
    )
    for backend in ("pure", "numpy")
]


def _table_by_table_parse(reconciler, payload: bytes, backend: str) -> list:
    """The request parse as it ran one estimator table at a time: the
    header, then ``StrataEstimator.read_from`` per sampled level, then the
    end check.  Returns the parsed estimators."""
    reader = BitReader(payload)
    if reader.read_uint(8) != REQUEST_MAGIC:
        raise SerializationError("bad magic byte; not an adaptive request")
    if reader.read_uint(8) != VERSION:
        raise SerializationError("unsupported adaptive request version")
    reader.read_varint()
    estimators = [
        StrataEstimator.read_from(
            reader, reconciler._estimator_config(level), backend=backend
        )
        for level in reconciler.sampled_levels()
    ]
    reader.expect_end()
    return estimators


def _estimator_ends(reconciler, request: bytes) -> list[int]:
    """Bit offset at which each estimator of a valid request ends."""
    reader = BitReader(request)
    reader.read_uint(8)
    reader.read_uint(8)
    reader.read_varint()
    ends = []
    for level in reconciler.sampled_levels():
        StrataEstimator.read_from(reader, reconciler._estimator_config(level))
        ends.append(reader.bits_consumed)
    return ends


def _assert_same_error(reconciler, alice, payload: bytes, backend: str):
    with pytest.raises(SerializationError) as reference:
        _table_by_table_parse(reconciler, payload, backend)
    with pytest.raises(SerializationError) as got:
        reconciler.alice_respond(payload, alice)
    assert str(got.value) == str(reference.value)


class TestRequestParseParity:
    """One columnar read of every estimator cell fails exactly like the
    table-at-a-time parse it replaced: same error type, same message."""

    def _dense(self, backend):
        # Enough points that the coarse estimators' counts need multi-group
        # varints, so truncation also lands inside the varint scan.
        config = ProtocolConfig(
            delta=1024, dimension=2, k=4, seed=21, backend=backend
        )
        rng = random.Random(5)
        bob = [(rng.randrange(1024), rng.randrange(1024)) for _ in range(600)]
        alice = bob[:590] + [(1, 2)] * 3
        return AdaptiveReconciler(config), alice, bob

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_truncation_around_estimator_boundaries(self, backend):
        reconciler, alice, bob = self._dense(backend)
        request = reconciler.bob_request(bob)
        cuts = set()
        for end in _estimator_ends(reconciler, request)[:-1]:
            boundary = (end + 7) // 8
            cuts.update((boundary - 1, boundary, boundary + 1))
        assert len(cuts) >= 3 * 4
        for cut in sorted(cuts):
            _assert_same_error(reconciler, alice, request[:cut], backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_truncation_at_every_byte_of_a_small_request(self, backend):
        config = ProtocolConfig(delta=64, dimension=1, k=2, seed=3, backend=backend)
        reconciler = AdaptiveReconciler(
            config, AdaptiveConfig(estimator_strata=2, estimator_cells=3)
        )
        alice = [(1,), (9,), (33,), (40,)]
        bob = [(1,), (10,), (33,), (63,)]
        request = reconciler.bob_request(bob)
        assert len(request) < 256
        for cut in range(len(request)):
            _assert_same_error(reconciler, alice, request[:cut], backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_count_beyond_native_width(self, backend):
        """A ten-group count parses only on the scalar reference: a numpy
        backend refuses the table exactly as before, a pure one estimates
        the table as undecodable."""
        reconciler, alice, bob = self._dense(backend)
        request = reconciler.bob_request(bob)
        reader = BitReader(request)
        header = [reader.read_uint(8), reader.read_uint(8), reader.read_varint()]
        adaptive = reconciler.adaptive
        block_cells = (
            len(reconciler.sampled_levels()) * adaptive.estimator_strata
            * reconciler._estimator_config(0).iblt_config(0).cells
        )
        counts, key_sums, check_sums = read_cells_scalar(
            reader, block_cells, adaptive.estimator_key_bits,
            adaptive.estimator_checksum_bits,
        )
        cells = reconciler._estimator_config(0).iblt_config(0).cells
        deepest = (adaptive.estimator_strata - 1) * cells
        counts[deepest] = 2**63
        writer = BitWriter()
        writer.write_uint(header[0], 8)
        writer.write_uint(header[1], 8)
        writer.write_varint(header[2])
        write_cells_scalar(
            writer, counts, key_sums, check_sums,
            adaptive.estimator_key_bits, adaptive.estimator_checksum_bits,
        )
        payload = writer.getvalue()
        if backend == "numpy":
            with pytest.raises(ConfigError) as reference:
                _table_by_table_parse(reconciler, payload, backend)
            with pytest.raises(ConfigError) as got:
                reconciler.alice_respond(payload, alice)
            assert str(got.value) == str(reference.value)
            return
        _table_by_table_parse(reconciler, payload, backend)
        estimates = reconciler.estimates(payload, alice)
        untouched = reconciler.estimates(request, alice)
        first = reconciler.sampled_levels()[0]
        capacity = reconciler._estimator_config(0).iblt_config(0).capacity
        assert estimates[first] == 2**adaptive.estimator_strata * capacity
        del estimates[first], untouched[first]
        assert estimates == untouched


class TestRoundTwoMalformed:
    def _response(self):
        reconciler, alice, bob = _parties()
        request = reconciler.bob_request(bob)
        return reconciler, bob, reconciler.alice_respond(request, alice)

    def test_bad_magic(self):
        reconciler, bob, response = self._response()
        tampered = bytes([response[0] ^ 0xFF]) + response[1:]
        with pytest.raises(SerializationError, match="magic"):
            reconciler.bob_finish(tampered, bob)

    def test_wrong_version(self):
        reconciler, bob, response = self._response()
        tampered = bytes([response[0], 0x7E]) + response[2:]
        with pytest.raises(SerializationError, match="version"):
            reconciler.bob_finish(tampered, bob)

    @pytest.mark.parametrize("keep_fraction", [0.3, 0.6, 0.95])
    def test_mid_table_truncation(self, keep_fraction):
        reconciler, bob, response = self._response()
        truncated = response[: int(len(response) * keep_fraction)]
        with pytest.raises(SerializationError):
            reconciler.bob_finish(truncated, bob)

    def test_duplicate_window_levels(self):
        reconciler, bob, response = self._response()
        # Re-frame the response so the first window table appears twice.
        reader = BitReader(response)
        assert reader.read_uint(8) == RESPONSE_MAGIC
        version = reader.read_uint(8)
        n_alice = reader.read_varint()
        n_levels = reader.read_varint()
        assert n_levels >= 1
        level = reader.read_varint()
        cells = reader.read_varint()
        writer = BitWriter()
        writer.write_uint(RESPONSE_MAGIC, 8)
        writer.write_uint(version, 8)
        writer.write_varint(n_alice)
        writer.write_varint(2)
        table_config = None
        from repro.core.sketch import level_iblt_config
        from repro.iblt.table import IBLT

        table_config = level_iblt_config(
            reconciler.config, reconciler.grid, level, cells
        )
        table = IBLT.read_from(reader, table_config)
        for _ in range(2):
            writer.write_varint(level)
            writer.write_varint(cells)
            table.write_to(writer)
        with pytest.raises(SerializationError, match="twice"):
            reconciler.bob_finish(writer.getvalue(), bob)

    def test_request_fed_to_bob_finish(self):
        reconciler, bob, _ = self._response()
        request = reconciler.bob_request(bob)
        assert request[0] == REQUEST_MAGIC
        with pytest.raises(SerializationError, match="magic"):
            reconciler.bob_finish(request, bob)


class TestEmptyLevelConfigs:
    def test_config_rejects_empty_levels_tuple(self):
        with pytest.raises(ConfigError, match="level"):
            ProtocolConfig(delta=1024, dimension=2, k=4, levels=())

    def test_sampled_levels_raises_config_error_not_index_error(self):
        """Even a config that smuggles empty levels past validation fails
        with ConfigError (the old code crashed with IndexError)."""
        reconciler, _, _ = _parties()
        object.__setattr__(reconciler.config, "levels", ())
        with pytest.raises(ConfigError, match="sketch level"):
            reconciler.sampled_levels()


class TestDuplicateSketchLevels:
    def test_from_bytes_rejects_duplicate_levels(self):
        config = ProtocolConfig(delta=256, dimension=1, k=2, seed=3)
        reconciler = HierarchicalReconciler(config)
        sketch_bytes = reconciler.encode([(10,), (200,)])
        sketch = HierarchySketch.from_bytes(sketch_bytes, config, reconciler.grid)
        # Rebuild a payload that carries the first level twice.
        duplicated = HierarchySketch(
            n_points=sketch.n_points,
            levels=[sketch.levels[0], sketch.levels[0]] + sketch.levels[2:],
        )
        with pytest.raises(SerializationError, match="twice"):
            HierarchySketch.from_bytes(
                duplicated.to_bytes(), config, reconciler.grid
            )
