"""Differential tests: every IBLT backend must match the pure reference.

The pure-Python backend defines the semantics; these tests drive randomized
operation sequences through every other available backend and assert
byte-identical serialized sketches and identical decode results.  Uses
hypothesis when installed, seeded random sweeps otherwise.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.core.config import ProtocolConfig
from repro.core.protocol import HierarchicalReconciler, reconcile
from repro.core.repair import REPAIR_STRATEGIES
from repro.iblt.backends import available_backends
from repro.iblt.decode import decode
from repro.iblt.table import IBLT, IBLTConfig

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is an optional extra
    HAVE_HYPOTHESIS = False

ALT_BACKENDS = [name for name in available_backends() if name != "pure"]

GOLDEN_FIXTURES = sorted(
    path
    for path in (Path(__file__).parent / "golden").glob("*.json")
    if "adaptive" not in path.name
)

pytestmark = pytest.mark.skipif(
    not ALT_BACKENDS, reason="only the pure backend is available"
)


def _make_pair(cells, q, key_bits, checksum_bits, seed, backend):
    config = IBLTConfig(
        cells=cells, q=q, key_bits=key_bits, checksum_bits=checksum_bits, seed=seed
    )
    return IBLT(config, backend="pure"), IBLT(config, backend=backend)


def _decode_fingerprint(table):
    result = decode(table)
    return (
        result.success,
        result.alice_keys,
        result.bob_keys,
        result.remaining_cells,
        result.peel_order,
    )


def _check_equivalence(cells, q, key_bits, seed, keys, deletions, backend):
    """One differential scenario: same ops on both backends, same bytes."""
    reference, candidate = _make_pair(cells, q, key_bits, 32, seed, backend)
    reference.insert_many(keys)
    candidate.insert_many(keys)
    assert reference.to_bytes() == candidate.to_bytes()

    reference.delete_many(deletions)
    candidate.delete_many(deletions)
    assert reference.to_bytes() == candidate.to_bytes()
    assert reference.nonzero_cells() == candidate.nonzero_cells()
    assert reference.is_empty() == candidate.is_empty()
    assert reference.pure_cells() == candidate.pure_cells()

    assert _decode_fingerprint(reference) == _decode_fingerprint(candidate)

    # Deserialisation round-trips into either backend identically.
    data = reference.to_bytes()
    for target in ("pure", backend):
        assert IBLT.from_bytes(data, reference.config, backend=target).to_bytes() == data


def _scenario_from_rng(rng):
    q = rng.choice([3, 4, 5])
    cells = q * rng.randint(2, 40)
    key_bits = rng.choice([8, 16, 33, 48, 63, 64])
    seed = rng.randrange(2**32)
    keys = [rng.randrange(1 << key_bits) for _ in range(rng.randint(0, 120))]
    deletions = [rng.choice(keys) for _ in range(rng.randint(0, 10))] if keys else []
    return cells, q, key_bits, seed, keys, deletions


@pytest.mark.parametrize("backend", ALT_BACKENDS)
def test_randomized_sweeps_match_reference(backend):
    """Seeded sweep over table shapes, key sets and deletion mixes."""
    rng = random.Random(0xD1FF)
    for _ in range(60):
        _check_equivalence(*_scenario_from_rng(rng), backend)


if HAVE_HYPOTHESIS:

    @settings(max_examples=60, deadline=None)
    @given(
        q=st.sampled_from([3, 4, 5]),
        cells_factor=st.integers(2, 30),
        key_bits=st.sampled_from([8, 16, 33, 48, 63, 64]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_property_backends_bit_identical(q, cells_factor, key_bits, seed, data):
        keys = data.draw(
            st.lists(st.integers(0, (1 << key_bits) - 1), max_size=150)
        )
        deletions = (
            data.draw(st.lists(st.sampled_from(keys), max_size=8)) if keys else []
        )
        for backend in ALT_BACKENDS:
            _check_equivalence(
                q * cells_factor, q, key_bits, seed, keys, deletions, backend
            )


@pytest.mark.parametrize("backend", ALT_BACKENDS)
def test_subtract_decode_matches_reference(backend):
    """Alice-minus-Bob differences decode identically on every backend."""
    rng = random.Random(0x5EED)
    for _ in range(40):
        q = rng.choice([3, 4])
        cells = q * rng.randint(8, 30)
        seed = rng.randrange(2**32)
        config = IBLTConfig(cells=cells, q=q, key_bits=64, seed=seed)
        shared = [rng.getrandbits(64) for _ in range(rng.randint(0, 200))]
        alice_only = [rng.getrandbits(64) for _ in range(rng.randint(0, 12))]
        bob_only = [rng.getrandbits(64) for _ in range(rng.randint(0, 12))]

        fingerprints = {}
        for name in ("pure", backend):
            alice = IBLT(config, backend=name)
            bob = IBLT(config, backend=name)
            alice.insert_many(shared + alice_only)
            bob.insert_many(shared + bob_only)
            diff = alice.subtract(bob)
            fingerprints[name] = (diff.to_bytes(), _decode_fingerprint(diff))
        assert fingerprints["pure"] == fingerprints[backend]


@pytest.mark.parametrize("backend", ALT_BACKENDS)
def test_cross_backend_subtract(backend):
    """Parties on different backends interoperate (wire + algebra)."""
    config = IBLTConfig(cells=48, q=4, key_bits=64, seed=3)
    reference = IBLT(config, backend="pure")
    candidate = IBLT(config, backend=backend)
    rng = random.Random(11)
    shared = [rng.getrandbits(64) for _ in range(50)]
    reference.insert_many(shared + [111])
    candidate.insert_many(shared + [222])

    mixed = reference.subtract(candidate)
    same = IBLT.from_bytes(reference.to_bytes(), config, backend=backend).subtract(
        candidate
    )
    assert mixed.to_bytes() == same.to_bytes()
    assert _decode_fingerprint(mixed) == _decode_fingerprint(same)
    assert sorted(decode(mixed).alice_keys) == [111]
    assert sorted(decode(mixed).bob_keys) == [222]


@pytest.mark.parametrize("backend", ALT_BACKENDS)
def test_protocol_end_to_end_matches_reference(backend):
    """Full reconcile(): same message bytes and repaired set per backend."""
    rng = random.Random(42)
    for seed in (0, 7):
        delta, dimension = 4096, 2
        alice = [
            (rng.randrange(delta), rng.randrange(delta)) for _ in range(300)
        ]
        bob = [
            (x + rng.choice([-1, 0, 1])) % delta for x, _ in alice
        ]
        bob = list(zip(bob, (y for _, y in alice)))[:295]

        outcomes = {}
        for name in ("pure", backend):
            config = ProtocolConfig(
                delta=delta, dimension=dimension, k=8, seed=seed, backend=name
            )
            payload = HierarchicalReconciler(config).encode(alice)
            result = reconcile(alice, bob, config)
            outcomes[name] = (
                payload,
                result.level,
                sorted(result.repaired),
                result.levels_probed,
            )
        assert outcomes["pure"] == outcomes[backend]


@pytest.mark.parametrize("backend", ALT_BACKENDS)
def test_wide_key_tables_fall_back_under_auto(backend):
    """'auto' must never hand a >64-bit-key table to the numpy backend."""
    config = IBLTConfig(cells=16, q=4, key_bits=200, seed=2)
    table = IBLT(config, backend="auto")
    assert table.backend_name == "pure"
    table.insert((1 << 199) | 12345)
    assert IBLT.from_bytes(table.to_bytes(), config).to_bytes() == table.to_bytes()


@pytest.mark.parametrize("strategy", REPAIR_STRATEGIES)
@pytest.mark.parametrize("path", GOLDEN_FIXTURES, ids=lambda path: path.stem)
def test_golden_decode_and_repair_identical_across_backends(path, strategy):
    """One-round Bob's whole result, ordering included, is backend-free."""
    if "numpy" not in ALT_BACKENDS:
        pytest.skip("numpy backend unavailable")
    data = json.loads(path.read_text())
    alice = [tuple(point) for point in data["alice"]]
    bob = [tuple(point) for point in data["bob"]]
    results = []
    for backend in ("pure", "numpy"):
        reconciler = HierarchicalReconciler(
            ProtocolConfig(backend=backend, **data["config"])
        )
        payload = reconciler.encode(alice)
        results.append(reconciler.decode_and_repair(payload, bob, strategy))
    pure, fast = results
    assert pure.repaired == fast.repaired
    assert pure.plan == fast.plan
    assert pure.level == fast.level
    assert pure.levels_probed == fast.levels_probed
