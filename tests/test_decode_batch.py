"""Differential suite: the batch round-based decoder vs the scalar peel.

The batch decoder (``decode(..., strategy="batch")``, the default) must
recover exactly the same key sets as the scalar reference on every backend:
same ``success``, same ``alice_keys`` / ``bob_keys`` as multisets, same
``remaining_cells``.  ``peel_order`` is the one sanctioned difference —
round-major/index-ascending for batch, stack-driven for scalar — so it is
compared as a multiset, plus a dedicated test pinning the round-major
contract itself.  Inputs cover random, adversarially structured, and
stall-inducing (non-empty 2-core) tables across backends and q.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigError
from repro.iblt.backends import available_backends
from repro.iblt.decode import DECODE_STRATEGIES, decode
from repro.iblt.table import IBLT, IBLTConfig, recommended_cells

BACKENDS = available_backends()
QS = (3, 4)
SEEDS = (0, 1, 2, 7, 23)


def _subtracted(alice_keys, bob_keys, cells, q, seed, backend):
    config = IBLTConfig(cells=cells, q=q, key_bits=64, seed=seed)
    alice = IBLT(config, backend=backend)
    bob = IBLT(config, backend=backend)
    alice.insert_many(alice_keys)
    bob.insert_many(bob_keys)
    return alice.subtract(bob)


def _set_fingerprint(result):
    """Everything both strategies must agree on (peel order excluded)."""
    return (
        result.success,
        sorted(result.alice_keys),
        sorted(result.bob_keys),
        result.remaining_cells,
    )


def _assert_strategies_agree(diff):
    batch = decode(diff)
    scalar = decode(diff, strategy="scalar")
    assert _set_fingerprint(batch) == _set_fingerprint(scalar)
    # Same extractions overall, just a different (documented) order.
    assert sorted(batch.peel_order) == sorted(scalar.peel_order)
    return batch, scalar


# ----------------------------------------------------------- random inputs


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("q", QS)
def test_random_differences_match_scalar(backend, q):
    """Two-sided random differences around and above capacity."""
    for seed in SEEDS:
        rng = random.Random(10_000 * q + seed)
        cells = q * rng.randint(8, 40)
        # Sweep loads from comfortable to overloaded so both success and
        # honest stalls are exercised.
        for load in (0.3, 0.6, 0.9, 1.3):
            n_diff = max(1, int(load * cells))
            shared = [rng.getrandbits(64) for _ in range(rng.randint(0, 150))]
            alice_extra = [rng.getrandbits(64) for _ in range(n_diff // 2)]
            bob_extra = [rng.getrandbits(64) for _ in range(n_diff - n_diff // 2)]
            diff = _subtracted(
                shared + alice_extra, shared + bob_extra, cells, q, seed, backend
            )
            batch, _ = _assert_strategies_agree(diff)
            if batch.success:
                assert sorted(batch.alice_keys) == sorted(alice_extra)
                assert sorted(batch.bob_keys) == sorted(bob_extra)


# ------------------------------------------------------ adversarial inputs


def _adversarial_families(rng):
    """Structured key sets that stress hashing and cell placement."""
    base = rng.getrandbits(40) << 20
    return [
        list(range(1, 80)),                          # dense consecutive ints
        [i << 32 for i in range(1, 60)],             # only high bits vary
        [base | i for i in range(48)],               # shared high, low counter
        [(i * 0x9E3779B97F4A7C15) & (2**64 - 1) for i in range(1, 50)],
        [1 << i for i in range(1, 63)],              # one-hot keys
    ]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("q", QS)
def test_adversarial_key_structures_match_scalar(backend, q):
    for seed in SEEDS[:3]:
        rng = random.Random(500 + seed)
        for keys in _adversarial_families(rng):
            half = len(keys) // 2
            cells = q * max(2, (len(keys) * 2) // q)
            diff = _subtracted(keys[:half], keys[half:], cells, q, seed, backend)
            _assert_strategies_agree(diff)


# -------------------------------------------------- stall-inducing (2-core)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("q", QS)
def test_overloaded_tables_stall_identically(backend, q):
    """Loads far above the peeling threshold leave a non-empty 2-core; the
    partially peeled state must be identical (peeling is confluent)."""
    for seed in SEEDS:
        rng = random.Random(77 * q + seed)
        cells = q * 8
        keys = [rng.getrandbits(64) for _ in range(4 * cells)]
        diff = _subtracted(keys, [], cells, q, seed, backend)
        batch, scalar = _assert_strategies_agree(diff)
        assert not batch.success
        assert batch.remaining_cells > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_minimal_two_core_cycle_stalls(backend):
    """A crafted pair of keys sharing all their cells can never peel."""
    # Search a small key space for two keys with identical cell index sets:
    # their subtracted cells all hold two keys, a textbook 2-core.
    config = IBLTConfig(cells=6, q=3, seed=5)
    family = config.hash_family()
    by_cells = {}
    pair = None
    for key in range(1, 5000):
        signature = family.indices(key)
        if signature in by_cells:
            pair = (by_cells[signature], key)
            break
        by_cells[signature] = key
    assert pair is not None, "no colliding key pair in the search space"
    diff = _subtracted(list(pair), [], config.cells, config.q, config.seed, backend)
    batch, scalar = _assert_strategies_agree(diff)
    assert not batch.success
    assert batch.difference_size == 0  # nothing peels at all


# ------------------------------------------------------------ guard + edges


@pytest.mark.parametrize("backend", BACKENDS)
def test_max_items_guard_fails_both_strategies(backend):
    rng = random.Random(7)
    keys = [rng.getrandbits(60) for _ in range(30)]
    cells = recommended_cells(30, q=4)
    diff = _subtracted(keys, [], cells, 4, 21, backend)
    for strategy in DECODE_STRATEGIES:
        result = decode(diff, max_items=5, strategy=strategy)
        assert not result.success
        assert result.remaining_cells > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_and_tiny_tables(backend):
    for alice, bob in ([], []), ([42], []), ([], [42]), ([1, 2], [2, 1]):
        diff = _subtracted(alice, bob, 24, 4, 3, backend)
        batch, scalar = _assert_strategies_agree(diff)
        assert batch.success


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_decode_is_nondestructive(backend):
    diff = _subtracted([1, 2, 3], [9], 32, 4, 21, backend)
    before = diff.to_bytes()
    decode(diff)
    assert diff.to_bytes() == before


def test_unknown_strategy_rejected():
    diff = _subtracted([1], [], 24, 4, 3, "pure")
    with pytest.raises(ConfigError):
        decode(diff, strategy="quantum")


# ------------------------------------------------------ peel-order contract


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_peel_order_is_round_major(backend):
    """Round 1 of the batch peel order is exactly the pure cells of the
    original table, in ascending cell-index order (first occurrence per
    key)."""
    rng = random.Random(13)
    keys = [rng.getrandbits(60) for _ in range(20)]
    diff = _subtracted(keys[:12], keys[12:], recommended_cells(20, q=4), 4, 9, backend)
    indices, signs = diff.pure_mask()
    gathered = diff.gather_cells(indices)
    first_round = []
    seen = set()
    for key, sign in zip(
        gathered.tolist() if hasattr(gathered, "tolist") else gathered,
        signs.tolist() if hasattr(signs, "tolist") else signs,
    ):
        if key not in seen:
            seen.add(key)
            first_round.append((key, sign))
    result = decode(diff)
    assert result.peel_order[: len(first_round)] == first_round


@pytest.mark.skipif(len(BACKENDS) < 2, reason="only the pure backend is available")
@pytest.mark.parametrize("q", QS)
def test_batch_decode_bit_identical_across_backends(q):
    """Full fingerprints — peel_order included — match between backends."""
    for seed in SEEDS:
        rng = random.Random(31 * q + seed)
        cells = q * rng.randint(8, 30)
        alice = [rng.getrandbits(64) for _ in range(rng.randint(0, 60))]
        bob = [rng.getrandbits(64) for _ in range(rng.randint(0, 60))]
        results = []
        for backend in BACKENDS:
            result = decode(_subtracted(alice, bob, cells, q, seed, backend))
            results.append(
                (
                    result.success,
                    result.alice_keys,
                    result.bob_keys,
                    result.remaining_cells,
                    result.peel_order,
                )
            )
        assert all(fingerprint == results[0] for fingerprint in results[1:])
