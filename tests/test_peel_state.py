"""Differential suite for the resumable :class:`~repro.iblt.decode.PeelState`.

Contract under test: a peel *resumed* across whole segments added with
``extend`` finishes with the true difference, and a single ``extend``-ed
segment is *bit-identical* to ``decode()``, peel order included —
``decode()`` is a wrapper over this path.  Peeling is confluent (the
recovered keys are the complement of the hypergraph's 2-core, which no
arrival order can change), which is what makes the rateless protocol
sound.

Also pinned here: the within-round ``max_items`` guard (a batch round
larger than the remaining budget must truncate, not overshoot — the old
decoder applied whole rounds before checking) and the constructor and
segment-width misuse errors.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigError
from repro.iblt.backends import available_backends
from repro.iblt.decode import DECODE_STRATEGIES, PeelState, decode
from repro.iblt.table import IBLT, IBLTConfig

BACKENDS = available_backends()
QS = (3, 4)
SEEDS = (0, 1, 5, 11)


def _subtracted(alice_keys, bob_keys, cells, q, seed, backend):
    config = IBLTConfig(cells=cells, q=q, key_bits=64, seed=seed)
    alice = IBLT(config, backend=backend)
    bob = IBLT(config, backend=backend)
    alice.insert_many(alice_keys)
    bob.insert_many(bob_keys)
    return alice.subtract(bob)


def _random_sides(rng, n_diff):
    shared = [rng.getrandbits(64) for _ in range(rng.randint(0, 80))]
    alice_extra = [rng.getrandbits(64) for _ in range(n_diff // 2)]
    bob_extra = [rng.getrandbits(64) for _ in range(n_diff - n_diff // 2)]
    return shared + alice_extra, shared + bob_extra


def _fingerprint(result):
    """Everything a resumed peel must reproduce (peel order excluded)."""
    return (
        result.success,
        sorted(result.alice_keys),
        sorted(result.bob_keys),
        result.remaining_cells,
    )


# --------------------------------------------------- incremental == fresh


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("strategy", DECODE_STRATEGIES)
def test_single_extend_is_bit_identical_to_decode(backend, strategy):
    """decode() is a wrapper over extend(); peel_order must match too."""
    for seed in SEEDS:
        rng = random.Random(7_700 + seed)
        cells = 4 * rng.randint(10, 25)
        n_diff = rng.randint(1, int(0.7 * cells))
        alice_keys, bob_keys = _random_sides(rng, n_diff)
        diff = _subtracted(alice_keys, bob_keys, cells, 4, seed, backend)
        fresh = decode(diff, strategy=strategy)
        state = PeelState(strategy=strategy)
        state.extend(diff)
        resumed = state.result()
        assert _fingerprint(resumed) == _fingerprint(fresh)
        assert resumed.peel_order == fresh.peel_order


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("strategy", DECODE_STRATEGIES)
@pytest.mark.parametrize("q", QS)
def test_increments_after_a_stall_resume_the_peel(backend, strategy, q):
    """An undersized first segment stalls; a second independently seeded
    segment of the same keyspace must finish the job."""
    for seed in SEEDS:
        rng = random.Random(42_000 * q + seed)
        n_diff = rng.randint(12, 24)
        alice_keys, bob_keys = _random_sides(rng, n_diff)
        # Segment 0 is far too small for the difference; segment 1 is ample.
        small = q * max(2, n_diff // 4)
        large = q * (2 * n_diff)
        seg0 = _subtracted(alice_keys, bob_keys, small, q, seed, backend)
        seg1 = _subtracted(alice_keys, bob_keys, large, q, seed + 1000, backend)

        state = PeelState(strategy=strategy)
        state.extend(seg0)
        stalled = state.result()
        state.extend(seg1)
        final = state.result()
        assert final.success, (seed, q)
        assert stalled.difference_size <= final.difference_size
        recovered = sorted(final.alice_keys + final.bob_keys)
        expected = sorted(
            set(alice_keys) ^ set(bob_keys)
        )
        assert recovered == expected


# ------------------------------------------------------- max_items guard


def _adversarial_diff(backend, n_keys=30, cells=240, q=4):
    """A wide table whose *first* peel round exposes many pure cells at
    once — the shape that made the old between-rounds guard overshoot."""
    rng = random.Random(1234)
    keys = [rng.getrandbits(60) | 1 for _ in range(n_keys)]
    config = IBLTConfig(cells=cells, q=q, key_bits=64, seed=2)
    table = IBLT(config, backend=backend)
    table.insert_many(keys)
    return table


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("strategy", DECODE_STRATEGIES)
@pytest.mark.parametrize("max_items", (1, 5, 10))
def test_guard_is_enforced_within_a_round(backend, strategy, max_items):
    """Regression: no run may ever apply more than ``max_items``
    extractions, even when a single batch round holds more pure cells
    than the remaining budget."""
    diff = _adversarial_diff(backend)
    result = decode(diff, max_items=max_items, strategy=strategy)
    assert not result.success
    assert result.difference_size <= max_items
    assert len(result.peel_order) <= max_items
    assert result.remaining_cells > 0


@pytest.mark.parametrize("strategy", DECODE_STRATEGIES)
def test_guard_equality_still_succeeds(strategy):
    """A peel of exactly ``max_items`` keys is legitimate, not a failure."""
    rng = random.Random(5)
    keys = [rng.getrandbits(60) | 1 for _ in range(12)]
    config = IBLTConfig(cells=120, q=4, key_bits=64, seed=6)
    table = IBLT(config)
    table.insert_many(keys)
    result = decode(table, max_items=len(keys), strategy=strategy)
    assert result.success
    assert result.difference_size == len(keys)


@pytest.mark.parametrize("strategy", DECODE_STRATEGIES)
def test_tripped_guard_poisons_the_state(strategy):
    """After the guard fires, further arrivals merge but never peel."""
    diff = _adversarial_diff("pure")
    state = PeelState(strategy=strategy, max_items=4)
    state.extend(diff)
    assert state.failed
    size_at_failure = state.difference_size
    assert size_at_failure <= 4
    extra = _adversarial_diff("pure")
    state.extend(extra)
    assert state.failed
    assert state.difference_size == size_at_failure
    assert not state.result().success


# ------------------------------------------------------------ misuse API


def _config(cells=40, q=4, seed=0, **kwargs):
    return IBLTConfig(cells=cells, q=q, key_bits=64, seed=seed, **kwargs)


class TestFeedCellsValidation:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError):
            PeelState(strategy="quantum")

    def test_mismatched_key_widths_rejected(self):
        state = PeelState()
        state.extend(IBLT(_config()))
        with pytest.raises(ConfigError, match="key and checksum widths"):
            state.extend(IBLT(IBLTConfig(cells=40, q=4, key_bits=32, seed=1)))
