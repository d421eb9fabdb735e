"""Sharded-vs-unsharded equivalence properties on the golden workloads.

The sharded engine's contract: the merged repair is a valid repair of the
whole multiset, and whenever repairs are exact (level 0 everywhere — the
case where the protocol's output is fully determined) the sharded and
monolithic protocols produce *identical* repaired multisets.  At coarser
levels both remain count-balanced and cell-consistent, but may legally pick
different levels per region (that is the point of sharding).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ProtocolConfig
from repro.core.protocol import reconcile
from repro.scale import reconcile_sharded
from repro.workloads.synthetic import perturbed_pair

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_FIXTURES = sorted(
    path for path in GOLDEN_DIR.glob("*.json") if "adaptive" not in path.name
)


def _load(path):
    data = json.loads(path.read_text())
    alice = [tuple(p) for p in data["alice"]]
    bob = [tuple(p) for p in data["bob"]]
    return alice, bob, data["config"]


@pytest.mark.parametrize("path", GOLDEN_FIXTURES, ids=lambda p: p.stem)
@pytest.mark.parametrize("shards", [2, 4])
def test_golden_workloads_shard_equivalence(path, shards):
    alice, bob, config_kwargs = _load(path)
    unsharded = reconcile(alice, bob, ProtocolConfig(**config_kwargs))
    sharded = reconcile_sharded(
        alice, bob, ProtocolConfig(shards=shards, **config_kwargs)
    )
    # Count balance holds for any shard count.
    assert len(sharded.repaired) == len(unsharded.repaired) == len(alice)
    if unsharded.exact and sharded.exact:
        assert sorted(sharded.repaired) == sorted(unsharded.repaired)
        assert sorted(sharded.repaired) == sorted(alice)


@pytest.mark.parametrize("shards", [2, 3, 4])
def test_noise_free_equivalence_is_exact(shards):
    w = perturbed_pair(11, 500, 2**12, 2, 12, 0, noise_model="none")
    config = ProtocolConfig(delta=w.delta, dimension=2, k=48, seed=2, shards=shards)
    unsharded = reconcile(w.alice, w.bob, ProtocolConfig(
        delta=w.delta, dimension=2, k=48, seed=2))
    sharded = reconcile_sharded(w.alice, w.bob, config)
    assert sorted(sharded.repaired) == sorted(unsharded.repaired)
    assert sorted(sharded.repaired) == sorted(w.alice)


points_1d = st.lists(
    st.tuples(st.integers(min_value=0, max_value=255)), min_size=0, max_size=30
)


@settings(max_examples=40, deadline=None)
@given(alice=points_1d, bob=points_1d, shards=st.integers(min_value=2, max_value=4))
def test_property_sharded_repair_is_count_balanced(alice, bob, shards):
    """For arbitrary multisets: |repaired| == |alice| whenever both decode."""
    from repro.errors import ReconciliationFailure

    config = ProtocolConfig(delta=256, dimension=1, k=32, seed=9, shards=shards)
    unsharded_config = ProtocolConfig(delta=256, dimension=1, k=32, seed=9)
    try:
        sharded = reconcile_sharded(alice, bob, config)
        unsharded = reconcile(alice, bob, unsharded_config)
    except ReconciliationFailure:
        return  # tiny-k corner: legitimate protocol failure, not a crash
    assert len(sharded.repaired) == len(alice)
    if sharded.exact and unsharded.exact:
        assert sorted(sharded.repaired) == sorted(unsharded.repaired)


def test_property_noise_free_workloads_repair_exactly():
    """A seeded sweep: every run is count-balanced, and at most 1% of runs
    miss an exact repair.

    Exactness is probabilistic: per-shard sketches are sized to k/S, so a
    shard that draws more of the difference than its budget can stall at
    level 0 and repair at a coarser level (seed 98 with 4 shards does,
    once in this sweep).
    """
    runs = inexact = 0
    for seed in range(300):
        w = perturbed_pair(seed, 80, 1024, 2, 5, 0, noise_model="none")
        for shards in (2, 3, 4):
            config = ProtocolConfig(
                delta=w.delta, dimension=2, k=20, seed=1, shards=shards,
                executor="serial",
            )
            result = reconcile_sharded(w.alice, w.bob, config)
            assert len(result.repaired) == len(w.alice), (seed, shards)
            runs += 1
            inexact += sorted(result.repaired) != sorted(w.alice)
    assert inexact <= runs // 100, f"{inexact} of {runs} runs not exact"
