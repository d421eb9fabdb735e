"""Unit and integration tests for the one-round protocol."""

import random

import pytest

from repro.core.config import ProtocolConfig
from repro.core.protocol import HierarchicalReconciler, reconcile
from repro.core.sketch import HierarchySketch
from repro.emd.matching import emd
from repro.errors import ConfigError, ReconciliationFailure, SerializationError
from repro.net.channel import SimulatedChannel


def clamp(value, delta):
    return max(0, min(delta - 1, value))


def perturbed_workload(rng, n, k, delta, dimension, noise):
    """Shared base + noise on Bob's copies + k/2 unique points per side."""
    base = [
        tuple(rng.randrange(delta) for _ in range(dimension)) for _ in range(n)
    ]
    alice = list(base)
    bob = [
        tuple(clamp(c + rng.randrange(-noise, noise + 1), delta) for c in point)
        for point in base
    ]
    for _ in range(k // 2):
        alice.append(tuple(rng.randrange(delta) for _ in range(dimension)))
        bob.append(tuple(rng.randrange(delta) for _ in range(dimension)))
    return alice, bob


class TestConfig:
    def test_defaults_validate(self):
        config = ProtocolConfig(delta=1024, dimension=2, k=4)
        assert config.max_level == 10
        assert config.sketch_levels == tuple(range(11))
        assert config.cells_per_level % config.q == 0

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(delta=1, dimension=1, k=1)
        with pytest.raises(ConfigError):
            ProtocolConfig(delta=16, dimension=0, k=1)
        with pytest.raises(ConfigError):
            ProtocolConfig(delta=16, dimension=1, k=0)
        with pytest.raises(ConfigError):
            ProtocolConfig(delta=16, dimension=1, k=1, q=7)
        with pytest.raises(ConfigError):
            ProtocolConfig(delta=16, dimension=1, k=1, diff_margin=0.5)
        with pytest.raises(ConfigError):
            ProtocolConfig(delta=16, dimension=1, k=1, metric="cosine")

    def test_explicit_levels_validated(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(delta=16, dimension=1, k=1, levels=(0, 99))
        with pytest.raises(ConfigError):
            ProtocolConfig(delta=16, dimension=1, k=1, levels=(3, 1))
        config = ProtocolConfig(delta=16, dimension=1, k=1, levels=(0, 2, 4))
        assert config.sketch_levels == (0, 2, 4)

    def test_cells_scale_with_k(self):
        small = ProtocolConfig(delta=16, dimension=1, k=2).cells_per_level
        large = ProtocolConfig(delta=16, dimension=1, k=64).cells_per_level
        assert large > small * 8


class TestSketchWire:
    def test_roundtrip(self):
        config = ProtocolConfig(delta=256, dimension=2, k=3, seed=5)
        reconciler = HierarchicalReconciler(config)
        rng = random.Random(0)
        points = [(rng.randrange(256), rng.randrange(256)) for _ in range(40)]
        payload = reconciler.encode(points)
        sketch = HierarchySketch.from_bytes(payload, config, reconciler.grid)
        assert sketch.n_points == 40
        assert [s.level for s in sketch.levels] == list(config.sketch_levels)

    def test_bad_magic_rejected(self):
        config = ProtocolConfig(delta=256, dimension=2, k=3, seed=5)
        reconciler = HierarchicalReconciler(config)
        payload = bytearray(reconciler.encode([(1, 1)]))
        payload[0] ^= 0xFF
        with pytest.raises(SerializationError):
            HierarchySketch.from_bytes(bytes(payload), config, reconciler.grid)

    def test_truncated_rejected(self):
        config = ProtocolConfig(delta=256, dimension=2, k=3, seed=5)
        reconciler = HierarchicalReconciler(config)
        payload = reconciler.encode([(1, 1)])
        with pytest.raises(SerializationError):
            HierarchySketch.from_bytes(payload[: len(payload) // 2], config, reconciler.grid)


class TestExactRegime:
    """With no noise the protocol degenerates to exact set reconciliation."""

    def test_identical_sets(self):
        config = ProtocolConfig(delta=512, dimension=2, k=2, seed=1)
        rng = random.Random(1)
        points = [(rng.randrange(512), rng.randrange(512)) for _ in range(100)]
        result = reconcile(points, list(points), config)
        assert result.level == 0
        assert sorted(result.repaired) == sorted(points)

    def test_pure_insertions_recovered_exactly(self):
        config = ProtocolConfig(delta=512, dimension=2, k=4, seed=2)
        rng = random.Random(2)
        shared = [(rng.randrange(512), rng.randrange(512)) for _ in range(80)]
        alice_only = [(500, 1), (2, 499)]
        bob_only = [(250, 250), (10, 10)]
        result = reconcile(shared + alice_only, shared + bob_only, config)
        assert result.level == 0
        assert sorted(result.repaired) == sorted(shared + alice_only)

    def test_exact_flag(self):
        config = ProtocolConfig(delta=64, dimension=1, k=2, seed=3)
        result = reconcile([(1,), (60,)], [(1,), (50,)], config)
        assert result.exact
        assert sorted(result.repaired) == [(1,), (60,)]

    def test_duplicate_points_handled(self):
        config = ProtocolConfig(delta=64, dimension=1, k=2, seed=4)
        alice = [(5,), (5,), (5,), (40,)]
        bob = [(5,), (40,), (40,)]
        result = reconcile(alice, bob, config)
        assert sorted(result.repaired) == sorted(alice)


class TestNoisyRegime:
    def test_repaired_size_invariant(self):
        config = ProtocolConfig(delta=4096, dimension=2, k=4, seed=5)
        rng = random.Random(5)
        alice, bob = perturbed_workload(rng, 150, 4, 4096, 2, noise=3)
        result = reconcile(alice, bob, config)
        assert len(result.repaired) == len(alice)

    def test_emd_improves(self):
        config = ProtocolConfig(delta=4096, dimension=2, k=4, seed=6)
        rng = random.Random(6)
        alice, bob = perturbed_workload(rng, 150, 4, 4096, 2, noise=3)
        result = reconcile(alice, bob, config)
        assert emd(alice, result.repaired) < emd(alice, bob)

    def test_noise_only_stays_cheap(self):
        """Noise without true differences should decode at a fine level and
        barely touch the set."""
        config = ProtocolConfig(delta=2**16, dimension=2, k=4, seed=7)
        rng = random.Random(7)
        alice, bob = perturbed_workload(rng, 200, 0, 2**16, 2, noise=2)
        result = reconcile(alice, bob, config)
        # The decode level should be far below the top of a 16-level grid.
        assert result.level <= 8
        assert len(result.repaired) == len(alice)

    def test_probe_modes_agree(self):
        config = ProtocolConfig(delta=4096, dimension=2, k=4, seed=8)
        rng = random.Random(8)
        alice, bob = perturbed_workload(rng, 120, 4, 4096, 2, noise=2)
        reconciler = HierarchicalReconciler(config)
        payload = reconciler.encode(alice)
        binary = reconciler.decode_and_repair(payload, bob, probe="binary")
        linear = reconciler.decode_and_repair(payload, bob, probe="linear")
        assert binary.level == linear.level
        assert sorted(binary.repaired) == sorted(linear.repaired)

    def test_binary_probe_is_cheaper(self):
        config = ProtocolConfig(delta=2**18, dimension=2, k=4, seed=9)
        rng = random.Random(9)
        alice, bob = perturbed_workload(rng, 150, 4, 2**18, 2, noise=4)
        reconciler = HierarchicalReconciler(config)
        payload = reconciler.encode(alice)
        binary = reconciler.decode_and_repair(payload, bob, probe="binary")
        linear = reconciler.decode_and_repair(payload, bob, probe="linear")
        assert len(binary.levels_probed) < len(linear.levels_probed)

    def test_one_round_and_one_message(self):
        config = ProtocolConfig(delta=1024, dimension=2, k=3, seed=10)
        rng = random.Random(10)
        alice, bob = perturbed_workload(rng, 80, 2, 1024, 2, noise=2)
        channel = SimulatedChannel()
        result = reconcile(alice, bob, config, channel=channel)
        assert result.transcript.rounds == 1
        assert result.transcript.bob_to_alice_bits == 0
        assert result.transcript.total_bits == result.transcript.alice_to_bob_bits

    def test_strategy_validated(self):
        config = ProtocolConfig(delta=64, dimension=1, k=2, seed=11)
        with pytest.raises(ConfigError):
            reconcile([(1,)], [(2,)], config, strategy="nonsense")


class TestFailureModes:
    def test_hopeless_difference_raises(self):
        """Two unrelated sets with tiny k: every level overflows."""
        config = ProtocolConfig(
            delta=2**16, dimension=2, k=1, seed=12, diff_margin=1.0,
            levels=tuple(range(4)),  # deny the protocol its coarse levels
        )
        rng = random.Random(12)
        alice = [(rng.randrange(2**16), rng.randrange(2**16)) for _ in range(300)]
        bob = [(rng.randrange(2**16), rng.randrange(2**16)) for _ in range(300)]
        with pytest.raises(ReconciliationFailure):
            reconcile(alice, bob, config)

    def test_unknown_probe_mode(self):
        config = ProtocolConfig(delta=64, dimension=1, k=2, seed=13)
        reconciler = HierarchicalReconciler(config)
        payload = reconciler.encode([(1,)])
        with pytest.raises(ReconciliationFailure):
            reconciler.decode_and_repair(payload, [(2,)], probe="quantum")

    def test_repair_from_sketch_rejects_empty_sketch(self):
        """A sketch carrying zero levels must fail loudly, not IndexError."""
        config = ProtocolConfig(delta=256, dimension=1, k=2, seed=3)
        reconciler = HierarchicalReconciler(config)
        empty = HierarchySketch(n_points=0, levels=[])
        with pytest.raises(ReconciliationFailure, match="no levels"):
            reconciler.repair_from_sketch(empty, [(2,)])

    def test_corrupted_payload_fails_or_degrades_gracefully(self):
        """A flipped byte corrupts one level's cells; the checksums make
        that level undecodable, and the protocol either repairs from
        another (clean) level or raises — it must never return a
        wrong-sized set."""
        config = ProtocolConfig(delta=64, dimension=1, k=2, seed=14)
        reconciler = HierarchicalReconciler(config)
        alice = [(1,), (5,)]
        bob = [(1,), (9,)]
        raised = 0
        for position_fraction in (0.3, 0.5, 0.7, 0.9):
            payload = bytearray(reconciler.encode(alice))
            payload[int(len(payload) * position_fraction)] ^= 0xFF
            try:
                result = reconciler.decode_and_repair(bytes(payload), bob)
            except (SerializationError, ReconciliationFailure):
                raised += 1
            else:
                assert len(result.repaired) == len(alice)

    def test_truncation_raises(self):
        config = ProtocolConfig(delta=64, dimension=1, k=2, seed=14)
        reconciler = HierarchicalReconciler(config)
        payload = reconciler.encode([(1,), (5,)])
        with pytest.raises(SerializationError):
            reconciler.decode_and_repair(payload[:-4], [(1,), (9,)])


class TestGuaranteeStatistics:
    def test_emd_within_predicted_bound(self):
        """The paper's O(d)-approximation, checked over several seeds."""
        from repro.core.bounds import predicted_emd_bound
        from repro.emd.partial import emd_k

        delta, dimension, k, n = 4096, 2, 4, 100
        hits = 0
        trials = 5
        for seed in range(trials):
            config = ProtocolConfig(delta=delta, dimension=dimension, k=k, seed=seed)
            rng = random.Random(100 + seed)
            alice, bob = perturbed_workload(rng, n, k, delta, dimension, noise=4)
            result = reconcile(alice, bob, config)
            achieved = emd(alice, result.repaired)
            baseline = emd_k(alice, bob, k)
            bound = predicted_emd_bound(max(baseline, 1.0), k, dimension,
                                        config.diff_margin)
            if achieved <= bound:
                hits += 1
        assert hits >= trials - 1  # the guarantee holds in expectation
