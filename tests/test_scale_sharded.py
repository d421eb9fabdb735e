"""Tests for the sharded reconciliation engine (partition, wire, engine)."""

from __future__ import annotations

import pytest

from repro.core.config import ProtocolConfig
from repro.core.protocol import reconcile
from repro.errors import ConfigError, SerializationError
from repro.iblt.backends import available_backends
from repro.net.bits import BitReader, BitWriter
from repro.scale import (
    ShardedIncrementalSketch,
    ShardedReconciler,
    SpacePartitioner,
    reconcile_sharded,
)
from repro.scale.engine import SHARD_MAGIC, SHARD_VERSION, shard_protocol_config
from repro.scale.executors import make_executor
from repro.scale.partition import partition_level
from repro.workloads.synthetic import perturbed_pair

HAVE_NUMPY = "numpy" in available_backends()


def _workload(seed=3, n=400, true_k=8, noise=0.0, delta=2**12):
    model = "none" if noise == 0 else "uniform"
    return perturbed_pair(seed, n, delta, 2, true_k, noise, noise_model=model)


def _config(w, shards=4, **kwargs):
    kwargs.setdefault("k", 32)
    return ProtocolConfig(
        delta=w.delta, dimension=w.dimension, seed=5, shards=shards, **kwargs
    )


# ---------------------------------------------------------------- partition


class TestSpacePartitioner:
    def test_deterministic_across_instances(self):
        w = _workload()
        config = _config(w)
        a = SpacePartitioner(config)
        b = SpacePartitioner(config)
        assert a.level == b.level
        assert a.shard_ids(w.alice) == b.shard_ids(w.alice)

    def test_both_parties_agree_on_matching_points(self):
        w = _workload(noise=0)
        config = _config(w)
        partitioner = SpacePartitioner(config)
        # Alice and Bob share the base points; same point -> same shard.
        for point in w.alice[:50]:
            assert partitioner.shard_of(point) == partitioner.shard_of(point)

    def test_split_covers_every_point(self):
        w = _workload()
        config = _config(w)
        buckets = SpacePartitioner(config).split(w.alice)
        assert len(buckets) == config.shards
        merged = sorted(point for bucket in buckets for point in bucket)
        assert merged == sorted(w.alice)

    def test_single_shard_is_trivial(self):
        w = _workload()
        config = _config(w, shards=1)
        partitioner = SpacePartitioner(config)
        assert partitioner.shard_ids(w.alice[:20]) == [0] * 20

    def test_cells_nest_inside_shards(self):
        """Any cell at a level <= partition level maps into one shard."""
        w = _workload()
        config = _config(w)
        partitioner = SpacePartitioner(config)
        grid = partitioner.grid
        level = partitioner.level
        seen: dict[tuple, int] = {}
        for point in w.alice:
            cell = grid.cell(point, level)
            shard = partitioner.shard_of(point)
            assert seen.setdefault(cell, shard) == shard

    def test_scalar_and_vector_paths_agree(self):
        if not HAVE_NUMPY:
            pytest.skip("numpy unavailable")
        w = _workload(n=600)
        config = _config(w, shards=5)
        partitioner = SpacePartitioner(config)
        assert partitioner._shard_ids_fast(w.alice) == partitioner.shard_ids(w.alice)

    def test_reasonable_balance_on_uniform_data(self):
        w = _workload(n=2000)
        config = _config(w)
        sizes = [len(b) for b in SpacePartitioner(config).split(w.alice)]
        assert min(sizes) > 0
        assert max(sizes) < 2.5 * (sum(sizes) / len(sizes))

    def test_partition_level_scales_with_shards(self):
        w = _workload()
        fine = partition_level(_config(w, shards=16))
        coarse = partition_level(_config(w, shards=2))
        assert fine <= coarse


# ------------------------------------------------------------------- engine


class TestShardedReconciler:
    def test_noise_free_matches_unsharded_exactly(self):
        w = _workload(noise=0)
        sharded = reconcile_sharded(w.alice, w.bob, _config(w))
        unsharded = reconcile(w.alice, w.bob, _config(w, shards=1))
        assert sharded.exact and unsharded.exact
        assert sorted(sharded.repaired) == sorted(unsharded.repaired)
        assert sorted(sharded.repaired) == sorted(w.alice)

    def test_size_invariant_under_noise(self):
        w = _workload(noise=3.0)
        result = reconcile_sharded(w.alice, w.bob, _config(w))
        assert len(result.repaired) == len(w.alice)
        assert len(result.shard_levels) == 4
        assert result.level == max(result.shard_levels)

    def test_transcript_single_round(self):
        w = _workload(noise=0)
        result = reconcile_sharded(w.alice, w.bob, _config(w))
        assert result.transcript.rounds == 1
        assert result.transcript.message_labels == ("sharded-sketch",)

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_executors_agree(self, executor):
        w = _workload(noise=0)
        config = _config(w, workers=2, executor=executor)
        result = reconcile_sharded(w.alice, w.bob, config)
        assert sorted(result.repaired) == sorted(w.alice)

    def test_centroid_strategy(self):
        w = _workload(noise=2.0)
        result = reconcile_sharded(w.alice, w.bob, _config(w), strategy="centroid")
        assert len(result.repaired) == len(w.alice)

    def test_empty_and_tiny_shards(self):
        # 3 points over 4 shards: at least one shard is empty on both sides.
        config = ProtocolConfig(delta=256, dimension=1, k=2, seed=7, shards=4)
        result = reconcile_sharded([(10,), (200,)], [(11,), (200,)], config)
        assert len(result.repaired) == 2

    def test_merged_plan_matches_surplus_counts(self):
        w = _workload(noise=0)
        result = reconcile_sharded(w.alice, w.bob, _config(w))
        plan = result.plan
        assert len(plan.additions) == result.alice_surplus
        assert len(plan.removals) == result.bob_surplus

    def test_shard_config_sizing(self):
        w = _workload()
        config = _config(w, k=32, shards=4)
        sub = shard_protocol_config(config)
        assert sub.k == 8 and sub.shards == 1
        assert shard_protocol_config(_config(w, shards=1)).k == 32

    def test_pure_and_fast_paths_bit_identical(self):
        if not HAVE_NUMPY:
            pytest.skip("numpy unavailable")
        w = _workload(noise=2.0)
        with ShardedReconciler(_config(w, backend="pure")) as pure_engine, \
                ShardedReconciler(_config(w, backend="numpy")) as fast_engine:
            pure_payload = pure_engine.encode(w.alice)
            fast_payload = fast_engine.encode(w.alice)
            assert pure_payload == fast_payload
            pure_result = pure_engine.decode_and_repair(pure_payload, w.bob)
            fast_result = fast_engine.decode_and_repair(pure_payload, w.bob)
            assert pure_result.shard_levels == fast_result.shard_levels
            assert sorted(pure_result.repaired) == sorted(fast_result.repaired)

    @pytest.mark.parametrize("backend", ["pure", "numpy"])
    def test_unknown_strategy_rejected_on_every_backend(self, backend):
        # Regression: the numpy path once took any unknown strategy as
        # "centroid" while the pure path raised.
        if backend == "numpy" and not HAVE_NUMPY:
            pytest.skip("numpy unavailable")
        w = _workload(noise=2.0, n=100)
        with pytest.raises(ConfigError, match="strategy"):
            reconcile_sharded(
                w.alice, w.bob, _config(w, backend=backend), strategy="nonsense"
            )

    def test_mismatched_shard_count_rejected(self):
        w = _workload(noise=0)
        with ShardedReconciler(_config(w, shards=4)) as four:
            payload = four.encode(w.alice)
        with ShardedReconciler(_config(w, shards=2)) as two:
            with pytest.raises(SerializationError):
                two.decode_and_repair(payload, w.bob)


# --------------------------------------------------------------------- wire


class TestShardedWire:
    def _payload_and_engine(self):
        w = _workload(noise=0, n=100)
        engine = ShardedReconciler(_config(w))
        return w, engine, engine.encode(w.alice)

    def test_bad_magic(self):
        w, engine, payload = self._payload_and_engine()
        with pytest.raises(SerializationError, match="magic"):
            engine.decode_and_repair(b"\x00" + payload[1:], w.bob)

    def test_bad_version(self):
        w, engine, payload = self._payload_and_engine()
        tampered = bytes([payload[0], 99]) + payload[2:]
        with pytest.raises(SerializationError, match="version"):
            engine.decode_and_repair(tampered, w.bob)

    def test_truncation(self):
        w, engine, payload = self._payload_and_engine()
        with pytest.raises(SerializationError):
            engine.decode_and_repair(payload[: len(payload) // 2], w.bob)

    def test_trailing_garbage(self):
        w, engine, payload = self._payload_and_engine()
        with pytest.raises(SerializationError):
            engine.decode_and_repair(payload + b"\xff", w.bob)

    def test_directory_count_mismatch(self):
        w, engine, payload = self._payload_and_engine()
        counts, payloads = engine.parse_frame(payload)
        writer = BitWriter()
        writer.write_uint(SHARD_MAGIC, 8)
        writer.write_uint(SHARD_VERSION, 8)
        writer.write_varint(engine.config.shards)
        writer.write_varint(engine.partitioner.level)
        for count in counts:
            writer.write_varint(count + 1)  # lie about every shard's size
        for shard_payload in payloads:
            writer.write_bytes(shard_payload)
        with pytest.raises(SerializationError, match="directory"):
            engine.decode_and_repair(writer.getvalue(), w.bob)

    def test_duplicate_level_in_shard_payload(self):
        from repro.scale.wire import read_shard_sketch

        w, engine, payload = self._payload_and_engine()
        _, payloads = engine.parse_frame(payload)
        shard_payload = payloads[0]
        reader = BitReader(shard_payload)
        reader.read_uint(8), reader.read_uint(8)
        n_points = reader.read_varint()
        n_levels = reader.read_varint()
        level = reader.read_varint()
        blob = reader.read_bytes()
        writer = BitWriter()
        writer.write_uint(0xB7, 8)
        writer.write_uint(2, 8)
        writer.write_varint(n_points)
        writer.write_varint(n_levels)
        for _ in range(2):  # carry the first level twice
            writer.write_varint(level)
            writer.write_bytes(blob)
        with pytest.raises(SerializationError, match="twice"):
            read_shard_sketch(
                writer.getvalue(), engine.shard_config, engine.grid
            )

    def test_blob_length_mismatch(self):
        from repro.scale.wire import read_shard_sketch

        w, engine, payload = self._payload_and_engine()
        _, payloads = engine.parse_frame(payload)
        reader = BitReader(payloads[0])
        reader.read_uint(8), reader.read_uint(8)
        n_points = reader.read_varint()
        reader.read_varint()
        level = reader.read_varint()
        blob = reader.read_bytes()
        writer = BitWriter()
        writer.write_uint(0xB7, 8)
        writer.write_uint(2, 8)
        writer.write_varint(n_points)
        writer.write_varint(1)
        writer.write_varint(level)
        writer.write_bytes(blob[:-1])  # short blob
        with pytest.raises(SerializationError, match="blob"):
            read_shard_sketch(
                writer.getvalue(), engine.shard_config, engine.grid
            )

    def test_codec_roundtrip_preserves_tables(self):
        from repro.scale.wire import read_shard_sketch, write_shard_sketch
        from repro.core.sketch import build_level_sketches

        w = _workload(noise=0, n=60)
        config = shard_protocol_config(_config(w))
        engine = ShardedReconciler(_config(w))
        sketches = build_level_sketches(config, engine.grid, w.alice[:40])
        payload = write_shard_sketch(40, sketches)
        parsed = read_shard_sketch(payload, config, engine.grid)
        assert parsed.n_points == 40
        assert [s.level for s in parsed.levels] == [s.level for s in sketches]
        for original, decoded in zip(sketches, parsed.levels):
            assert list(map(int, original.table.counts)) == list(
                map(int, decoded.table.counts)
            )
            assert list(map(int, original.table.key_sums)) == list(
                map(int, decoded.table.key_sums)
            )


# -------------------------------------------------------------- incremental


class TestShardedIncremental:
    def test_bulk_load_bit_identical_to_fresh_encode(self):
        w = _workload(noise=0)
        config = _config(w)
        sketch = ShardedIncrementalSketch(config)
        sketch.insert_all(w.alice)
        with ShardedReconciler(config) as engine:
            assert sketch.encode() == engine.encode(w.alice)

    def test_point_updates_stay_bit_identical(self):
        w = _workload(noise=0, n=120)
        config = _config(w)
        sketch = ShardedIncrementalSketch(config)
        sketch.insert_all(w.alice)
        extra = [(1, 2), (3000, 7), (9, 4000)]
        for point in extra:
            sketch.insert(point)
        sketch.remove(w.alice[0])
        final = [p for p in w.alice[1:]] + extra
        with ShardedReconciler(config) as engine:
            assert sketch.encode() == engine.encode(final)

    def test_update_touches_one_shard(self):
        w = _workload(noise=0, n=200)
        config = _config(w)
        sketch = ShardedIncrementalSketch(config)
        sketch.insert_all(w.alice)
        before = sketch.shard_sizes()
        point = (17, 23)
        sketch.insert(point)
        after = sketch.shard_sizes()
        changed = [i for i in range(config.shards) if before[i] != after[i]]
        assert changed == [sketch.partitioner.shard_of(point)]
        assert sketch.n_points == len(w.alice) + 1

    def test_incremental_payload_decodes(self):
        w = _workload(noise=0)
        config = _config(w)
        sketch = ShardedIncrementalSketch(config)
        sketch.insert_all(w.alice)
        with ShardedReconciler(config) as engine:
            result = engine.decode_and_repair(sketch.encode(), w.bob)
        assert sorted(result.repaired) == sorted(w.alice)


# ---------------------------------------------------------------- executors


class TestExecutors:
    def test_make_serial(self):
        executor = make_executor("serial", None, 4)
        assert executor.map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]
        executor.close()

    def test_make_thread_preserves_order(self):
        with make_executor("thread", 2, 4) as executor:
            assert executor.kind in ("thread", "serial")
            assert executor.map(lambda x: -x, list(range(10))) == [
                -x for x in range(10)
            ]

    def test_auto_resolves(self):
        with make_executor("auto", None, 4, "pure") as executor:
            assert executor.kind in ("serial", "thread", "process")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            make_executor("gpu", None, 4)


# ------------------------------------------------------------------- config


class TestConfigKnobs:
    def test_shards_validated(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(delta=256, dimension=1, k=2, shards=0)

    def test_workers_validated(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(delta=256, dimension=1, k=2, workers=0)

    def test_executor_validated(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(delta=256, dimension=1, k=2, executor="quantum")

    def test_empty_levels_rejected(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(delta=256, dimension=1, k=2, levels=())
