"""B10 — Durability: cold-start time-to-serving and the WAL/snapshot trade.

Three measurements over a real store directory:

1. **Cold start** — time-to-serving for a server restarting over an
   ``n``-point store: open the published snapshot and encode the
   one-round message, versus the storeless path (rebuild the incremental
   sketch from the raw point list with ``insert_all`` and encode).  Recorded: both wall
   times, the snapshot size, and their ratio — the payoff durability
   buys on top of crash-safety.
2. **WAL replay rate** — replay seconds, replayed MB/s and deltas/s
   for ``batches`` un-snapshotted WAL records, plus the per-batch
   append overhead the WAL-before-ack contract costs a live insert.
   Replay is timed on a dedicated store whose snapshot is tiny, so the
   open is replay-dominated — subtracting two multi-second snapshot
   loads at n=1e6 would bury the replay in their noise.  (Delta apply
   is O(cells touched), independent of the base sketch size, so the
   rate transfers to the big store.)
3. **Snapshot-vs-replay crossover** — recovery time as the WAL grows,
   against the one-off cost of publishing a snapshot.  The recorded
   crossover (``snapshot_ms / replay_ms_per_batch``) is the batch count
   beyond which rotating the snapshot is cheaper than replaying on the
   next boot — the number ``DurableSketchStore.snapshot_every_bytes``
   is tuned by.

Every phase cross-checks bit-identity: the recovered sketch's encode
must equal the from-scratch encode of the same points.  The JSON record
(``b10_store.json`` / ``b10_store_smoke.json``) is the artifact CI
consumes; the full run (n=1e6) is mirrored to ``BENCH_10.json`` at the
repo root.
"""

from __future__ import annotations

import pathlib
import random
import tempfile
import time

from benchmarks._harness import schema2_payload
from repro.analysis.tables import Table
from repro.core.config import ProtocolConfig
from repro.core.incremental import IncrementalSketch
from repro.store import DurableSketchStore
from repro.store.store import WAL_NAME
from repro.workloads.synthetic import uniform_points

DELTA = 2**16
SEED = 0

#: Recorded-run scale: the paper-regime n the serve benchmarks use.
FULL_N = 1_000_000
FULL_BATCHES = 32
BATCH_POINTS = 1_000


def _config() -> ProtocolConfig:
    return ProtocolConfig(delta=DELTA, dimension=2, k=8, seed=SEED)


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def experiment(n=FULL_N, batches=FULL_BATCHES, batch_points=BATCH_POINTS):
    """Run all three phases in one temp store; returns (payload, text)."""
    config = _config()
    points = uniform_points(random.Random(SEED), n, DELTA, 2)
    live = uniform_points(random.Random(SEED + 1), batches * batch_points,
                          DELTA, 2)
    with tempfile.TemporaryDirectory(prefix="b10-store-") as directory:
        store = DurableSketchStore.open(config, directory)
        _, bulk_s = _timed(lambda: store.bulk_load(points))
        snapshot_bytes = len(store.storage.read("snapshot.bin"))

        # Phase 1: cold start, snapshot only.
        (snap_store, open_snap_s) = _timed(
            lambda: DurableSketchStore.open(config, directory)
        )
        _, encode_snap_s = _timed(snap_store.one_round_encode)

        def from_scratch():
            sketch = IncrementalSketch(config)
            sketch.insert_all(points)
            return sketch.encode()

        scratch_encoded, scratch_s = _timed(from_scratch)
        assert snap_store.one_round_encode() == scratch_encoded
        serving_store_s = open_snap_s + encode_snap_s

        # Phase 2: WAL growth + recovery correctness on the big store.
        batch_seconds = []
        for index in range(batches):
            batch = live[index * batch_points:(index + 1) * batch_points]
            _, seconds = _timed(lambda b=batch: store.insert_batch(b))
            batch_seconds.append(seconds)
        wal_bytes = len(store.storage.read(WAL_NAME))

        wal_store = DurableSketchStore.open(config, directory)
        recovery = wal_store.recovery
        assert recovery.replayed_records == batches
        assert recovery.n_points == n + len(live)

        def scratch_with_live():
            sketch = IncrementalSketch(config)
            sketch.insert_all(points + live)
            return sketch.encode()

        assert wal_store.one_round_encode() == scratch_with_live()

        # Phase 2b: replay rate, timed where replay dominates — a store
        # with a token-sized snapshot carrying the same WAL records.
        with tempfile.TemporaryDirectory(prefix="b10-wal-") as wal_dir:
            tiny = DurableSketchStore.open(
                config, wal_dir, snapshot_every_bytes=1 << 62
            )
            tiny.bulk_load(live[:batch_points])
            _, open_tiny_s = _timed(
                lambda: DurableSketchStore.open(config, wal_dir)
            )
            for index in range(batches):
                tiny.insert_batch(
                    live[index * batch_points:(index + 1) * batch_points]
                )
            tiny_wal_bytes = len(tiny.storage.read(WAL_NAME))
            (tiny_recovered, open_tiny_wal_s) = _timed(
                lambda: DurableSketchStore.open(config, wal_dir)
            )
            assert tiny_recovered.recovery.replayed_records == batches
            replayed_deltas = tiny_recovered.recovery.replayed_deltas
            replay_s = max(open_tiny_wal_s - open_tiny_s, 1e-9)

        # Phase 3: snapshot cost -> crossover estimate.
        _, snapshot_s = _timed(store.snapshot)
        (rotated, open_rotated_s) = _timed(
            lambda: DurableSketchStore.open(config, directory)
        )
        assert rotated.recovery.replayed_records == 0
        replay_per_batch_s = replay_s / batches
        crossover_batches = snapshot_s / max(replay_per_batch_s, 1e-9)

    rows = [
        {
            "phase": "cold-start", "n": n,
            "open_ms": round(open_snap_s * 1000, 1),
            "encode_ms": round(encode_snap_s * 1000, 1),
            "serving_ms": round(serving_store_s * 1000, 1),
            "scratch_ms": round(scratch_s * 1000, 1),
            "speedup": round(scratch_s / serving_store_s, 2),
            "snapshot_bytes": snapshot_bytes,
        },
        {
            "phase": "wal-replay", "records": batches,
            "wal_bytes": wal_bytes,
            "replay_ms": round(replay_s * 1000, 1),
            "replay_mb_per_s": round(tiny_wal_bytes / replay_s / 1e6, 3),
            "replayed_deltas": replayed_deltas,
            "deltas_per_s": round(replayed_deltas / replay_s),
            "append_ms_per_batch": round(
                sum(batch_seconds) / len(batch_seconds) * 1000, 2
            ),
        },
        {
            "phase": "crossover",
            "snapshot_ms": round(snapshot_s * 1000, 1),
            "open_after_rotate_ms": round(open_rotated_s * 1000, 1),
            "replay_ms_per_batch": round(replay_per_batch_s * 1000, 2),
            "crossover_batches": round(crossover_batches, 1),
        },
    ]

    table = Table(
        ["phase", "headline", "detail"],
        title=(
            f"B10: durable-store cold start at n={n} "
            f"(+{batches} WAL batches of {batch_points})"
        ),
    )
    table.add_row([
        "cold-start",
        f"serving in {rows[0]['serving_ms']} ms",
        f"vs {rows[0]['scratch_ms']} ms from scratch "
        f"({rows[0]['speedup']}x; snapshot {snapshot_bytes} B)",
    ])
    table.add_row([
        "wal-replay",
        f"{rows[1]['replay_mb_per_s']} MB/s",
        f"{batches} records / {wal_bytes} B in {rows[1]['replay_ms']} ms; "
        f"append {rows[1]['append_ms_per_batch']} ms/batch",
    ])
    table.add_row([
        "crossover",
        f"snapshot pays off past {rows[2]['crossover_batches']} batches",
        f"snapshot {rows[2]['snapshot_ms']} ms vs replay "
        f"{rows[2]['replay_ms_per_batch']} ms/batch",
    ])

    payload = schema2_payload(
        "b10_store",
        rows=rows,
        workload={
            "n": n, "delta": DELTA, "dimension": 2, "seed": SEED,
            "batches": batches,
            "batch_points": batch_points,
        },
    )
    return payload, table.render()


def _check_contract(payload):
    rows = {row["phase"]: row for row in payload["rows"]}
    assert rows["cold-start"]["serving_ms"] > 0
    assert rows["wal-replay"]["replay_mb_per_s"] > 0
    assert rows["crossover"]["crossover_batches"] > 0


def test_store_bench(benchmark, emit, emit_json):
    """The recorded B10 run: cold start at n=1e6 (BENCH_10.json)."""
    holder = {}

    def run():
        holder["payload"], holder["text"] = experiment()

    benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    emit("b10_store", holder["text"])
    emit_json("b10_store", holder["payload"])
    _check_contract(holder["payload"])
    # At the recorded scale the snapshot must beat the rebuild — that is
    # the time-to-serving claim the README makes.
    rows = {row["phase"]: row for row in holder["payload"]["rows"]}
    assert rows["cold-start"]["speedup"] > 1.0
    root_copy = pathlib.Path(__file__).resolve().parent.parent / "BENCH_10.json"
    root_copy.write_text(
        (pathlib.Path(__file__).resolve().parent / "results" /
         "b10_store.json").read_text()
    )


def test_store_smoke(emit, emit_json):
    """CI smoke: the full three-phase pipeline at tiny scale."""
    payload, text = experiment(n=20_000, batches=8, batch_points=250)
    emit("b10_store_smoke", text)
    emit_json("b10_store_smoke", payload)
    _check_contract(payload)


if __name__ == "__main__":
    print(experiment()[1])
