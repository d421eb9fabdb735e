"""Replay verification, the exact-metric guard and the store template."""

import asyncio
import dataclasses
import json

import pytest

from repro.net.channel import Direction

from perfbench import ledger, run, workloads
from perfbench.replay import ReplayMismatch, replay


class SmallRateless(workloads.RatelessReplay):
    n = 300


class SmallStore(workloads.StoreIngest):
    BASE_N = 300
    WAL_BATCHES = 3
    BATCH = 20
    CYCLE = 2


def _flip(recording, direction):
    """The recording with one byte of the first ``direction`` frame flipped."""
    messages = list(recording.messages)
    index = next(
        i for i, m in enumerate(messages) if m.direction is direction
    )
    payload = bytearray(messages[index].payload)
    payload[len(payload) // 2] ^= 0x01
    messages[index] = dataclasses.replace(messages[index], payload=bytes(payload))
    return dataclasses.replace(recording, messages=tuple(messages))


def test_flipped_server_frame_is_a_mismatch(tmp_path):
    async def main():
        workload = SmallRateless(3, tmp_path)
        workload.prepare()
        server = await workload.setup()
        try:
            await workload.begin(server)
            (good,) = workload.recordings
            with pytest.raises(ReplayMismatch):
                await replay(
                    *server.address, _flip(good, Direction.ALICE_TO_BOB)
                )
            await replay(*server.address, good)  # the original still verifies
        finally:
            await workload.teardown(server)
            await workload.close()

    asyncio.run(main())


@pytest.mark.parametrize("direction", list(Direction))
def test_corrupt_recording_fails_the_run_without_metrics(
    monkeypatch, capsys, direction
):
    real_record = workloads.record

    async def corrupted(*args, **kwargs):
        recording, result = await real_record(*args, **kwargs)
        return _flip(recording, direction), result

    monkeypatch.setattr(workloads, "record", corrupted)
    monkeypatch.setattr(workloads.RatelessReplay, "n", 300)
    code = run.main([
        "--workload", "rateless-replay", "--seed", "5", "--seconds", "0.2",
    ])
    out = capsys.readouterr()
    assert code != 0
    assert '"correct"' not in out.out
    assert "CHECK FAILED" in out.err


@dataclasses.dataclass
class FakeWorkload:
    name: str = "w"
    seed: int = 1
    exact: dict = dataclasses.field(default_factory=lambda: {"bytes": 10})
    digests: dict = dataclasses.field(default_factory=lambda: {"rec": "ab"})


def test_exact_metric_drift_is_a_determinism_failure(tmp_path):
    book = tmp_path / "ledger"
    ledger.check_exact(tmp_path, book, FakeWorkload())
    ledger.check_exact(tmp_path, book, FakeWorkload())  # same values pass
    with pytest.raises(ledger.DeterminismFailure, match="exact.bytes"):
        ledger.check_exact(tmp_path, book, FakeWorkload(exact={"bytes": 11}))
    with pytest.raises(ledger.DeterminismFailure, match="digests.rec"):
        ledger.check_exact(tmp_path, book, FakeWorkload(digests={"rec": "ac"}))
    # Another seed has its own entry.
    ledger.check_exact(tmp_path, book, FakeWorkload(seed=2, exact={"bytes": 11}))
    (entry,) = (book).glob("*/w-seed1.json")
    assert json.loads(entry.read_text())["exact"] == {"bytes": "10"}


def test_cold_starts_copy_a_pristine_template(tmp_path):
    workload = SmallStore(4, tmp_path)
    workload.prepare()
    first = workload.core()
    first.ingest(workload.batch(99)[0])  # lands in this copy's WAL only
    second = workload.core()
    assert second.store.recovery == first.store.recovery
    assert first.store.recovery.replayed_records == SmallStore.WAL_BATCHES
    assert first.store.recovery.source == "snapshot+wal"
    # A live ingest into the template itself is caught at the next start.
    from repro.store import DurableSketchStore

    shared = DurableSketchStore.open(workload.config, str(workload.template))
    shared.insert_batch(workload.batch(98)[0])
    with pytest.raises(workloads.CheckFailed, match="cold start recovered"):
        workload.core()
