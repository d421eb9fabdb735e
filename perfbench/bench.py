"""The measuring loop and the end-to-end metrics.

Set-up: several server set-ups (after one warm-up), each bracketed by
reference samples; ``setup_s`` is the median of the normalised times.

Measuring: a closed loop of operations in blocks of about ``BLOCK_S``
seconds, with one reference sample between blocks.  Every operation is
normalised by the median of the samples within ``WINDOW_S`` of its
block (see :func:`perfbench.refkernel.paired_refs`).
"""

from __future__ import annotations

import gc
import resource
import time
from dataclasses import dataclass, field

from perfbench.refkernel import (
    NOMINAL_MS,
    normalised,
    normalised_total,
    paired_refs,
    sample_reference,
)
from perfbench.spans import SpanRecorder, percentile, stratified
from perfbench.workloads import Op

#: Set-ups per run: at least ``MIN_SETUPS``, more while the set-ups so
#: far took less than ``SETUP_BUDGET_S``, at most ``MAX_SETUPS``.
MIN_SETUPS = 3
MAX_SETUPS = 25
SETUP_BUDGET_S = 1.5
BLOCK_S = 0.03
#: Reference samples within this many seconds of a block pair with it.
WINDOW_S = 0.15


@dataclass
class Phase:
    """What one stretch of the measured loop saw."""

    ops: list[Op] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)
    samples: list[float] = field(default_factory=list)
    #: Traced phases only: the spans, and the server-side session times.
    recorder: SpanRecorder | None = None
    sessions: list[float] = field(default_factory=list)

    def op_seconds(self) -> list[float]:
        return [op.sync_s + op.other_s for op in self.ops]

    def mean_op_ref_ms(self) -> float:
        return normalised_total(self.op_seconds(), self.refs)

    def ingest_ms(self) -> list[float]:
        """The timed non-sync part of each operation (the ``store-ingest``
        ingest), in reference ms; empty on the other workloads."""
        pairs = [(op.other_s, ref) for op, ref in zip(self.ops, self.refs)
                 if op.other_s]
        return normalised([m for m, _ in pairs], [r for _, r in pairs])

    def ref_scale(self) -> float:
        """Reference ms per raw second over this phase."""
        return NOMINAL_MS / (sum(self.refs) / len(self.refs))


async def measure_setups(workload):
    """Time several set-ups (plus an untimed warm-up), tearing each down.

    Returns (raw seconds, paired reference seconds).
    """
    raw, refs = [], []
    attempt = 0
    while len(raw) < MIN_SETUPS or (
        sum(raw) < SETUP_BUDGET_S and len(raw) < MAX_SETUPS
    ):
        gc.collect()
        before = sample_reference()
        started = time.perf_counter()
        server = await workload.setup()
        elapsed = time.perf_counter() - started
        after = sample_reference()
        await workload.teardown(server)
        if attempt:
            raw.append(elapsed)
            refs.append((before + after) / 2)
        attempt += 1
    return raw, refs


async def measure_ops(workload, server, seconds: float, recorder=None):
    """Run the closed loop for ``seconds``; returns (phase, server).

    The server may be replaced when the workload asks for a restart
    (``cycle_done``); the restart is not timed, and the block after it
    opens with a fresh reference sample.
    """
    phase = Phase()
    # Server and client share this process, and the benchmark holds its
    # own inputs and recordings; frozen, that heap stays out of every
    # full collection, so a sync pays for the garbage it makes, not for
    # scanning a heap no single endpoint would hold.
    gc.collect()
    gc.freeze()
    at: list[float] = []
    blocks: list[tuple[int, int]] = []

    def sample() -> None:
        at.append(time.perf_counter())
        phase.samples.append(sample_reference())

    deadline = time.perf_counter() + seconds
    sample()
    while time.perf_counter() < deadline:
        if workload.cycle_done():
            await workload.teardown(server)
            server = await workload.setup()
            sample()
        block_start = time.perf_counter()
        count = 0
        while True:
            if recorder is not None:
                recorder.sync_id = len(phase.ops) + 1
            phase.ops.append(await workload.op(server))
            if recorder is not None:
                recorder.sync_id = 0
            count += 1
            if (time.perf_counter() - block_start >= BLOCK_S
                    or workload.cycle_done()):
                break
        blocks.append((len(phase.samples) - 1, count))
        sample()
    gc.unfreeze()
    phase.refs = paired_refs(at, phase.samples, blocks, WINDOW_S)
    return phase, server


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(phase: Phase, setups, exact: dict, rss_mb: float) -> dict:
    """The end-to-end metrics, by name: (value, unit, note)."""
    latencies = stratified(
        normalised([op.sync_s for op in phase.ops], phase.refs),
        [op.stratum for op in phase.ops],
    )
    setup_ref_ms = normalised(*setups)
    raw_sync_ms = [op.sync_s * 1000 for op in phase.ops]
    count = len(phase.ops)
    thin = "" if latencies.p95_supported else " (thin: <10 beyond p95)"
    return {
        "syncs_per_s": (
            1000 / phase.mean_op_ref_ms(), "1/s",
            f"n={count}, raw {count / sum(phase.op_seconds()):.2f}/s",
        ),
        "sync_p50_ms": (
            latencies.p50, "ms",
            f"n={count}, raw {percentile(raw_sync_ms, 0.5):.3f} ms",
        ),
        "sync_p95_ms": (
            latencies.p95, "ms",
            f"n={count}, {latencies.beyond_p95} beyond{thin}, "
            f"raw {percentile(raw_sync_ms, 0.95):.3f} ms",
        ),
        "setup_s": (
            percentile(setup_ref_ms, 0.5) / 1000, "s",
            f"n={len(setup_ref_ms)}, raw "
            f"{percentile(setups[0], 0.5):.4f} s",
        ),
        "payload_bytes_per_sync": (
            exact["payload_bytes_per_sync"], "B", "exact",
        ),
        "rounds_per_sync": (exact["rounds_per_sync"], "count", "exact"),
        "ok_share": (1.0, "share", f"{count}/{count} ops"),
        "peak_rss_mb": (rss_mb, "MB", "server and client in one process"),
    }
