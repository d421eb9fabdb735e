"""The traced run: wrap each layer's public entry points, then turn the
spans into per-layer metrics.

Functions are patched where callers look them up: ``service.py``
imports ``read_frame``/``write_frame`` by name, so the names inside
``repro.serve.service`` are wrapped; the core modules import ``decode``,
``plan_repair`` and ``apply_repair`` by name, so each importer's copy is
wrapped.

The traced run first measures the workload untraced for half its time,
then traced for the other half, from a fresh set-up (so the store's
recovery is traced too).  Per-layer times are converted to reference ms
with the traced half's own reference samples; ``bench.trace_overhead_share``
compares the two halves.  Values are per sync unless the name says
otherwise.
"""

from __future__ import annotations

from repro.core import adaptive, protocol, rateless
from repro.core.adaptive import AdaptiveReconciler
from repro.core.protocol import HierarchicalReconciler
from repro.core.rateless import RatelessReconciler
from repro.core.sketch import HierarchySketch
from repro.iblt.table import IBLT
from repro.serve import handshake, service
from repro.session.base import Session
from repro.store import snapshot
from repro.store.storage import OsStorage
from repro.store.store import DurableSketchStore

from perfbench import bench
from perfbench.refkernel import NOMINAL_MS
from perfbench.spans import Patcher, SpanRecorder, percentile

HANDSHAKE = (
    "serve.config_digest", "serve.hello_bytes", "serve.parse_hello",
    "serve.welcome_bytes", "serve.parse_welcome",
)


def _role(span, args, result) -> None:
    span.attrs["role"] = args[0].role


def _levels(span, args, result) -> None:
    span.attrs["levels"] = len(result.levels_probed)


def _success(span, args, result) -> None:
    span.attrs["ok"] = bool(result.success)


def _data_len(span, args, result) -> None:
    span.attrs["bytes"] = len(args[1])


def _first_len(span, args, result) -> None:
    span.attrs["bytes"] = len(args[0])


def _appended(span, args, result) -> None:
    span.attrs["bytes"] = len(args[2])


def _recovered(span, args, result) -> None:
    span.attrs["records"] = result.recovery.replayed_records


def patch(patcher: Patcher) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    wrap = patcher.wrap
    # serve
    wrap(service, "read_frame", "serve.read_frame")
    wrap(service, "write_frame", "serve.write_frame")
    wrap(handshake, "config_digest", "serve.config_digest")
    wrap(handshake, "hello_bytes", "serve.hello_bytes")
    wrap(handshake, "parse_hello_record", "serve.parse_hello")
    wrap(handshake, "welcome_bytes", "serve.welcome_bytes")
    wrap(handshake, "parse_welcome", "serve.parse_welcome")
    # session
    wrap(Session, "start", "session.step", _role)
    wrap(Session, "feed", "session.step", _role)
    # core
    wrap(HierarchicalReconciler, "decode_and_repair",
         "core.decode_and_repair", _levels)
    wrap(HierarchicalReconciler, "level_table", "core.level_table")
    wrap(HierarchicalReconciler, "encode", "core.encode")
    wrap(DurableSketchStore, "one_round_encode", "core.encode")
    wrap(AdaptiveReconciler, "alice_respond", "core.adaptive_respond")
    wrap(RatelessReconciler, "alice_increment", "core.rateless_increment")
    for module in (protocol, adaptive, rateless):
        wrap(module, "plan_repair", "core.repair")
        wrap(module, "apply_repair", "core.repair")
    # iblt
    for module in (protocol, adaptive):
        wrap(module, "decode", "iblt.decode", _success)
    wrap(IBLT, "subtract", "iblt.subtract")
    wrap(IBLT, "insert_many", "iblt.insert")
    # net
    wrap(HierarchySketch, "from_bytes", "net.sketch_parse", _data_len)
    wrap(HierarchySketch, "to_bytes", "net.sketch_serialize")
    # store
    wrap(DurableSketchStore, "open", "store.open", _recovered)
    wrap(snapshot, "load_snapshot", "store.snapshot_load", _first_len)
    wrap(OsStorage, "read", "store.read")
    wrap(OsStorage, "append", "store.wal_append", _appended)
    wrap(OsStorage, "fsync", "store.fsync")
    wrap(DurableSketchStore, "insert_batch", "store.insert_batch")


async def traced_phase(workload, server, seconds: float):
    """Measure ``seconds`` with every layer wrapped, from a fresh set-up;
    returns (phase, server) with the spans on ``phase.recorder``."""
    recorder = SpanRecorder()
    with Patcher(recorder) as patcher:
        patch(patcher)
        await workload.teardown(server)
        server = await workload.setup()
        workload.session_seconds.clear()
        phase, server = await bench.measure_ops(
            workload, server, seconds, recorder
        )
    phase.recorder = recorder
    phase.sessions = list(workload.session_seconds)
    return phase, server


class _SpanTotals:
    """Span totals by name, split by whether a sync was in flight."""

    def __init__(self, recorder: SpanRecorder):
        self.spans = recorder.spans
        self.selfs = recorder.self_times()

    def select(self, name, during_sync=True, **attrs):
        for span, own in zip(self.spans, self.selfs):
            if span.name != name or (span.sync_id > 0) != during_sync:
                continue
            if all(span.attrs.get(k) == v for k, v in attrs.items()):
                yield span, own

    def total(self, names, own=False, during_sync=True, **attrs) -> float:
        if isinstance(names, str):
            names = (names,)
        return sum(
            own_s if own else span.duration
            for name in names
            for span, own_s in self.select(name, during_sync, **attrs)
        )

    def count(self, name, during_sync=True, **attrs) -> int:
        return sum(1 for _ in self.select(name, during_sync, **attrs))

    def attr_sum(self, name, key, during_sync=True) -> float:
        return sum(
            span.attrs.get(key, 0) for span, _ in self.select(name, during_sync)
        )


def per_layer(untraced, traced, exact: dict) -> dict:
    """The per-layer metrics, by name: (value, unit, note)."""
    spans = _SpanTotals(traced.recorder)
    syncs = len(traced.ops)
    scale = traced.ref_scale()  # reference ms per raw second

    def ms(seconds: float, per: float = syncs) -> float:
        return seconds * scale / per if per else 0.0

    setups = spans.count("store.open", during_sync=False)
    ingests = spans.count("store.insert_batch")
    decodes = spans.count("iblt.decode")
    sessions = traced.sessions
    ingest_ms = untraced.ingest_ms()
    samples_ms = [s * 1000 for s in untraced.samples + traced.samples]
    ref_q = [percentile(samples_ms, q) for q in (0.25, 0.5, 0.75)]
    overhead = traced.mean_op_ref_ms() / untraced.mean_op_ref_ms() - 1
    per_sync = f"per sync, n={syncs}"
    per_setup = f"per cold start, n={setups}"
    per_ingest = f"per ingest, n={ingests}"
    return {
        "serve.frames_per_sync": (
            spans.count("serve.write_frame") / syncs, "count", per_sync,
        ),
        "serve.frame_ms": (
            ms(spans.total("serve.write_frame", own=True)), "ms",
            f"{per_sync}; write_frame busy time, both ends",
        ),
        "serve.read_wait_ms": (
            ms(spans.total("serve.read_frame", own=True)), "ms",
            f"{per_sync}; read_frame time, mostly waiting for the peer",
        ),
        "serve.handshake_ms": (
            ms(spans.total(HANDSHAKE)), "ms", per_sync,
        ),
        "serve.server_session_ms": (
            percentile(sessions, 0.5) * scale if sessions else 0.0, "ms",
            f"p50 of SessionStats.duration_s, n={len(sessions)}",
        ),
        "session.alice_ms": (
            ms(spans.total("session.step", own=True, role="alice")), "ms",
            f"{per_sync}; self time",
        ),
        "session.bob_ms": (
            ms(spans.total("session.step", own=True, role="bob")), "ms",
            f"{per_sync}; self time",
        ),
        "core.decode_and_repair_ms": (
            ms(spans.total("core.decode_and_repair")), "ms", per_sync,
        ),
        "core.levels_probed": (
            spans.attr_sum("core.decode_and_repair", "levels") / syncs,
            "count", per_sync,
        ),
        "core.level_table_ms": (
            ms(spans.total("core.level_table")), "ms", per_sync,
        ),
        "core.repair_ms": (
            ms(spans.total("core.repair")), "ms",
            f"{per_sync}; plan_repair + apply_repair",
        ),
        "core.encode_ms": (
            ms(spans.total("core.encode")), "ms", per_sync,
        ),
        "core.adaptive_respond_ms": (
            ms(spans.total("core.adaptive_respond")), "ms", per_sync,
        ),
        "core.rateless_increments": (
            spans.count("core.rateless_increment") / syncs, "count",
            per_sync,
        ),
        "core.rateless_increment_ms": (
            ms(spans.total("core.rateless_increment")), "ms", per_sync,
        ),
        "core.repair_emd_ratio": (
            exact["repair_emd_ratio"], "ratio",
            "exact; emd(alice, repaired) / emd_k(alice, bob, true_k)",
        ),
        "core.emd_removed_share": (
            exact["emd_removed_share"], "share",
            "exact; 1 - emd(alice, repaired) / emd(alice, bob)",
        ),
        "core.emd_raised_share": (
            exact["emd_raised_share"], "share",
            "exact; checked repairs that raised EMD",
        ),
        "iblt.decode_ms": (ms(spans.total("iblt.decode")), "ms", per_sync),
        "iblt.decode_calls": (decodes / syncs, "count", per_sync),
        "iblt.decode_success_share": (
            spans.count("iblt.decode", ok=True) / decodes if decodes else 0.0,
            "share", f"successful decodes / attempts, n={decodes}",
        ),
        "iblt.subtract_ms": (
            ms(spans.total("iblt.subtract")), "ms", per_sync,
        ),
        "iblt.insert_ms": (ms(spans.total("iblt.insert")), "ms", per_sync),
        "net.sketch_parse_ms": (
            ms(spans.total("net.sketch_parse")), "ms", per_sync,
        ),
        "net.sketch_serialize_ms": (
            ms(spans.total("net.sketch_serialize")), "ms", per_sync,
        ),
        "net.parse_bytes": (
            spans.attr_sum("net.sketch_parse", "bytes") / syncs, "B",
            per_sync,
        ),
        "store.snapshot_load_ms": (
            ms(spans.total("store.snapshot_load", during_sync=False),
               setups), "ms", per_setup,
        ),
        "store.wal_replay_ms": (
            ms(spans.total("store.open", own=True, during_sync=False),
               setups), "ms",
            f"{per_setup}; store.open self time: scan, decode, apply",
        ),
        "store.replayed_records": (
            spans.attr_sum("store.open", "records", during_sync=False)
            / setups if setups else 0.0, "count", per_setup,
        ),
        "store.snapshot_bytes": (
            spans.attr_sum("store.snapshot_load", "bytes", during_sync=False)
            / setups if setups else 0.0, "B", per_setup,
        ),
        "store.ingest_p50_ms": (
            percentile(ingest_ms, 0.5) if ingest_ms else 0.0, "ms",
            f"p50 of ServerCore.ingest in the untraced half, "
            f"n={len(ingest_ms)}",
        ),
        "store.ingest_ms": (
            ms(spans.total("store.insert_batch"), ingests), "ms",
            per_ingest,
        ),
        "store.wal_append_ms": (
            ms(spans.total("store.wal_append"), ingests), "ms", per_ingest,
        ),
        "store.fsync_ms": (
            ms(spans.total("store.fsync"), ingests), "ms",
            f"{per_ingest}; waiting on the disk",
        ),
        "store.apply_ms": (
            ms(spans.total("store.insert_batch", own=True), ingests), "ms",
            f"{per_ingest}; plan, frame and apply the deltas in memory",
        ),
        "store.wal_bytes_per_ingest": (
            spans.attr_sum("store.wal_append", "bytes") / ingests
            if ingests else 0.0, "B", per_ingest,
        ),
        "bench.reference_ms": (
            ref_q[1], "ms", f"raw median of {len(samples_ms)} kernel runs",
        ),
        "bench.reference_iqr_share": (
            (ref_q[2] - ref_q[0]) / ref_q[1], "share", "host wander",
        ),
        "bench.trace_overhead_share": (
            overhead, "share",
            f"traced / untraced mean op time - 1 "
            f"({NOMINAL_MS:g} ms nominal kernel)",
        ),
    }
