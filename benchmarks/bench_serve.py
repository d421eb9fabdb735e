"""B4/B9 — Serve layer: sessions/sec, latency, and the CPU split.

B4 measures the single-process serve layer end-to-end over loopback TCP:
one in-process :class:`~repro.serve.ReconciliationServer` (Alice), a
fleet of async clients (Bobs) issuing complete syncs — handshake,
session, repair — at bounded concurrency.  Reports sessions/sec plus
p50/p95 per-sync latency at concurrency 1 / 8 / 32, for the one-round
and adaptive variants.

What to expect from B4: the server caches Alice's deterministic payload
per variant, so a one-round session costs it little CPU and throughput
is dominated by the Bob-side decode (which this in-process harness also
runs on the same loop).  Adaptive sessions add a second round: Alice
estimates every sampled level against her cached estimator block (one
subtract and one peel over all stratum tables, a few ms) and ships a
sized window, while Bob builds the estimator request and decodes the
window on the same loop.  Everything shares one
event loop, so sessions/sec moves only mildly with concurrency while
p95 latency grows ~linearly with it (queueing) — the signature of a
CPU-bound asyncio service.

B9 records why one serving process is enough: the client/server CPU
split of a sync.  One single-process server runs in a forked child and
one client in the parent, each syncing the same variant in a closed
loop; ``resource.getrusage(RUSAGE_SELF)`` on each side gives CPU ms per
sync.  In every variant the peel and the repair run at Bob, so the
server's share is a small fraction of the client's, and a fleet of
clients fills the machine's cores long before one server process does.
The inputs are perfbench's (seed 1): one-round n=4000 noise 4, rateless
n=2000 noise 1, adaptive n=2000 noise 4.

All records are schema 2 (see ``_harness.schema2_payload``): a
``schema`` field, machine ``cpu_count``, and latency percentiles by
linear interpolation.  The JSON artifacts (``b4_serve*.json``,
``b9_cpu_split*.json``) are what CI and perf-trajectory tooling
consume; ``b9_cpu_split.json`` is copied to ``BENCH_9.json`` at the
repo root.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import resource
import statistics
import time

from benchmarks._harness import percentile, schema2_payload
from repro.analysis.tables import Table
from repro.core.adaptive import AdaptiveConfig, AdaptiveReconciler
from repro.core.config import ProtocolConfig
from repro.core.protocol import HierarchicalReconciler
from repro.iblt.backends import available_backends
from repro.serve import ReconciliationServer, ServerCore, sync
from repro.workloads.synthetic import perturbed_pair

import pytest

DELTA = 2**16
SEED = 0
BACKEND = "numpy" if "numpy" in available_backends() else "pure"

CONCURRENCY_LEVELS = (1, 8, 32)
#: Complete syncs measured per concurrency level (after warmup).
SYNCS_PER_LEVEL = 96
WORKLOAD_N = 400
TRUE_K = 8

#: B9: perfbench's inputs (seed 1), one (variant, n, noise) per row.
SPLIT_SEED = 1
SPLIT_INPUTS = (
    ("one-round", 4000, 4),
    ("rateless", 2000, 1),
    ("adaptive", 2000, 4),
)
#: Measured syncs per variant, after SPLIT_WARMUP unmeasured ones.
SPLIT_SYNCS = 40
SPLIT_WARMUP = 2


def _workload(n=WORKLOAD_N, delta=DELTA, diff=TRUE_K):
    return perturbed_pair(SEED, n, delta, 2, diff, 2)


def _config(delta=DELTA, k=2 * TRUE_K):
    return ProtocolConfig(
        delta=delta, dimension=2, k=k, seed=SEED, backend=BACKEND
    )


def _client_reconciler(variant, config):
    """One Bob-side engine reused across a level's syncs (grid build paid
    once — the same amortisation a real repeatedly-syncing client does)."""
    if variant == "one-round":
        return HierarchicalReconciler(config)
    if variant == "adaptive":
        return AdaptiveReconciler(config, AdaptiveConfig())
    return None


def _latency_row(variant, concurrency, syncs, wall, latencies):
    """One schema-2 row: provenance columns + interpolated percentiles."""
    return {
        "variant": variant,
        "cpu_count": os.cpu_count(),
        "concurrency": concurrency,
        "syncs": syncs,
        "wall_s": round(wall, 4),
        "sessions_per_sec": round(syncs / wall, 2),
        "p50_ms": round(1000 * percentile(latencies, 0.50), 2),
        "p95_ms": round(1000 * percentile(latencies, 0.95), 2),
        "mean_ms": round(1000 * statistics.mean(latencies), 2),
    }


async def _measure_level(
    server, config, bob_points, variant, concurrency, syncs
):
    """Run ``syncs`` complete syncs at bounded concurrency; time each."""
    host, port = server.address
    gate = asyncio.Semaphore(concurrency)
    latencies = []
    reconciler = _client_reconciler(variant, config)

    async def one_sync():
        async with gate:
            started = time.perf_counter()
            result = await sync(
                host, port, config, bob_points, variant=variant, timeout=60,
                reconciler=reconciler,
            )
            latencies.append(time.perf_counter() - started)
            return result

    wall_start = time.perf_counter()
    results = await asyncio.gather(*[one_sync() for _ in range(syncs)])
    wall = time.perf_counter() - wall_start
    sizes = {len(r.repaired) for r in results}
    assert len(sizes) == 1, f"inconsistent repairs across syncs: {sizes}"
    return _latency_row(variant, concurrency, syncs, wall, latencies)


async def _run(concurrency_levels, syncs, variants, n):
    workload = _workload(n)
    config = _config()
    rows = []
    async with ReconciliationServer(
        config, workload.alice, max_sessions=max(concurrency_levels)
    ) as server:
        # Warm every variant once (grid construction, numpy first-call).
        for variant in variants:
            await sync(*server.address, config, workload.bob,
                       variant=variant, timeout=60)
        for variant in variants:
            for concurrency in concurrency_levels:
                rows.append(await _measure_level(
                    server, config, workload.bob, variant, concurrency, syncs
                ))
    return rows


def experiment(
    concurrency_levels=CONCURRENCY_LEVELS,
    syncs=SYNCS_PER_LEVEL,
    variants=("one-round", "adaptive"),
    n=WORKLOAD_N,
):
    """Run the B4 benchmark; returns (rows, rendered table)."""
    rows = asyncio.run(_run(concurrency_levels, syncs, variants, n))
    table = Table(
        [
            "variant", "concurrency", "syncs", "sessions/s",
            "p50 (ms)", "p95 (ms)", "mean (ms)",
        ],
        title=(
            f"B4: asyncio serve layer over loopback TCP "
            f"(n={n}, delta=2^16, k={2 * TRUE_K}, backend={BACKEND})"
        ),
    )
    for row in rows:
        table.add_row([
            row["variant"], row["concurrency"], row["syncs"],
            f"{row['sessions_per_sec']:.1f}", f"{row['p50_ms']:.1f}",
            f"{row['p95_ms']:.1f}", f"{row['mean_ms']:.1f}",
        ])
    return rows, table.render()


def _payload(rows, levels, n):
    return schema2_payload(
        "b4_serve",
        rows=rows,
        transport="loopback-tcp",
        backend=BACKEND,
        workload={
            "n": n, "delta": DELTA, "dimension": 2,
            "true_k": TRUE_K, "k": 2 * TRUE_K, "seed": SEED,
        },
        concurrency_levels=list(levels),
    )


# --------------------------------------------------------------------------
# B9: the client/server CPU split.
# --------------------------------------------------------------------------


def _cpu_ms() -> float:
    """This process's CPU time (user + system, all threads) in ms."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return 1000 * (usage.ru_utime + usage.ru_stime)


def _split_server(core, warmup, syncs, conn):
    """Forked child: serve ``warmup + syncs`` sessions on one process.

    Sends the address, then its CPU reading once the warm-up sessions
    are done (the parent starts measuring only after that), then the
    CPU its measured sessions took."""

    async def serve():
        async with ReconciliationServer(core=core) as server:
            conn.send(server.address)
            await server.wait_for_sessions(warmup)
            started = _cpu_ms()
            conn.send("measuring")
            await server.wait_for_sessions(warmup + syncs)
            conn.send(_cpu_ms() - started)
            summary = server.summary()
        assert summary["failed"] == 0, summary

    try:
        asyncio.run(serve())
    finally:
        conn.close()


def _cpu_split_row(variant, n, noise, syncs, warmup):
    """CPU ms per sync at the client (this process) and at one
    single-process server in a forked child, over loopback TCP."""
    workload = perturbed_pair(SPLIT_SEED, n, DELTA, 2, TRUE_K, noise)
    config = ProtocolConfig(
        delta=DELTA, dimension=2, k=2 * TRUE_K, seed=SPLIT_SEED,
        backend=BACKEND,
    )
    core = ServerCore(config, workload.alice).warm((variant,))
    ctx = multiprocessing.get_context("fork")
    conn, child_conn = ctx.Pipe(duplex=False)
    child = ctx.Process(
        target=_split_server, args=(core, warmup, syncs, child_conn),
        daemon=True,
    )
    child.start()
    child_conn.close()
    reconciler = _client_reconciler(variant, config)

    async def client():
        address = conn.recv()
        repaired = []

        async def one_sync():
            result = await sync(
                *address, config, workload.bob, variant=variant,
                timeout=60, reconciler=reconciler,
            )
            repaired.append(result.repaired)

        for _ in range(warmup):
            await one_sync()
        assert conn.recv() == "measuring"
        cpu_started, wall_started = _cpu_ms(), time.perf_counter()
        for _ in range(syncs):
            await one_sync()
        client_ms = _cpu_ms() - cpu_started
        wall_ms = 1000 * (time.perf_counter() - wall_started)
        # Checked outside the measured loop, so it costs the client nothing.
        assert len({tuple(sorted(r)) for r in repaired}) == 1, (
            "repairs differ across syncs"
        )
        return client_ms, wall_ms

    try:
        client_ms, wall_ms = asyncio.run(client())
        server_ms = conn.recv()
    finally:
        conn.close()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0, f"server child exited {child.exitcode}"
    return {
        "variant": variant,
        "n": n,
        "noise": noise,
        "syncs": syncs,
        "client_cpu_ms": round(client_ms / syncs, 3),
        "server_cpu_ms": round(server_ms / syncs, 3),
        "client_over_server": round(client_ms / server_ms, 1),
        "wall_ms": round(wall_ms / syncs, 3),
    }


def experiment_cpu_split(
    inputs=SPLIT_INPUTS, syncs=SPLIT_SYNCS, warmup=SPLIT_WARMUP
):
    """Run B9; returns (rows, rendered table)."""
    rows = [
        _cpu_split_row(variant, n, noise, syncs, warmup)
        for variant, n, noise in inputs
    ]
    table = Table(
        [
            "variant", "n", "noise", "syncs", "client CPU (ms)",
            "server CPU (ms)", "client/server", "wall (ms)",
        ],
        title=(
            f"B9: CPU per sync, client vs one server process over loopback "
            f"TCP (seed {SPLIT_SEED}, backend={BACKEND}, "
            f"cpus={os.cpu_count()})"
        ),
    )
    for row in rows:
        table.add_row([
            row["variant"], row["n"], row["noise"], row["syncs"],
            f"{row['client_cpu_ms']:.2f}", f"{row['server_cpu_ms']:.2f}",
            f"{row['client_over_server']:.1f}x", f"{row['wall_ms']:.2f}",
        ])
    return rows, table.render()


def _cpu_split_payload(rows, warmup):
    return schema2_payload(
        "b9_cpu_split",
        rows=rows,
        transport="loopback-tcp",
        backend=BACKEND,
        clock="resource.getrusage(RUSAGE_SELF), user + system, per side",
        workload={
            "delta": DELTA, "dimension": 2, "true_k": TRUE_K,
            "k": 2 * TRUE_K, "seed": SPLIT_SEED, "warmup_syncs": warmup,
        },
    )


def _assert_server_is_the_smaller_share(rows):
    """The premise of serving from one process: per sync, the server
    spends less CPU than the client it serves."""
    for row in rows:
        assert row["server_cpu_ms"] < row["client_cpu_ms"], row


# --------------------------------------------------------------------------
# Recorded runs.
# --------------------------------------------------------------------------


def test_serve_bench(benchmark, emit, emit_json):
    """The B4 recorded run: sessions/sec + latency at concurrency 1/8/32."""
    holder = {}

    def run():
        holder["rows"], holder["text"] = experiment()

    benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    emit("b4_serve", holder["text"])
    emit_json("b4_serve",
              _payload(holder["rows"], CONCURRENCY_LEVELS, WORKLOAD_N))
    measured = {row["concurrency"] for row in holder["rows"]}
    assert set(CONCURRENCY_LEVELS) <= measured
    for row in holder["rows"]:
        assert row["sessions_per_sec"] > 0
        assert row["p50_ms"] <= row["p95_ms"]


def test_serve_smoke(emit, emit_json):
    """CI smoke: the full pipeline at tiny scale (seconds, not minutes)."""
    levels = (1, 4)
    smoke_n = 120
    rows, text = experiment(
        concurrency_levels=levels, syncs=8, variants=("one-round",), n=smoke_n
    )
    emit("b4_serve_smoke", text)
    emit_json("b4_serve_smoke", _payload(rows, levels, smoke_n))
    assert all(row["sessions_per_sec"] > 0 for row in rows)


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the server child is forked",
)


@needs_fork
def test_serve_cpu_split(emit, emit_json):
    """The B9 recorded run: client vs server CPU per sync, per variant."""
    rows, text = experiment_cpu_split()
    emit("b9_cpu_split", text)
    emit_json("b9_cpu_split", _cpu_split_payload(rows, SPLIT_WARMUP))
    _assert_server_is_the_smaller_share(rows)


@needs_fork
def test_serve_cpu_split_smoke(emit, emit_json):
    """CI smoke for B9: every variant at small n, a few syncs each."""
    inputs = tuple((variant, 400, noise) for variant, _, noise in SPLIT_INPUTS)
    rows, text = experiment_cpu_split(inputs, syncs=6, warmup=1)
    emit("b9_cpu_split_smoke", text)
    emit_json("b9_cpu_split_smoke", _cpu_split_payload(rows, 1))
    _assert_server_is_the_smaller_share(rows)


if __name__ == "__main__":
    print(experiment()[1])
    print(experiment_cpu_split()[1])
