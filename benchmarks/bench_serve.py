"""B4/B9 — Serve layer: sessions/sec, latency, and multi-core scaling.

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

B9 is the answer to that signature: a worker sweep over the pre-fork
:class:`~repro.serve.WorkerPoolServer` (workers = 1 / 2 / 4) driven by
a *multi-process* client fleet, so neither side of the loopback is
pinned to one core.  On a >= 4-core machine sessions/sec should scale
with workers for the adaptive variant, the one where the server
computes per session; on fewer cores the sweep still runs (the pool is
correct anywhere fork is) but the speedup columns only document
contention.  An env-gated
soak (``REPRO_SOAK=1``) pushes >= 1e5 complete syncs through a 4-worker
pool from thousands of concurrent clients and asserts zero failures.

All records are schema 2 (see ``_harness.schema2_payload``): a
``schema`` field, machine ``cpu_count``, per-row worker counts, and
latency percentiles by linear interpolation.  The JSON artifacts
(``b4_serve*.json``, ``b9_serve_workers*.json``) are what CI and
perf-trajectory tooling consume; ``b9_serve_workers.json`` is copied
to ``BENCH_9.json`` at the repo root.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import statistics
import time

from benchmarks._harness import percentile, schema2_payload
from repro.analysis.tables import Table
from repro.core.adaptive import AdaptiveConfig, AdaptiveReconciler
from repro.core.config import ProtocolConfig
from repro.core.protocol import HierarchicalReconciler
from repro.iblt.backends import available_backends
from repro.scale.executors import fork_available
from repro.serve import ReconciliationServer, WorkerPoolServer, sync
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

#: B9 defaults: the worker sweep and its client fleet.
WORKER_LEVELS = (1, 2, 4)
SWEEP_CONCURRENCY = 32
SWEEP_SYNCS = 96
FLEET_PROCS = 4

#: B9 soak (REPRO_SOAK=1): >= 1e5 syncs from thousands of clients.
SOAK_SYNCS = 100_000
SOAK_CLIENTS = 2048
SOAK_PROCS = 8
SOAK_N = 80
SOAK_DELTA = 2**12


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


def _latency_row(variant, workers, concurrency, syncs, wall, latencies):
    """One schema-2 row: provenance columns + interpolated percentiles."""
    return {
        "variant": variant,
        "workers": workers,
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
    server, config, bob_points, variant, concurrency, syncs, workers=1
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
    return _latency_row(variant, workers, concurrency, syncs, wall, latencies)


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
# B9: the worker sweep and the soak.
# --------------------------------------------------------------------------


def _fleet_client(address, config, bob_points, variant, syncs, concurrency,
                  timeout, conn):
    """One client process of the fleet: ``syncs`` complete syncs at its
    own bounded concurrency on a private event loop, latencies shipped
    back over ``conn``.  Runs in a forked child, so the workload and
    config arrive by copy-on-write inheritance, not pickling."""

    async def run():
        reconciler = _client_reconciler(variant, config)
        gate = asyncio.Semaphore(concurrency)
        latencies = []

        async def one_sync():
            async with gate:
                started = time.perf_counter()
                await sync(
                    *address, config, bob_points, variant=variant,
                    timeout=timeout, reconciler=reconciler,
                )
                latencies.append(time.perf_counter() - started)

        await asyncio.gather(*[one_sync() for _ in range(syncs)])
        return latencies

    try:
        latencies = asyncio.run(run())
        conn.send(("ok", latencies))
    except BaseException as exc:  # ship the failure, don't hang the parent
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
        raise
    finally:
        conn.close()


async def _fleet_measure(
    address, config, bob_points, variant, total_syncs, concurrency,
    procs, timeout=120.0,
):
    """Drive ``total_syncs`` syncs from ``procs`` forked client processes
    (so Bob-side decode stops being a single-core ceiling) and return
    (latencies, wall_seconds).  Polls result pipes without blocking the
    loop — the pool parent must keep draining worker stats meanwhile."""
    ctx = multiprocessing.get_context("fork")
    share, remainder = divmod(total_syncs, procs)
    per_proc = [share + (1 if i < remainder else 0) for i in range(procs)]
    per_concurrency = max(1, concurrency // procs)
    pipes, children = [], []
    wall_start = time.perf_counter()
    for count in per_proc:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_fleet_client,
            args=(address, config, bob_points, variant, count,
                  per_concurrency, timeout, child_conn),
        )
        process.start()
        child_conn.close()
        pipes.append(parent_conn)
        children.append(process)
    outcomes = [None] * procs
    while any(o is None for o in outcomes):
        for index, parent_conn in enumerate(pipes):
            if outcomes[index] is None and parent_conn.poll():
                outcomes[index] = parent_conn.recv()
        dead = [
            i for i, (o, p) in enumerate(zip(outcomes, children))
            if o is None and not p.is_alive()
        ]
        if dead:
            raise AssertionError(
                f"fleet client(s) {dead} died without reporting"
            )
        await asyncio.sleep(0.02)
    wall = time.perf_counter() - wall_start
    for parent_conn, process in zip(pipes, children):
        parent_conn.close()
        process.join()
    failures = [o[1] for o in outcomes if o[0] != "ok"]
    assert not failures, f"fleet client failures: {failures}"
    latencies = [value for _, lats in outcomes for value in lats]
    return latencies, wall


async def _run_worker_sweep(
    worker_levels, concurrency, syncs, variants, n, procs,
):
    workload = _workload(n)
    config = _config()
    rows = []
    mode = None
    for workers in worker_levels:
        if workers == 1:
            server = ReconciliationServer(
                config, workload.alice, max_sessions=concurrency
            )
        else:
            server = WorkerPoolServer(
                config, workload.alice, workers=workers,
                max_sessions=concurrency,
            )
            mode = server.mode
        async with server:
            for variant in variants:
                # Warm: grid construction and caches on both sides.
                await sync(*server.address, config, workload.bob,
                           variant=variant, timeout=120)
                latencies, wall = await _fleet_measure(
                    server.address, config, workload.bob, variant,
                    syncs, concurrency, procs,
                )
                rows.append(_latency_row(
                    variant, workers, concurrency, len(latencies), wall,
                    latencies,
                ))
    return rows, mode


def _speedups(rows, worker_levels):
    """sessions/s of each worker level relative to workers=1, per variant."""
    base = {
        row["variant"]: row["sessions_per_sec"]
        for row in rows if row["workers"] == 1
    }
    return {
        variant: {
            str(workers): round(
                next(
                    r["sessions_per_sec"] for r in rows
                    if r["variant"] == variant and r["workers"] == workers
                ) / base[variant],
                2,
            )
            for workers in worker_levels
        }
        for variant in base
    }


def experiment_workers(
    worker_levels=WORKER_LEVELS,
    concurrency=SWEEP_CONCURRENCY,
    syncs=SWEEP_SYNCS,
    variants=("one-round", "adaptive"),
    n=WORKLOAD_N,
    procs=FLEET_PROCS,
):
    """Run the B9 worker sweep; returns (rows, speedups, mode, table)."""
    rows, mode = asyncio.run(_run_worker_sweep(
        worker_levels, concurrency, syncs, variants, n, procs
    ))
    speedups = _speedups(rows, worker_levels)
    table = Table(
        [
            "variant", "workers", "concurrency", "sessions/s", "speedup",
            "p50 (ms)", "p95 (ms)",
        ],
        title=(
            f"B9: pre-fork worker sweep over loopback TCP "
            f"(n={n}, c={concurrency}, fleet={procs} client procs, "
            f"cpus={os.cpu_count()}, mode={mode or 'single-process'})"
        ),
    )
    for row in rows:
        table.add_row([
            row["variant"], row["workers"], row["concurrency"],
            f"{row['sessions_per_sec']:.1f}",
            f"{speedups[row['variant']][str(row['workers'])]:.2f}x",
            f"{row['p50_ms']:.1f}", f"{row['p95_ms']:.1f}",
        ])
    return rows, speedups, mode, table.render()


def _workers_payload(rows, speedups, mode, *, soak=None, concurrency, n,
                     procs):
    return schema2_payload(
        "b9_serve_workers",
        rows=rows,
        transport="loopback-tcp",
        backend=BACKEND,
        pool_mode=mode,
        fleet_procs=procs,
        workload={
            "n": n, "delta": DELTA, "dimension": 2,
            "true_k": TRUE_K, "k": 2 * TRUE_K, "seed": SEED,
        },
        concurrency=concurrency,
        speedup_vs_one_worker=speedups,
        soak=soak,
    )


async def _run_soak(total_syncs, clients, procs, workers):
    """The endurance leg: a 4-worker pool absorbing ``clients``
    concurrent loopback connections until ``total_syncs`` complete
    syncs have landed, every one of them correct or typed — zero
    unexplained failures tolerated."""
    workload = _workload(SOAK_N, SOAK_DELTA, 4)
    config = _config(SOAK_DELTA, 8)
    async with WorkerPoolServer(
        config, workload.alice, workers=workers,
        max_sessions=max(64, clients // max(1, workers)),
        session_deadline=600.0, timeout=600.0,
    ) as pool:
        await sync(*pool.address, config, workload.bob, timeout=120)
        latencies, wall = await _fleet_measure(
            pool.address, config, workload.bob, "one-round",
            total_syncs, clients, procs, timeout=600.0,
        )
        await pool.wait_for_sessions(total_syncs + 1)
        summary = pool.summary()
    row = _latency_row(
        "one-round", workers, clients, len(latencies), wall, latencies
    )
    return row, summary


def soak(total_syncs=SOAK_SYNCS, clients=SOAK_CLIENTS, procs=SOAK_PROCS,
         workers=4):
    """Run the soak; returns its schema-2 row plus the pool's summary."""
    row, summary = asyncio.run(
        _run_soak(total_syncs, clients, procs, workers)
    )
    assert summary["failed"] == 0, f"soak saw failures: {summary}"
    assert summary["ok"] >= total_syncs
    assert summary["restarts"] == 0, "soak must not crash workers"
    return {
        "syncs": total_syncs,
        "concurrent_clients": clients,
        "fleet_procs": procs,
        "row": row,
        "server_summary": {
            key: summary[key]
            for key in ("sessions", "ok", "failed", "shed", "restarts")
        },
    }


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
    not fork_available(), reason="worker pool requires the fork start method"
)


@needs_fork
def test_serve_workers_bench(benchmark, emit, emit_json):
    """The B9 recorded run: worker sweep, optional soak (REPRO_SOAK=1).

    The scaling acceptance (workers=4 >= 2.5x one-round / >= 2x adaptive
    at c=32) only binds on a machine with >= 4 cores; with fewer cores
    the sweep is recorded for the row data but the speedup assert would
    measure the scheduler, not the pool.
    """
    holder = {}

    def run():
        (holder["rows"], holder["speedups"], holder["mode"],
         holder["text"]) = experiment_workers()

    benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    soak_record = soak() if os.environ.get("REPRO_SOAK") == "1" else None
    emit("b9_serve_workers", holder["text"])
    emit_json("b9_serve_workers", _workers_payload(
        holder["rows"], holder["speedups"], holder["mode"],
        soak=soak_record, concurrency=SWEEP_CONCURRENCY, n=WORKLOAD_N,
        procs=FLEET_PROCS,
    ))
    for row in holder["rows"]:
        assert row["sessions_per_sec"] > 0
    if (os.cpu_count() or 1) >= 4:
        assert holder["speedups"]["one-round"]["4"] >= 2.5
        assert holder["speedups"]["adaptive"]["4"] >= 2.0


@needs_fork
def test_serve_workers_smoke(emit, emit_json):
    """CI smoke for the pool: 4 real workers over TCP must beat one.

    Gated on cpu count — asserting a parallel speedup on a 1-core
    runner measures contention, not the pool.  Uses the adaptive
    variant, the one where Alice computes per request (her estimate
    and window).  That compute is now a few ms, so the server is no
    longer clearly the bottleneck over the client fleet; the 1.5x floor
    is unverified on >= 4 cores since the block estimate landed.
    """
    smoke_n = 120
    rows, mode = asyncio.run(_run_worker_sweep(
        (1, 4), 16, 32, ("adaptive",), smoke_n, FLEET_PROCS,
    ))
    speedups = _speedups(rows, (1, 4))
    payload = _workers_payload(
        rows, speedups, mode, concurrency=16, n=smoke_n, procs=FLEET_PROCS,
    )
    emit_json("b9_serve_workers_smoke", payload)
    assert all(row["sessions_per_sec"] > 0 for row in rows)
    if (os.cpu_count() or 1) >= 4:
        assert speedups["adaptive"]["4"] >= 1.5, (
            f"4 workers only {speedups['adaptive']['4']}x on "
            f"{os.cpu_count()} cpus: {rows}"
        )


if __name__ == "__main__":
    print(experiment()[1])
    if fork_available():
        print(experiment_workers()[3])
