"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``
    Write a synthetic workload (two noisy point sets + metadata) to JSON.
``reconcile``
    Reconcile Bob's JSON point set towards Alice's and report the
    transcript; optionally write the repaired set.
``estimate``
    Print the per-level difference estimates between two sets (the
    adaptive protocol's round-1 view) — a quick diagnosis of how far apart
    two replicas really are.
``info``
    Print the analytic communication/accuracy predictions for a
    configuration without touching any data.
``serve``
    Run the asyncio reconciliation server: hold Alice's point set and
    serve any protocol variant over TCP (one session per connection).
``sync``
    Connect to a server as Bob and repair the local point set towards
    the server's, over real TCP.

All commands are deterministic given ``--seed`` (``serve``/``sync`` up to
network scheduling; their wire bytes match the simulated channel's).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from pathlib import Path

from repro.core.adaptive import AdaptiveReconciler, reconcile_adaptive
from repro.core.bounds import (
    approximation_factor,
    lower_bound_bits,
    one_round_bits_estimate,
)
from repro.core.config import ProtocolConfig
from repro.core.protocol import reconcile
from repro.core.rateless import reconcile_rateless
from repro.errors import ConfigError, ReproError
from repro.iblt.backends import available_backends, backend_names
from repro.serve import (
    DEFAULT_TIMEOUT,
    ReconciliationServer,
    RetryPolicy,
    ServerCore,
    resilient_sync,
    sync_blocking,
)
from repro.store import DurableSketchStore
from repro.workloads.geo import geo_pair
from repro.workloads.sensors import sensor_pair
from repro.workloads.synthetic import clustered_pair, perturbed_pair

GENERATORS = ("uniform", "clustered", "sensor", "geo")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Robust set reconciliation (SIGMOD 2014) toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic workload to JSON")
    gen.add_argument("output", type=Path, help="output JSON path")
    gen.add_argument("--kind", choices=GENERATORS, default="uniform")
    gen.add_argument("--n", type=int, default=1000)
    gen.add_argument("--delta", type=int, default=2**16)
    gen.add_argument("--dimension", type=int, default=2)
    gen.add_argument("--true-k", type=int, default=8)
    gen.add_argument("--noise", type=float, default=3.0)
    gen.add_argument("--seed", type=int, default=0)

    backend_kwargs = dict(
        choices=["auto"] + backend_names(), default="auto",
        help="IBLT cell-storage backend (default: auto = fastest available)",
    )

    rec = sub.add_parser("reconcile", help="reconcile Bob towards Alice")
    rec.add_argument("workload", type=Path, help="JSON from 'generate' (or same schema)")
    rec.add_argument("--k", type=int, default=16, help="budget parameter")
    rec.add_argument("--seed", type=int, default=0)
    rec.add_argument("--adaptive", action="store_true",
                     help="use the two-round adaptive protocol")
    rec.add_argument("--rateless", action="store_true",
                     help="use the rateless streaming protocol (bytes track "
                          "the true difference; no estimation round)")
    rec.add_argument("--backend", **backend_kwargs)
    rec.add_argument("--output", type=Path, default=None,
                     help="write the repaired set to this JSON path")

    est = sub.add_parser("estimate", help="per-level difference estimates")
    est.add_argument("workload", type=Path)
    est.add_argument("--k", type=int, default=16)
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--backend", **backend_kwargs)

    info = sub.add_parser("info", help="analytic predictions for a config")
    info.add_argument("--delta", type=int, default=2**16)
    info.add_argument("--dimension", type=int, default=2)
    info.add_argument("--k", type=int, default=16)

    serve = sub.add_parser(
        "serve", help="serve reconciliation sessions (as Alice) over TCP"
    )
    serve.add_argument("workload", type=Path,
                       help="JSON from 'generate'; the server holds its "
                            "'alice' point set")
    serve.add_argument("--k", type=int, default=16)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--backend", **backend_kwargs)
    serve.add_argument("--store-dir", type=Path, default=None,
                       dest="store_dir",
                       help="durable sketch store directory (must exist and "
                            "be writable): first boot bulk-loads the "
                            "workload and snapshots it; later boots recover "
                            "the sketch from disk instead of re-encoding")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default: 0 = pick one and print it)")
    serve.add_argument("--max-sessions", type=int, default=64,
                       dest="max_sessions",
                       help="bound on concurrently running sessions")
    serve.add_argument("--max-syncs", type=int, default=None, dest="max_syncs",
                       help="exit after this many sessions finish "
                            "(default: serve forever)")
    serve.add_argument("--max-pending", type=int, default=None,
                       dest="max_pending",
                       help="shed arrivals with a typed RETRY_LATER refusal "
                            "once this many validated connections are "
                            "waiting for a slot (default: queue unboundedly)")
    serve.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT,
                       help="per-read timeout in seconds")

    syn = sub.add_parser(
        "sync", help="repair the local point set (as Bob) against a server"
    )
    syn.add_argument("workload", type=Path,
                     help="JSON from 'generate'; this side holds its 'bob' "
                          "point set")
    syn.add_argument("--host", default="127.0.0.1")
    syn.add_argument("--port", type=int, required=True)
    syn.add_argument("--k", type=int, default=16)
    syn.add_argument("--seed", type=int, default=0)
    syn.add_argument("--adaptive", action="store_true",
                     help="use the two-round adaptive variant")
    syn.add_argument("--rateless", action="store_true",
                     help="use the rateless streaming variant")
    syn.add_argument("--backend", **backend_kwargs)
    syn.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT)
    syn.add_argument("--retries", type=int, default=1,
                     help="total sync attempts before giving up; transient "
                          "failures back off and retry, and interrupted "
                          "rateless streams resume instead of restarting "
                          "(default: 1 = no retries)")
    syn.add_argument("--retry-deadline", type=float, default=30.0,
                     dest="retry_deadline",
                     help="overall budget in seconds for the whole retry "
                          "sequence (default: 30)")
    syn.add_argument("--output", type=Path, default=None,
                     help="write the repaired set to this JSON path")
    return parser


def _generate(args) -> dict:
    if args.kind == "uniform":
        pair = perturbed_pair(args.seed, args.n, args.delta, args.dimension,
                              args.true_k, args.noise)
    elif args.kind == "clustered":
        pair = clustered_pair(args.seed, args.n, args.delta, args.dimension,
                              args.true_k, args.noise)
    elif args.kind == "sensor":
        pair = sensor_pair(args.seed, args.n, args.delta, args.dimension,
                           args.noise, missed=args.true_k, ghosts=0)
    else:
        pair = geo_pair(args.seed, args.n, args.delta, args.true_k, args.noise)
    return {
        "name": pair.name,
        "delta": pair.delta,
        "dimension": pair.dimension,
        "true_k": pair.true_k,
        "noise": pair.noise,
        "alice": [list(p) for p in pair.alice],
        "bob": [list(p) for p in pair.bob],
    }


def _load_workload(path: Path) -> dict:
    data = json.loads(path.read_text())
    for field in ("delta", "dimension", "alice", "bob"):
        if field not in data:
            raise ReproError(f"workload JSON missing field {field!r}")
    data["alice"] = [tuple(p) for p in data["alice"]]
    data["bob"] = [tuple(p) for p in data["bob"]]
    return data


def cmd_generate(args) -> int:
    payload = _generate(args)
    args.output.write_text(json.dumps(payload))
    print(f"wrote {args.kind} workload: n={len(payload['alice'])}/"
          f"{len(payload['bob'])}, delta={payload['delta']}, "
          f"d={payload['dimension']} -> {args.output}")
    return 0


def _select_variant(args) -> str:
    """Shared ``--adaptive``/``--rateless`` dispatch (reconcile and sync)."""
    if args.adaptive and args.rateless:
        raise ReproError(
            "--adaptive and --rateless are mutually exclusive: pick one "
            "protocol variant"
        )
    if args.rateless:
        return "rateless"
    return "adaptive" if args.adaptive else "one-round"


def _write_repaired(path: Path | None, result) -> None:
    """Shared ``--output`` handling: persist the repaired multiset."""
    if path is None:
        return
    path.write_text(
        json.dumps({"repaired": [list(p) for p in result.repaired]})
    )
    print(f"repaired set written to {path}")


def cmd_reconcile(args) -> int:
    data = _load_workload(args.workload)
    variant = _select_variant(args)
    config = ProtocolConfig(
        delta=data["delta"], dimension=data["dimension"], k=args.k,
        seed=args.seed, backend=args.backend,
    )
    if variant == "adaptive":
        runner = reconcile_adaptive
        protocol = "adaptive 2-round"
    elif variant == "rateless":
        runner = reconcile_rateless
        protocol = "rateless streaming"
    else:
        runner = reconcile
        protocol = "one-round"
    result = runner(data["alice"], data["bob"], config)
    print(f"protocol : {protocol}")
    print(f"backend  : {config.backend}")
    print(f"message  : {result.transcript.describe()}")
    print(f"level    : {result.level} (cell side {2 ** result.level})")
    print(f"repair   : +{result.alice_surplus} centres, "
          f"-{result.bob_surplus} points")
    print(f"|S'_B|   : {len(result.repaired)}")
    _write_repaired(args.output, result)
    return 0


def cmd_estimate(args) -> int:
    data = _load_workload(args.workload)
    config = ProtocolConfig(
        delta=data["delta"], dimension=data["dimension"], k=args.k,
        seed=args.seed, backend=args.backend,
    )
    reconciler = AdaptiveReconciler(config)
    request = reconciler.bob_request(data["bob"])
    estimates = reconciler.estimates(request, data["alice"])
    print(f"{'level':>5} {'cell side':>10} {'est. difference':>16}")
    for level, estimate in estimates.items():
        print(f"{level:>5} {2 ** level:>10} {estimate:>16}")
    return 0


def cmd_info(args) -> int:
    config = ProtocolConfig(delta=args.delta, dimension=args.dimension,
                            k=args.k)
    print(f"levels            : {len(config.sketch_levels)} "
          f"(0..{config.max_level})")
    print(f"cells per level   : {config.cells_per_level}")
    print(f"backends          : {', '.join(available_backends())} available")
    print(f"one-round message : ~{one_round_bits_estimate(config)} bits")
    print(f"lower bound       : {lower_bound_bits(args.k, args.delta, args.dimension)} bits")
    print(f"approx factor     : <= {approximation_factor(args.dimension):.0f} "
          f"(analysed worst case, O(d))")
    return 0


def cmd_serve(args) -> int:
    data = _load_workload(args.workload)
    config = ProtocolConfig(
        delta=data["delta"], dimension=data["dimension"], k=args.k,
        seed=args.seed, backend=args.backend,
    )
    points = data["alice"]
    core = None
    store_line = None
    if args.store_dir is not None:
        # Typed failures (missing/unwritable dir -> ConfigError, damaged
        # state -> StoreCorruptError) propagate to main()'s ReproError
        # handler: a clean one-line error and exit code 2, no traceback.
        store = DurableSketchStore.open(config, str(args.store_dir))
        if store.sketch.n_points == 0 and points:
            store.bulk_load(points)
            store_line = (
                f"store    : {args.store_dir} loaded {len(points)} points "
                f"(first boot; snapshot published)"
            )
        elif store.sketch.n_points != len(points):
            raise ConfigError(
                f"store at {args.store_dir} holds {store.sketch.n_points} "
                f"points but the workload has {len(points)} — refusing to "
                "serve inconsistent state (point a fresh --store-dir at a "
                "changed workload)"
            )
        else:
            recovery = store.recovery
            store_line = (
                f"store    : {args.store_dir} recovered from "
                f"{recovery.source} (generation {recovery.generation}, "
                f"{recovery.replayed_records} WAL records replayed, "
                f"{recovery.truncated_bytes} torn bytes truncated)"
            )
        core = ServerCore(config, points, store=store)

    async def run() -> None:
        server = ReconciliationServer(
            config if core is None else None,
            points if core is None else None,
            core=core, host=args.host, port=args.port,
            max_sessions=args.max_sessions, max_pending=args.max_pending,
            timeout=args.timeout,
        )
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        try:
            loop.add_signal_handler(signal.SIGTERM, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # platforms without loop signal handlers keep Ctrl-C only
        async with server:
            host, port = server.address
            print(f"serving {len(points)} points on {host}:{port} "
                  f"(k={args.k}, seed={args.seed}; "
                  f"variants: one-round, adaptive, rateless)",
                  flush=True)
            if store_line is not None:
                print(store_line, flush=True)
            waits = [asyncio.ensure_future(stop.wait())]
            if args.max_syncs is not None:
                waits.append(
                    asyncio.ensure_future(
                        server.wait_for_sessions(args.max_syncs)
                    )
                )
            else:
                waits.append(asyncio.ensure_future(server.serve_forever()))
            done, pending = await asyncio.wait(
                waits, return_when=asyncio.FIRST_COMPLETED
            )
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
            # Leaving the context manager drains in-flight sessions
            # before the summary below.
        summary = server.summary()
        print(f"served   : {summary['sessions']} session(s), "
              f"{summary['ok']} ok, {summary['failed']} failed")
        print(f"shipped  : {summary['bytes_out']} bytes out, "
              f"{summary['bytes_in']} bytes in")

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted; shutting down")
    return 0


def cmd_sync(args) -> int:
    data = _load_workload(args.workload)
    variant = _select_variant(args)
    config = ProtocolConfig(
        delta=data["delta"], dimension=data["dimension"], k=args.k,
        seed=args.seed, backend=args.backend,
    )
    if args.retries > 1:
        policy = RetryPolicy(
            attempts=args.retries, deadline=args.retry_deadline,
            seed=args.seed,
        )
        result = asyncio.run(resilient_sync(
            args.host, args.port, config, data["bob"],
            variant=variant, timeout=args.timeout, policy=policy,
        ))
    else:
        result = sync_blocking(
            args.host, args.port, config, data["bob"],
            variant=variant, timeout=args.timeout,
        )
    print(f"synced against {args.host}:{args.port} ({variant})")
    if getattr(result, "resumed_from", None) is not None:
        print(f"resumed  : stream continued at increment "
              f"{result.resumed_from}")
    recovered = getattr(result, "recovered", None)
    if recovered is not None:
        print(f"server   : recovered from {recovered.get('source')} "
              f"(generation {recovered.get('generation')}, "
              f"{recovered.get('records')} WAL records, "
              f"{recovered.get('n_points')} points)")
    print(f"message  : {result.transcript.describe()}")
    print(f"repair   : +{result.alice_surplus} centres, "
          f"-{result.bob_surplus} points")
    print(f"|S'_B|   : {len(result.repaired)}")
    _write_repaired(args.output, result)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "reconcile": cmd_reconcile,
        "estimate": cmd_estimate,
        "info": cmd_info,
        "serve": cmd_serve,
        "sync": cmd_sync,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
