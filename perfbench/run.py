"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload oneround-noisy --seed 1 \\
        --seconds 12 --trace 0

Every line but the last is for people: each metric with its unit,
sample count and raw (unnormalised) value.  The last line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones from a traced run (see ``perfbench/METRICS.md``).

Any failed check — an operation that errors, a replayed frame that
differs from its recording, a cold start that recovers differently, a
store payload that differs from a fresh encode, a repair that raises
EMD, or an exact metric that drifts from an earlier run of the same
seed and source — exits nonzero without printing the JSON line.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

#: str/bytes hashing is salted per process unless this is fixed, and the
#: salt alone moves a run's timings by several percent (dict and set
#: layouts change).  The benchmark re-executes itself once with a fixed
#: salt; the program's inputs and outputs do not depend on it.
HASH_SEED = "0"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


async def run(workload, seconds: float, trace: bool):
    from perfbench import bench
    from perfbench.spans import percentiles

    workload.prepare()
    setups = await bench.measure_setups(workload)
    server = await workload.setup()
    try:
        await workload.begin(server)
        if trace:
            from perfbench import trace as tracing

            untraced, server = await bench.measure_ops(
                workload, server, seconds / 2
            )
            traced, server = await tracing.traced_phase(
                workload, server, seconds / 2
            )
        else:
            untraced, server = await bench.measure_ops(
                workload, server, seconds
            )
    finally:
        await workload.teardown(server)
        await workload.close()
    rss = bench.peak_rss_mb()
    workload.check()
    if trace:
        return (
            tracing.per_layer(untraced, traced, workload.exact),
            len(traced.ops),
        )
    metrics = bench.end_to_end(untraced, setups, workload.exact, rss)
    ingest_ms = untraced.ingest_ms()
    if ingest_ms:
        summary = percentiles(ingest_ms)
        workload.notes.append(
            f"ingest_p50_ms {summary.p50:.6g} ms (n={summary.count}, "
            "not gated)"
        )
    return metrics, len(untraced.ops)


def main(argv=None) -> int:
    args = parse_args(argv)
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from repro.errors import ReproError
    except ModuleNotFoundError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2

    from perfbench.ledger import DeterminismFailure, check_exact
    from perfbench.workloads import WORKLOADS, CheckFailed
    from perfbench.replay import ReplayMismatch

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"expected one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        metrics, attempted = asyncio.run(
            run(workload, args.seconds, bool(args.trace))
        )
        check_exact(ROOT, WORK / "ledger", workload)
    except (CheckFailed, ReplayMismatch, DeterminismFailure, ReproError) as exc:
        print(f"CHECK FAILED: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} cpus={os.cpu_count()}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit:6s} {note}")
    print("# exact: " + ", ".join(
        f"{name}={value:.6g}" for name, value in sorted(workload.exact.items())
    ))
    for note in workload.notes:
        print(f"# {note}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
