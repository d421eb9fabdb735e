"""Helpers shared by the experiment benchmarks."""

from __future__ import annotations

import math
import os

from repro.analysis.methods import MethodRun
from repro.analysis.stats import summarize
from repro.workloads.base import WorkloadPair


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default / R type 7).

    The ceil-index quantile the early benchmarks used jumps in steps of
    one sample — at 96 syncs a p95 moves in ~1% increments and two runs
    that differ by one slow sync report visibly different tails.  Linear
    interpolation between the bracketing order statistics is the
    schema-2 convention for every latency column.
    """
    if not values:
        raise ValueError("percentile() of an empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    data = sorted(values)
    position = (len(data) - 1) * q
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return data[low]
    return data[low] + (data[high] - data[low]) * (position - low)


def schema2_payload(experiment: str, *, rows, **extra) -> dict:
    """Assemble a schema-2 benchmark record.

    Schema 2 (BENCH_9 onward) adds provenance that schema-1 records
    left implicit: a ``schema`` version field and the machine's
    ``cpu_count``.  Consumers can then separate "code got faster" from
    "host got more cores".
    """
    return {
        "schema": 2,
        "experiment": experiment,
        "cpu_count": os.cpu_count(),
        "rows": rows,
        **extra,
    }


def kbits(bits: float) -> str:
    """Render a bit count as kilobits with one decimal."""
    return f"{bits / 1000:.1f}"


def aggregate_bits(runs: list[MethodRun]) -> str:
    """Mean±ci of the communication of several runs, in kilobits."""
    summary = summarize([run.bits / 1000 for run in runs])
    return summary.format()


def aggregate_emd(runs: list[MethodRun], workloads: list[WorkloadPair]) -> str:
    """Mean±ci of the repaired EMD of several runs."""
    values = [run.emd_to(w) for run, w in zip(runs, workloads)]
    values = [v for v in values if v == v]  # drop NaNs from failures
    if not values:
        return "fail"
    return summarize(values).format(0)
