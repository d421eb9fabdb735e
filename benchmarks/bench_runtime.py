"""E7 — Encode/decode running time vs n (figure).

Claim under test: Alice's encoding is ``O(n log Δ)`` hash work (linear in
n at fixed geometry) and Bob's decode is dominated by his own key pass
(the peeling itself is ``O(k)``).  Each row reports the median of
``REPEATS`` timed runs in milliseconds; pytest-benchmark times the n=4000
kernels.

    PYTHONPATH=src python -m pytest -q benchmarks/bench_runtime.py -k smoke   # n <= 4000
    PYTHONPATH=src python -m pytest -q benchmarks/bench_runtime.py -k table   # full sweep
"""

from __future__ import annotations

import os
import statistics
import time

from repro.analysis.tables import Table
from repro.core.config import ProtocolConfig
from repro.core.protocol import HierarchicalReconciler
from repro.workloads.synthetic import perturbed_pair

SIZES = (1000, 2000, 4000, 8000, 16000, 32000)
SMOKE_SIZES = tuple(n for n in SIZES if n <= 4000)
REPEATS = 5
DELTA = 2**20
TRUE_K = 8
NOISE = 4
SEED = 0


def build(n: int):
    workload = perturbed_pair(SEED, n, DELTA, 2, TRUE_K, NOISE)
    config = ProtocolConfig(delta=DELTA, dimension=2, k=2 * TRUE_K, seed=SEED)
    return workload, HierarchicalReconciler(config)


def median_ms(run) -> float:
    """Median wall time of ``REPEATS`` calls of ``run``, in ms."""
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        samples.append(time.perf_counter() - start)
    return 1e3 * statistics.median(samples)


def experiment(sizes) -> tuple[str, list[dict]]:
    table = Table(
        ["n", "encode (ms)", "decode (ms)", "encode us/point", "level"],
        title=(
            f"E7: runtime vs n  (delta=2^20, d=2, k={2 * TRUE_K}, "
            f"median of {REPEATS})"
        ),
    )
    records: list[dict] = []
    for n in sizes:
        workload, reconciler = build(n)
        payload = reconciler.encode(workload.alice)
        result = reconciler.decode_and_repair(payload, workload.bob)
        assert len(result.repaired) == len(workload.alice)
        encode_ms = median_ms(lambda: reconciler.encode(workload.alice))
        decode_ms = median_ms(
            lambda: reconciler.decode_and_repair(payload, workload.bob)
        )
        table.add_row([
            n, f"{encode_ms:.1f}", f"{decode_ms:.1f}",
            f"{1e3 * encode_ms / n:.1f}", result.level,
        ])
        records.append(
            {
                "n": n,
                "encode_ms": encode_ms,
                "decode_ms": decode_ms,
                "encode_us_per_point": 1e3 * encode_ms / n,
                "level": result.level,
                "levels_probed": len(result.levels_probed),
            }
        )
    return table.render(), records


def _record(name, sizes, benchmark, emit, emit_json) -> None:
    text, records = benchmark.pedantic(
        lambda: experiment(sizes), rounds=1, iterations=1, warmup_rounds=0
    )
    emit(name, text)
    emit_json(
        name,
        {
            "experiment": "e7",
            "delta_log2": 20,
            "dimension": 2,
            "k": 2 * TRUE_K,
            "repeats": REPEATS,
            "cpu_count": os.cpu_count(),
            "rows": records,
        },
    )


def test_runtime_table(benchmark, emit, emit_json):
    """The full sweep (``results/e7_runtime.*``)."""
    _record("e7_runtime", SIZES, benchmark, emit, emit_json)


def test_runtime_smoke(benchmark, emit, emit_json):
    """The CI-sized sweep, n <= 4000 (``results/e7_runtime_smoke.*``)."""
    _record("e7_runtime_smoke", SMOKE_SIZES, benchmark, emit, emit_json)


def test_encode_kernel(benchmark):
    """pytest-benchmark timing of one representative encode (n=4000)."""
    workload, reconciler = build(4000)
    benchmark.pedantic(
        lambda: reconciler.encode(workload.alice),
        rounds=3, iterations=1, warmup_rounds=0,
    )


def test_decode_kernel(benchmark):
    """pytest-benchmark timing of one representative decode (n=4000)."""
    workload, reconciler = build(4000)
    payload = reconciler.encode(workload.alice)
    benchmark.pedantic(
        lambda: reconciler.decode_and_repair(payload, workload.bob),
        rounds=3, iterations=1, warmup_rounds=0,
    )
