"""E7 — Encode/decode running time vs n (figure), and encode scaling.

Claim under test: Alice's encoding is ``O(n log Δ)`` hash work (linear in
n at fixed geometry) and Bob's decode is dominated by his own key pass
(the peeling itself is ``O(k)``).  Each row reports the median of
``REPEATS`` timed runs in milliseconds and the levels Bob probed, next to
the levels the plain bisection (``tests/bisection_oracle.py``) probes on
the same sync; the sweeps assert the aimed search never probes more.
pytest-benchmark times the n=4000 kernels.

The encode-scaling rows time the one-round encode at n = 1e5 and 1e6
(the level tables built on a thread pool by
:func:`repro.core.sketch.build_level_sketches`) against a serial level
loop written out below, in ``ENCODE_PAIRS`` alternating pairs, and check
that both give the same bytes.  ``cpu_count`` is recorded with them: on
one CPU the pool is never opened and both columns time the same work.

    PYTHONPATH=src python -m pytest -q benchmarks/bench_runtime.py -k smoke   # n <= 4000, encode at 1e5
    PYTHONPATH=src python -m pytest -q benchmarks/bench_runtime.py -k table   # full sweep
    PYTHONPATH=src python -m pytest -q benchmarks/bench_runtime.py -k scaling # encode at 1e5 and 1e6
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

from repro.analysis.tables import Table
from repro.core.config import ProtocolConfig
from repro.core.protocol import HierarchicalReconciler
from repro.core.sketch import (
    HierarchySketch,
    LevelSketch,
    fan_out_width,
    level_iblt_config,
)
from repro.iblt.backends import available_backends
from repro.iblt.table import IBLT
from repro.workloads.synthetic import perturbed_pair

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from bisection_oracle import bisection_decode  # noqa: E402

SIZES = (1000, 2000, 4000, 8000, 16000, 32000)
SMOKE_SIZES = tuple(n for n in SIZES if n <= 4000)
REPEATS = 5
DELTA = 2**20
TRUE_K = 8
NOISE = 4
SEED = 0

#: Encode-scaling regimes (n, k), noise-free: the inputs the retired B2
#: sharded bench timed.
ENCODE_REGIMES = ((100_000, 512), (1_000_000, 128))
SMOKE_ENCODE_REGIMES = ENCODE_REGIMES[:1]
ENCODE_PAIRS = 10
BACKEND = "numpy" if "numpy" in available_backends() else "pure"


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
        ["n", "encode (ms)", "decode (ms)", "encode us/point", "level",
         "levels probed", "bisection probes"],
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
        oracle = bisection_decode(reconciler, payload, workload.bob)
        encode_ms = median_ms(lambda: reconciler.encode(workload.alice))
        decode_ms = median_ms(
            lambda: reconciler.decode_and_repair(payload, workload.bob)
        )
        table.add_row([
            n, f"{encode_ms:.1f}", f"{decode_ms:.1f}",
            f"{1e3 * encode_ms / n:.1f}", result.level,
            len(result.levels_probed), len(oracle.levels_probed),
        ])
        records.append(
            {
                "n": n,
                "encode_ms": encode_ms,
                "decode_ms": decode_ms,
                "encode_us_per_point": 1e3 * encode_ms / n,
                "level": result.level,
                "levels_probed": len(result.levels_probed),
                "bisection_levels_probed": len(oracle.levels_probed),
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
    # A count, not a time: the aimed search never probes more levels.
    assert all(
        record["levels_probed"] <= record["bisection_levels_probed"]
        for record in records
    )


def test_runtime_table(benchmark, emit, emit_json):
    """The full sweep (``results/e7_runtime.*``)."""
    _record("e7_runtime", SIZES, benchmark, emit, emit_json)


def test_runtime_smoke(benchmark, emit, emit_json):
    """The CI-sized sweep, n <= 4000 (``results/e7_runtime_smoke.*``)."""
    _record("e7_runtime_smoke", SMOKE_SIZES, benchmark, emit, emit_json)


def serial_encode(reconciler: HierarchicalReconciler, points) -> bytes:
    """The one-round encode with its level tables built one after another
    in this thread: one key pass, then a table per level."""
    config, grid = reconciler.config, reconciler.grid
    key_pass = grid.vector_key_pass(points, config.sketch_levels)
    if key_pass is not None:
        level_keys = key_pass.keys
    else:
        level_keys = grid.level_keys(points, config.sketch_levels).__getitem__
    levels = []
    for level in config.sketch_levels:
        table = IBLT(level_iblt_config(config, grid, level), backend=config.backend)
        table.insert_many(level_keys(level))
        levels.append(LevelSketch(level, table))
    return HierarchySketch(len(points), levels).to_bytes()


def encode_scaling(regimes) -> tuple[str, list[dict]]:
    """Serial loop vs fanned-out encode, ``ENCODE_PAIRS`` alternating pairs
    per regime (which side runs first alternates too)."""
    table = Table(
        ["n", "k", "serial (ms)", "fanned out (ms)", "speedup", "threads",
         "pairs won", "same bytes"],
        title=(
            f"E7: one-round encode, serial level loop vs level fan-out  "
            f"(delta=2^20, d=2, {BACKEND}, cpu_count={os.cpu_count()}, "
            f"medians of {ENCODE_PAIRS} alternating pairs)"
        ),
    )
    records: list[dict] = []
    for n, k in regimes:
        points = perturbed_pair(SEED, n, DELTA, 2, k // 2, 0, noise_model="none").alice
        config = ProtocolConfig(
            delta=DELTA, dimension=2, k=k, seed=SEED, backend=BACKEND
        )
        reconciler = HierarchicalReconciler(config)
        same = serial_encode(reconciler, points) == reconciler.encode(points)
        serial, fanned = [], []
        for pair in range(ENCODE_PAIRS):
            order = (serial_encode, None) if pair % 2 == 0 else (None, serial_encode)
            for run in order:
                start = time.perf_counter()
                if run is None:
                    reconciler.encode(points)
                else:
                    run(reconciler, points)
                elapsed = 1e3 * (time.perf_counter() - start)
                (fanned if run is None else serial).append(elapsed)
        serial_ms = statistics.median(serial)
        fanned_ms = statistics.median(fanned)
        won = sum(f < s for s, f in zip(serial, fanned))
        width = fan_out_width(config, n)
        table.add_row([
            n, k, f"{serial_ms:.0f}", f"{fanned_ms:.0f}",
            f"{serial_ms / fanned_ms:.2f}x", width,
            f"{won}/{ENCODE_PAIRS}", same,
        ])
        records.append(
            {
                "n": n,
                "k": k,
                "serial_ms": serial_ms,
                "fanned_out_ms": fanned_ms,
                "speedup": serial_ms / fanned_ms,
                "threads": width,
                "pairs_won": won,
                "byte_identical": same,
                "serial_samples_ms": serial,
                "fanned_out_samples_ms": fanned,
            }
        )
    return table.render(), records


def _record_scaling(name, regimes, benchmark, emit, emit_json) -> None:
    text, records = benchmark.pedantic(
        lambda: encode_scaling(regimes), rounds=1, iterations=1, warmup_rounds=0
    )
    emit(name, text)
    emit_json(
        name,
        {
            "experiment": "e7-encode-scaling",
            "delta_log2": 20,
            "dimension": 2,
            "backend": BACKEND,
            "pairs": ENCODE_PAIRS,
            "cpu_count": os.cpu_count(),
            "rows": records,
        },
    )
    assert all(record["byte_identical"] for record in records)


def test_encode_scaling(benchmark, emit, emit_json):
    """Encode at n = 1e5 and 1e6 (``results/e7_encode_scaling.*``)."""
    _record_scaling(
        "e7_encode_scaling", ENCODE_REGIMES, benchmark, emit, emit_json
    )


def test_encode_scaling_smoke(benchmark, emit, emit_json):
    """The CI row, encode at n = 1e5 (``results/e7_encode_scaling_smoke.*``);
    a record, not a gate: only the byte identity is asserted."""
    _record_scaling(
        "e7_encode_scaling_smoke", SMOKE_ENCODE_REGIMES, benchmark, emit,
        emit_json,
    )


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
