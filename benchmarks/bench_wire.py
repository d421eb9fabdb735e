"""B5 — vectorized vs scalar wire codec (the perf-regression harness).

Claim under test: the shared wire codec (PR 5, :mod:`repro.net.codec`)
serialises and parses sketch payloads at array speed — ≥10x the scalar
``BitWriter``/``BitReader`` reference (serialize+deserialize) on the
numpy backend at difference sizes ≥ 2e4 — while producing **bit-identical**
bytes (asserted on every measured payload).

Two entry points:

``test_wire_codec_smoke``
    Small, CI-sized run over a subtracted table and a one-round hierarchy
    sketch.  **Fails if the vectorized codec is slower than the scalar
    path on the numpy backend** for either payload — the regression
    tripwire the CI ``bench-wire-smoke`` job relies on.  Writes
    ``benchmarks/results/b5_wire_smoke.json``.

``test_wire_codec_full``
    The recorded baseline: serialize / deserialize MB/s and per-payload
    latency per backend at difference sizes 2e4 and 5e4, a dense
    one-round hierarchy-sketch payload, and a re-run of the serve
    benchmark (sessions/sec + p95, against the recorded PR-4 baseline).
    Writes ``benchmarks/results/BENCH_5.json`` and mirrors it to the repo
    root so future PRs have a perf trajectory to diff against:

        PYTHONPATH=src python -m pytest benchmarks/bench_wire.py -k full
"""

from __future__ import annotations

import json
import pathlib
import random
import time

import pytest

from repro.core.config import ProtocolConfig
from repro.core.protocol import HierarchicalReconciler
from repro.core.sketch import HierarchySketch, build_level_sketches
from repro.iblt.backends import available_backends
from repro.iblt.table import IBLT, IBLTConfig, recommended_cells
from repro.net import codec
from repro.workloads.synthetic import perturbed_pair

Q = 4
FULL_SIZES = (20_000, 50_000)
SMOKE_SIZE = 2_000
SKETCH_N = 20_000
SMOKE_SKETCH_N = 4_000
TIMING_ROUNDS = 3  # best-of-N, same discipline for both codec paths

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
PR4_SERVE_BASELINE = RESULTS_DIR / "b4_serve.json"


def _timed(producer):
    """Best-of-``TIMING_ROUNDS`` wall time (identical discipline for both
    codec paths, so the recorded speedups are apples-to-apples)."""
    best = float("inf")
    result = None
    for _ in range(TIMING_ROUNDS):
        start = time.perf_counter()
        result = producer()
        best = min(best, time.perf_counter() - start)
    return result, best


def _timed_both(producer, canon=None):
    """(result, vector_s, scalar_s); asserts both paths agree bitwise.

    ``canon`` maps a result to comparable bytes (outside the timers) when
    the result is not already a byte string.
    """
    fast, fast_s = _timed(producer)
    saved = codec._np
    codec._np = None
    try:
        reference, reference_s = _timed(producer)
    finally:
        codec._np = saved
    if canon is not None:
        fast_bytes, reference_bytes = canon(fast), canon(reference)
    else:
        fast_bytes, reference_bytes = fast, reference
    assert fast_bytes == reference_bytes, (
        "vectorized codec diverged from the reference"
    )
    return fast, fast_s, reference_s


def _diff_table(diff_size: int, backend: str, seed: int = 0) -> IBLT:
    """A subtracted table holding a two-sided difference of ``diff_size``
    (the payload shape the protocols actually ship per decode level)."""
    rng = random.Random(seed)
    config = IBLTConfig(
        cells=recommended_cells(diff_size, q=Q), q=Q, seed=seed
    )
    alice = IBLT(config, backend=backend)
    bob = IBLT(config, backend=backend)
    alice.insert_many([rng.getrandbits(60) for _ in range(diff_size // 2)])
    bob.insert_many(
        [rng.getrandbits(60) for _ in range(diff_size - diff_size // 2)]
    )
    return alice.subtract(bob)


def _measure_table(diff_size: int, backend: str) -> dict:
    table = _diff_table(diff_size, backend)
    payload, write_vec_s, write_ref_s = _timed_both(table.to_bytes)

    def parse():
        return IBLT.from_bytes(payload, table.config, backend=backend)

    _, read_vec_s, read_ref_s = _timed_both(
        parse, canon=lambda parsed: parsed.to_bytes()
    )
    mb = len(payload) / 1e6
    return {
        "payload": "subtracted-table",
        "backend": backend,
        "diff_size": diff_size,
        "cells": table.config.cells,
        "payload_bytes": len(payload),
        "write_vector_ms": round(1000 * write_vec_s, 3),
        "write_scalar_ms": round(1000 * write_ref_s, 3),
        "read_vector_ms": round(1000 * read_vec_s, 3),
        "read_scalar_ms": round(1000 * read_ref_s, 3),
        "write_vector_mb_s": round(mb / write_vec_s, 1),
        "read_vector_mb_s": round(mb / read_vec_s, 1),
        "write_speedup": round(write_ref_s / write_vec_s, 2),
        "read_speedup": round(read_ref_s / read_vec_s, 2),
        "roundtrip_speedup": round(
            (write_ref_s + read_ref_s) / (write_vec_s + read_vec_s), 2
        ),
    }


def _measure_sketch(backend: str, n_points: int = SKETCH_N) -> dict:
    """The one-round hierarchy sketch: one fixed-width cell blob per level,
    with each level's count width fixed by its largest count.  The parse
    timing unpacks every level (a sync unpacks only the probed ones), so
    it measures the whole layout, not just the header check."""
    workload = perturbed_pair(0, n_points, 2**16, 2, 16, 3.0)
    config = ProtocolConfig(
        delta=2**16, dimension=2, k=32, seed=0, backend=backend
    )
    reconciler = HierarchicalReconciler(config)
    sketch = HierarchySketch(
        n_points=len(workload.alice),
        levels=build_level_sketches(config, reconciler.grid, workload.alice),
    )
    payload, write_vec_s, write_ref_s = _timed_both(sketch.to_bytes)

    def parse():
        parsed = HierarchySketch.from_bytes(payload, config, reconciler.grid)
        for level in parsed.levels:
            level.table
        return parsed

    _, read_vec_s, read_ref_s = _timed_both(
        parse, canon=lambda parsed: parsed.to_bytes()
    )
    mb = len(payload) / 1e6
    return {
        "payload": "hierarchy-sketch",
        "backend": backend,
        "n_points": n_points,
        "levels": len(sketch.levels),
        "payload_bytes": len(payload),
        "write_vector_ms": round(1000 * write_vec_s, 3),
        "write_scalar_ms": round(1000 * write_ref_s, 3),
        "read_vector_ms": round(1000 * read_vec_s, 3),
        "read_scalar_ms": round(1000 * read_ref_s, 3),
        "write_vector_mb_s": round(mb / write_vec_s, 1),
        "read_vector_mb_s": round(mb / read_vec_s, 1),
        "write_speedup": round(write_ref_s / write_vec_s, 2),
        "read_speedup": round(read_ref_s / read_vec_s, 2),
        "roundtrip_speedup": round(
            (write_ref_s + read_ref_s) / (write_vec_s + read_vec_s), 2
        ),
    }


def _render(runs: list[dict]) -> str:
    header = (
        f"{'payload':>17} {'backend':>8} {'size':>7} {'bytes':>9} "
        f"{'wr vec (ms)':>11} {'wr MB/s':>8} {'rd vec (ms)':>11} "
        f"{'rd MB/s':>8} {'speedup':>8}"
    )
    lines = [header, "-" * len(header)]
    for run in runs:
        size = run.get("diff_size", run.get("n_points", 0))
        lines.append(
            f"{run['payload']:>17} {run['backend']:>8} {size:>7} "
            f"{run['payload_bytes']:>9} {run['write_vector_ms']:>11.2f} "
            f"{run['write_vector_mb_s']:>8.1f} {run['read_vector_ms']:>11.2f} "
            f"{run['read_vector_mb_s']:>8.1f} {run['roundtrip_speedup']:>7.1f}x"
        )
    return "\n".join(lines)


def test_wire_codec_smoke(benchmark, emit, emit_json):
    """CI tripwire: the vectorized codec must not be slower than the scalar
    reference on the numpy backend at the smoke size (bytes asserted
    identical everywhere)."""
    backends = available_backends()

    def run():
        return [
            _measure_table(SMOKE_SIZE, backend) for backend in backends
        ] + [_measure_sketch(backend, SMOKE_SKETCH_N) for backend in backends]

    runs = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    emit("b5_wire_smoke", "B5 smoke: vectorized vs scalar wire codec\n"
         + _render(runs))
    emit_json(
        "b5_wire_smoke",
        {
            "experiment": "b5_smoke",
            "smoke_size": SMOKE_SIZE,
            "smoke_sketch_points": SMOKE_SKETCH_N,
            "runs": runs,
        },
    )
    for vector in runs:
        if vector["backend"] != "numpy":
            continue
        assert vector["roundtrip_speedup"] >= 1.0, (
            f"perf regression: vectorized codec "
            f"({vector['roundtrip_speedup']:.2f}x) slower than the scalar "
            f"reference on the numpy backend ({vector['payload']})"
        )


def test_wire_codec_full(benchmark, emit, emit_json, results_dir):
    """The recorded PR-5 baseline (BENCH_5.json): wire codec + serve."""
    from bench_serve import CONCURRENCY_LEVELS, WORKLOAD_N, experiment

    backends = available_backends()

    def run():
        table_runs = [
            _measure_table(size, backend)
            for backend in backends
            for size in FULL_SIZES
        ]
        sketch_runs = [_measure_sketch(backend) for backend in backends]
        serve_rows, serve_text = experiment()
        return table_runs, sketch_runs, serve_rows, serve_text

    table_runs, sketch_runs, serve_rows, serve_text = benchmark.pedantic(
        run, rounds=1, iterations=1, warmup_rounds=0
    )
    baseline = None
    if PR4_SERVE_BASELINE.exists():
        baseline = json.loads(PR4_SERVE_BASELINE.read_text()).get("rows")
    payload = {
        "bench": "BENCH_5",
        "experiment": (
            "wire codec (vectorized vs scalar serialize/deserialize) "
            "+ serve throughput after the codec/serve-pipeline work"
        ),
        "sizes": list(FULL_SIZES),
        "wire": {"tables": table_runs, "sketches": sketch_runs},
        "serve": {
            "workload_n": WORKLOAD_N,
            "concurrency_levels": list(CONCURRENCY_LEVELS),
            "rows": serve_rows,
            "baseline_pr4_rows": baseline,
        },
    }
    emit(
        "b5_wire",
        "B5: vectorized vs scalar wire codec\n"
        + _render(table_runs + sketch_runs)
        + "\n\n" + serve_text,
    )
    emit_json("BENCH_5", payload)
    # Mirror the baseline to the repo root (the perf-trajectory anchor).
    root_copy = pathlib.Path(__file__).resolve().parent.parent / "BENCH_5.json"
    root_copy.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    if "numpy" in backends:
        at_5e4 = next(
            run for run in table_runs
            if run["backend"] == "numpy" and run["diff_size"] == 50_000
        )
        assert at_5e4["roundtrip_speedup"] >= 10.0, (
            f"acceptance: serialize+deserialize must be >=10x the scalar "
            f"reference on the numpy backend at diff=5e4; measured "
            f"{at_5e4['roundtrip_speedup']:.1f}x"
        )


if __name__ == "__main__":  # pragma: no cover - manual convenience runner
    pytest.main([__file__, "-k", "full", "-q"])
