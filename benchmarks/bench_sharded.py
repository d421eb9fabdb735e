"""B2 — Sharded engine: encode/decode throughput and bits vs shard count.

Claims under test:

1. On a 1e5-point noise-free synthetic workload, the sharded engine with 4
   shards produces a repaired multiset **equal** to the unsharded
   protocol's (noise-free differences repair at level 0, where the
   protocol's output is fully determined).  The acceptance test also asks
   for **>= 2x** faster encode+decode.  That floor dates from when the
   decode techniques (one key pass per shard, a planner over surplus
   cells only, the columnar wire codec) were private to the sharded
   engine; they now serve the unsharded path too, and the test records
   about 1.1-1.3x on 2 vCPUs (``results/b2_sharded_acceptance.txt``)
   and fails.
2. Total wire bits grow only mildly with shard count (per-shard sketches
   are sized to ``ceil(k / S)``).
3. With numpy, the engine's thread fan-out pays: the ``sharded-4 inline``
   row runs the same 4 shards one after another in the calling thread
   (the engine's width forced to 1), and must be slower than
   ``sharded-4`` at n = 1e5 and 1e6 for the thread branch to stay.

Engines are constructed and warmed before timing (numpy first-call costs
are one-time serving costs, not per-reconciliation work).  Each sharded
encode and decode opens and closes its own shard pool, so that cost is
timed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import repro.scale.engine as sharded_engine
from repro.analysis.tables import Table
from repro.core.config import ProtocolConfig
from repro.core.protocol import HierarchicalReconciler
from repro.iblt.backends import available_backends
from repro.scale import ShardedReconciler
from repro.workloads.synthetic import perturbed_pair

DELTA = 2**20
SEED = 0
HAVE_NUMPY = "numpy" in available_backends()
BACKEND = "numpy" if HAVE_NUMPY else "pure"

#: (n, true_k) regimes; k = 2 * true_k.  The 1e6 row keeps true_k moderate
#: so the *unsharded* baseline's O(removals x n) repair stays runnable.
REGIMES = ((100_000, 256), (1_000_000, 64))


def _workload(n: int, true_k: int):
    return perturbed_pair(SEED, n, DELTA, 2, true_k, 0, noise_model="none")


def _warm(engine, encode, decode):
    tiny = _workload(256, 4)
    decode(engine, encode(engine, tiny.alice), tiny.bob)


def _measure(engine, workload, encode, decode, rounds: int = 1):
    best_encode = best_decode = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        payload = encode(engine, workload.alice)
        mid = time.perf_counter()
        result = decode(engine, payload, workload.bob)
        end = time.perf_counter()
        best_encode = min(best_encode, mid - start)
        best_decode = min(best_decode, end - mid)
    return best_encode, best_decode, len(payload) * 8, sorted(result.repaired)


def _unsharded(n: int, true_k: int, workload):
    config = ProtocolConfig(
        delta=DELTA, dimension=2, k=2 * true_k, seed=SEED, backend=BACKEND
    )
    engine = HierarchicalReconciler(config)
    encode = lambda e, pts: e.encode(pts)  # noqa: E731
    decode = lambda e, payload, pts: e.decode_and_repair(payload, pts)  # noqa: E731
    _warm(engine, encode, decode)
    return _measure(engine, workload, encode, decode)


def _sharded(n: int, true_k: int, workload, shards: int):
    config = ProtocolConfig(
        delta=DELTA, dimension=2, k=2 * true_k, seed=SEED, backend=BACKEND,
        shards=shards,
    )
    engine = ShardedReconciler(config)
    encode = lambda e, pts: e.encode(pts)  # noqa: E731
    decode = lambda e, payload, pts: e.decode_and_repair(payload, pts)  # noqa: E731
    _warm(engine, encode, decode)
    return _measure(engine, workload, encode, decode)


@contextmanager
def _inline_shards():
    """Force the engine's fan-out width to 1, so shards run inline."""
    real = sharded_engine.cpu_count
    sharded_engine.cpu_count = lambda: 1
    try:
        yield
    finally:
        sharded_engine.cpu_count = real


def experiment(regimes=REGIMES) -> str:
    table = Table(
        [
            "n", "engine", "encode (s)", "decode (s)",
            "total (s)", "speedup", "wire (kbit)", "equal",
        ],
        title=(
            "B2: sharded engine vs unsharded one-round "
            f"(delta=2^20, d=2, noise-free, backend={BACKEND})"
        ),
    )
    for n, true_k in regimes:
        workload = _workload(n, true_k)
        enc_u, dec_u, bits_u, repaired_u = _unsharded(n, true_k, workload)
        base_total = enc_u + dec_u
        table.add_row([
            n, "unsharded", f"{enc_u:.3f}", f"{dec_u:.3f}",
            f"{base_total:.3f}", "1.0x", f"{bits_u / 1000:.0f}", "-",
        ])
        plans = [(shards, "") for shards in (2, 4, 8)]
        if BACKEND == "numpy":
            plans.append((4, " inline"))
        for shards, inline in plans:
            if inline:
                with _inline_shards():
                    measured = _sharded(n, true_k, workload, shards)
            else:
                measured = _sharded(n, true_k, workload, shards)
            enc_s, dec_s, bits_s, repaired_s = measured
            total = enc_s + dec_s
            table.add_row([
                n, f"sharded-{shards}{inline}", f"{enc_s:.3f}",
                f"{dec_s:.3f}", f"{total:.3f}",
                f"{base_total / total:.1f}x", f"{bits_s / 1000:.0f}",
                str(repaired_s == repaired_u),
            ])
    return table.render()


def test_sharded_table(benchmark, emit):
    result_holder = {}

    def run():
        result_holder["text"] = experiment()

    benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    emit("b2_sharded", result_holder["text"])


def test_sharded_speedup_floor(emit):
    """The acceptance bar: 4 shards on 1e5 points must repair to the exact
    unsharded multiset >= 2x faster."""
    n, true_k = 100_000, 256
    workload = _workload(n, true_k)
    enc_u, dec_u, _, repaired_u = _unsharded(n, true_k, workload)
    enc_s, dec_s, _, repaired_s = _sharded(n, true_k, workload, 4)
    speedup = (enc_u + dec_u) / (enc_s + dec_s)
    lines = [
        "B2 acceptance: sharded (4 shards) vs unsharded",
        f"workload: n={n}, true_k={true_k}, delta=2^20, d=2, noise-free, "
        f"backend={BACKEND}",
        f"unsharded: encode {enc_u:.3f}s decode {dec_u:.3f}s "
        f"total {enc_u + dec_u:.3f}s",
        f"sharded  : encode {enc_s:.3f}s decode {dec_s:.3f}s "
        f"total {enc_s + dec_s:.3f}s",
        f"speedup  : {speedup:.2f}x",
        f"repaired multiset equal: {repaired_s == repaired_u}",
    ]
    emit("b2_sharded_acceptance", "\n".join(lines))
    assert repaired_s == repaired_u, "sharded repair diverged from unsharded"
    assert speedup >= 2.0, f"sharded only {speedup:.2f}x faster"


def test_sharded_smoke(emit):
    """CI smoke: the full measurement pipeline at tiny n (seconds, not
    minutes); records an artifact so the job uploads real output."""
    text = experiment(regimes=((2_000, 16),))
    emit("b2_sharded_smoke", text)


if __name__ == "__main__":
    print(experiment())
