"""The four workloads, each against the real server and client over TCP.

Every workload draws its inputs from ``perturbed_pair`` with
Δ = 2^16, d = 2, true_k = 8 and ``ProtocolConfig(k=16, backend="numpy")``
from the run's seed.  Server and client share one process and one event
loop over loopback TCP, one connection at a time (a closed loop): no
timing includes a wake-up of another process.

Each workload offers these steps to the measuring loop in
:mod:`perfbench.bench`:

* ``prepare()`` builds the inputs, outside any timing;
* ``setup()`` is what ``setup_s`` times: build the ``ServerCore``,
  ``warm()`` it and bind the server;
* ``begin(server)`` runs once before measuring (recordings, warm-ups,
  the inputs of the exact metrics);
* ``op(server)`` is one measured iteration, returning an :class:`Op`;
* ``close()`` releases what ``begin`` built.

``check()`` runs after measuring and raises :class:`CheckFailed` on any
wrong output.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from repro.core.config import ProtocolConfig
from repro.core.protocol import HierarchicalReconciler
from repro.emd.matching import emd
from repro.emd.partial import emd_k
from repro.serve import ReconciliationServer
from repro.serve.service import ServerCore, sync
from repro.store import DurableSketchStore
from repro.workloads.synthetic import perturbed_pair

from perfbench.replay import record, replay

DELTA = 2**16
DIMENSION = 2
TRUE_K = 8
K = 16
TIMEOUT = 60.0


class CheckFailed(Exception):
    """An output of the program was wrong; the run reports no metrics."""


@dataclass
class Op:
    """One measured iteration.

    ``sync_s`` is the client-view sync latency; ``other_s`` any further
    timed work in the iteration (the ingest on ``store-ingest``).
    """

    sync_s: float
    other_s: float = 0.0
    #: Which of the workload's inputs the operation ran on.
    stratum: int = 0


def config_for(seed: int) -> ProtocolConfig:
    return ProtocolConfig(
        delta=DELTA, dimension=DIMENSION, k=K, seed=seed, backend="numpy"
    )


def points_digest(points) -> str:
    return hashlib.sha256(repr(sorted(points)).encode()).hexdigest()


def cancel_common(xs, ys):
    """Drop the multiset intersection of ``xs`` and ``ys``.

    Under a metric an optimal (partial) matching can always pair equal
    points with each other, so EMD and EMD_k are unchanged — and the
    dense cost matrix shrinks to the points that actually differ.
    """
    common = Counter(xs) & Counter(ys)
    rest_x, rest_y = Counter(xs) - common, Counter(ys) - common
    return list(rest_x.elements()), list(rest_y.elements())


def emd_exact(xs, ys, k: int | None = None) -> float:
    xs, ys = cancel_common(xs, ys)
    if not xs:
        return 0.0
    if k is None:
        return emd(xs, ys, backend="scipy")
    return emd_k(xs, ys, k, backend="scipy")


def repair_quality(alice, bob, repaired) -> tuple[float, float, float]:
    """(EMD before, EMD after, EMD_k) of one repair, exactly."""
    if len(repaired) != len(alice):
        raise CheckFailed(
            f"repaired set has {len(repaired)} points, Alice has {len(alice)}"
        )
    return (
        emd_exact(alice, bob), emd_exact(alice, repaired),
        emd_exact(alice, bob, TRUE_K),
    )


class Workload:
    name = ""
    variant = ""
    #: Fail the run when a repair leaves Bob further from Alice in EMD.
    REPAIR_MUST_IMPROVE = True

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.config = config_for(seed)
        self.exact: dict[str, float] = {}
        self.digests: dict[str, str] = {}
        #: Server-side ``SessionStats.duration_s`` of every session.
        self.session_seconds: list[float] = []
        #: Lines for people, printed after the metrics.
        self.notes: list[str] = []

    def prepare(self) -> None:
        raise NotImplementedError

    def core(self) -> ServerCore:
        raise NotImplementedError

    async def setup(self) -> ReconciliationServer:
        return await self.serve(self.core())

    async def serve(self, core: ServerCore) -> ReconciliationServer:
        """Warm ``core`` for this workload's variant and start serving."""
        server = ReconciliationServer(
            core=core.warm((self.variant,)),
            on_session=lambda stats: self.session_seconds.append(
                stats.duration_s
            ),
        )
        await server.start()
        return server

    async def teardown(self, server: ReconciliationServer) -> None:
        await server.close()
        server.core.close()

    async def begin(self, server) -> None:
        pass

    async def close(self) -> None:
        """Release what ``begin`` built beyond the measured server."""

    async def op(self, server) -> Op:
        raise NotImplementedError

    def cycle_done(self) -> bool:
        """True when the server must be rebuilt before the next op."""
        return False

    def check(self) -> None:
        pass

    def record_quality(self, repairs) -> None:
        """Exact quality of ``(alice, bob, repaired)`` repairs, as means:
        the paper's ``emd(alice, repaired) / emd_k(alice, bob, true_k)``
        (0 for an exact repair), ``1 - after / before``, and the share of
        repairs that raised EMD."""
        rows = [repair_quality(*repair) for repair in repairs]
        raised = sum(after > before for before, after, _ in rows)
        if raised and self.REPAIR_MUST_IMPROVE:
            before, after, _ = next(r for r in rows if r[1] > r[0])
            raise CheckFailed(
                f"repair raised EMD: {after} after vs {before} before"
            )
        for _, _, base in rows:
            if base <= 0:
                raise CheckFailed("EMD_k of an input is 0; no ratio")
        count = len(rows)
        self.exact["repair_emd_ratio"] = sum(a / k for _, a, k in rows) / count
        self.exact["emd_removed_share"] = (
            sum(1 - a / b for b, a, _ in rows) / count
        )
        self.exact["emd_raised_share"] = raised / count


class OneRoundNoisy(Workload):
    name = "oneround-noisy"
    variant = "one-round"

    def prepare(self) -> None:
        self.pair = perturbed_pair(self.seed, 4000, DELTA, DIMENSION, TRUE_K, 4)
        self.bob = HierarchicalReconciler(self.config)
        self.first = None

    def core(self) -> ServerCore:
        return ServerCore(self.config, self.pair.alice)

    async def op(self, server) -> Op:
        started = time.perf_counter()
        result = await sync(
            *server.address, self.config, self.pair.bob,
            variant=self.variant, reconciler=self.bob, timeout=TIMEOUT,
        )
        elapsed = time.perf_counter() - started
        outcome = (
            result.transcript.total_bytes, result.transcript.rounds,
            points_digest(result.repaired),
        )
        if self.first is None:
            self.first = outcome
            self.repaired = result.repaired
        elif outcome != self.first:
            raise CheckFailed(f"sync differs from the first: {outcome}")
        return Op(elapsed)

    def check(self) -> None:
        self.exact["payload_bytes_per_sync"] = self.first[0]
        self.exact["rounds_per_sync"] = self.first[1]
        self.record_quality([(self.pair.alice, self.pair.bob, self.repaired)])


class Replay(Workload):
    """Replay Bob's recorded frames; the server is all that runs.

    ``SUBSEEDS`` independent (config, points) pairs, each with its own
    server, are derived from the run's seed and served in turn; the
    first pair's server is the one ``setup()`` builds.  Where
    one pair's cost depends strongly on its seed (the adaptive
    estimator's window size does), the mix keeps a run's figures from
    hanging on a single draw.  The EMD check runs on the first
    ``EMD_SUBSEEDS`` of them.
    """

    noise = 0
    n = 2000
    SUBSEEDS = 1
    EMD_SUBSEEDS = 1

    def prepare(self) -> None:
        seeds = (
            [self.seed] if self.SUBSEEDS == 1
            else [self.seed * self.SUBSEEDS + j for j in range(self.SUBSEEDS)]
        )
        self.subs = [
            (config_for(seed), perturbed_pair(
                seed, self.n, DELTA, DIMENSION, TRUE_K, self.noise
            ))
            for seed in seeds
        ]
        self.others: list[ReconciliationServer] = []
        self.turn = 0

    def core(self) -> ServerCore:
        config, pair = self.subs[0]
        return ServerCore(config, pair.alice)

    async def begin(self, server) -> None:
        """Serve the other pairs (untimed: ``setup_s`` is one server's
        set-up) and record and verify one real sync against each."""
        self.others = [
            await self.serve(ServerCore(config, pair.alice))
            for config, pair in self.subs[1:]
        ]
        self.recordings, self.repaired = [], []
        for index, ((config, pair), server) in enumerate(
            zip(self.subs, [server, *self.others])
        ):
            recording, result = await record(
                *server.address, config, pair.bob, self.variant,
                timeout=TIMEOUT,
            )
            self.recordings.append(recording)
            self.repaired.append(result.repaired)
            self.digests[f"recording-{index}"] = recording.digest()
            # The recording must itself be a correct sync, and a replay
            # of it must verify before any timing starts.
            await replay(*server.address, recording, TIMEOUT)

    async def close(self) -> None:
        for server in self.others:
            await self.teardown(server)

    async def op(self, server) -> Op:
        index = self.turn % len(self.recordings)
        self.turn += 1
        if index:
            server = self.others[index - 1]
        recording = self.recordings[index]
        started = time.perf_counter()
        await replay(*server.address, recording, TIMEOUT)
        elapsed = time.perf_counter() - started
        return Op(elapsed, stratum=index)

    def check(self) -> None:
        count = len(self.recordings)
        self.exact["payload_bytes_per_sync"] = (
            sum(r.payload_bytes for r in self.recordings) / count
        )
        self.exact["rounds_per_sync"] = (
            sum(r.rounds for r in self.recordings) / count
        )
        self.record_quality(
            (pair.alice, pair.bob, repaired)
            for (_, pair), repaired in zip(
                self.subs[:self.EMD_SUBSEEDS], self.repaired
            )
        )


class RatelessReplay(Replay):
    name = "rateless-replay"
    variant = "rateless"
    noise = 1


class AdaptiveReplay(Replay):
    name = "adaptive-replay"
    variant = "adaptive"
    noise = 4
    SUBSEEDS = 24
    EMD_SUBSEEDS = 2
    # At noise 4 the adaptive repair sometimes falls back to the coarsest
    # level and leaves Bob further from Alice than before (about 1 input
    # in 9; the pair drawn from seed 273 goes from EMD 184,980 to 205,451).  That is a defect
    # of the adaptive variant, so it is reported as emd_raised_share
    # rather than failing every run that draws such an input.
    REPAIR_MUST_IMPROVE = False


class StoreIngest(Workload):
    """Live WAL-before-ack ingests on a recovered store, each followed by
    a one-round sync that pays the re-encode the ingest forced.

    The template (a bulk-loaded snapshot plus ten WAL batches) is built
    once per run and copied for every cold start, so no run's ingests
    leak into another's recovery.  Every ``CYCLE`` iterations the server
    restarts from a fresh copy, which keeps the point count (and so each
    iteration's cost) the same all run long.
    """

    name = "store-ingest"
    variant = "one-round"
    BASE_N = 9000
    WAL_BATCHES = 10
    BATCH = 100
    CYCLE = 10
    NOISE = 1

    def batch(self, index: int):
        """Batch ``index``: Alice's fresh points and Bob's noisy copies."""
        pair = perturbed_pair(
            self.seed * 1_000_003 + index + 1, self.BATCH, DELTA, DIMENSION,
            0, self.NOISE,
        )
        return pair.alice, pair.bob

    def prepare(self) -> None:
        # The template's shared points carry no noise (it lives in the
        # ingested batches), so the EMD check cancels them exactly and its
        # dense cost matrix stays near 2000 points instead of 10,000.
        base = perturbed_pair(self.seed, self.BASE_N, DELTA, DIMENSION, TRUE_K, 0)
        self.template = self.workdir / "template"
        shutil.rmtree(self.template, ignore_errors=True)
        self.template.mkdir(parents=True)
        store = DurableSketchStore.open(self.config, str(self.template))
        store.bulk_load(base.alice)
        alice, bob = list(base.alice), list(base.bob)
        for index in range(self.WAL_BATCHES):
            fresh, noisy = self.batch(index)
            store.insert_batch(fresh)
            alice += fresh
            bob += noisy
        self.template_alice, self.template_bob = alice, bob
        self.bob_engine = HierarchicalReconciler(self.config)
        self.recovery = None
        self.copies = 0
        self.first_cycle: list[tuple] = []

    def core(self) -> ServerCore:
        target = self.workdir / f"cold-{self.copies}"
        self.copies += 1
        shutil.rmtree(target, ignore_errors=True)
        shutil.copytree(self.template, target)
        self.store_dir = target
        store = DurableSketchStore.open(self.config, str(target))
        recovery = store.recovery
        if self.recovery is None:
            self.recovery = recovery
        elif recovery != self.recovery:
            raise CheckFailed(
                f"cold start recovered {recovery}, first was {self.recovery}"
            )
        self.alice = list(self.template_alice)
        self.bob = list(self.template_bob)
        self.iteration = 0
        return ServerCore(self.config, self.alice, store=store)

    async def teardown(self, server) -> None:
        await super().teardown(server)
        shutil.rmtree(self.store_dir, ignore_errors=True)

    async def op(self, server) -> Op:
        fresh, noisy = self.batch(self.WAL_BATCHES + self.iteration)
        self.bob = self.bob + noisy
        started = time.perf_counter()
        server.core.ingest(fresh)
        ingested = time.perf_counter()
        result = await sync(
            *server.address, self.config, self.bob,
            variant=self.variant, reconciler=self.bob_engine, timeout=TIMEOUT,
        )
        done = time.perf_counter()
        self.iteration += 1
        outcome = (
            result.transcript.total_bytes, result.transcript.rounds,
            points_digest(result.repaired),
        )
        if len(self.first_cycle) < self.CYCLE:
            self.first_cycle.append(outcome)
            if len(self.first_cycle) == self.CYCLE:
                self.verify_payload(server)
                self.alice_last = list(server.core.points)
                self.bob_last = list(self.bob)
                self.repaired = result.repaired
        elif outcome != self.first_cycle[self.iteration - 1]:
            raise CheckFailed(
                f"iteration {self.iteration} of a cycle differs from the "
                "first cycle"
            )
        return Op(done - ingested, other_s=ingested - started)

    def verify_payload(self, server) -> None:
        served = server.core.encoded(self.variant)
        fresh = HierarchicalReconciler(self.config).encode(server.core.points)
        if served != fresh:
            raise CheckFailed(
                "the store's one-round payload differs from a fresh encode"
            )

    def cycle_done(self) -> bool:
        return self.iteration >= self.CYCLE

    def check(self) -> None:
        if len(self.first_cycle) < self.CYCLE:
            raise CheckFailed(
                f"only {len(self.first_cycle)} of {self.CYCLE} iterations of "
                "the first cycle ran; the exact metrics need a whole cycle"
            )
        self.exact["payload_bytes_per_sync"] = (
            sum(o[0] for o in self.first_cycle) / self.CYCLE
        )
        self.exact["rounds_per_sync"] = (
            sum(o[1] for o in self.first_cycle) / self.CYCLE
        )
        self.record_quality([(self.alice_last, self.bob_last, self.repaired)])
        self.digests["recovery"] = repr(self.recovery)


WORKLOADS = {
    cls.name: cls
    for cls in (OneRoundNoisy, RatelessReplay, AdaptiveReplay, StoreIngest)
}
