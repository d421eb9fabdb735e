"""The sharded reconciliation engine.

A :class:`ShardedReconciler` splits the point space into ``S`` shards (see
:mod:`repro.scale.partition`), runs one full hierarchy sub-protocol per
shard, and frames the per-shard messages into a single wire payload:

.. code-block:: text

    magic            8 bits   (0xB6)
    version          8 bits   (2)
    shards           varint   (must match the receiver's public coins)
    partition_level  varint   (ditto; rejects drifted configs early)
    directory        varint   per shard: |S_A ∩ shard|
    payloads         length-prefixed per-shard sketch bytes
                     (:class:`~repro.core.sketch.HierarchySketch`)

Each shard's payload is byte-aligned, so the receiver slices it out in one
``read_bytes`` and the shards decode independently — concurrently, on a
pool each call opens and closes (see :func:`_fan_out`), so the engine holds
no resources between calls.  The merged repair is a valid repair of the
whole multiset because shard boundaries follow the shared shifted grid: a
fine cell lies in exactly one shard, so per-shard occurrence ranks equal
global ranks and per-shard edit scripts compose.

Per-shard sketches are sized to the *local* difference budget
(``ceil(k / S)``) rather than the global worst case, so total communication
stays ``O(k log delta)`` while every shard's tables shrink with ``S``.

Each shard task only parses or writes its sketch; the hierarchy work
itself — key passes, the level probe, repair planning and application —
is :mod:`repro.core`'s single implementation
(:meth:`~repro.core.protocol.HierarchicalReconciler.repair_from_sketch`),
so a shard decodes exactly as an unsharded Bob would.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache
from os import cpu_count

from repro.core.config import ProtocolConfig
from repro.core.protocol import HierarchicalReconciler, ReconcileResult
from repro.core.repair import RepairPlan
from repro.core.sketch import HierarchySketch, build_level_sketches
from repro.emd.metrics import Point
from repro.errors import SerializationError
from repro.iblt.backends import available_backends
from repro.net.bits import BitReader
from repro.net.channel import SimulatedChannel
from repro.net.transcript import Transcript
from repro.scale.partition import SpacePartitioner
from repro.scale.wire import SHARD_MAGIC, SHARD_VERSION, write_frame


def shard_protocol_config(config: ProtocolConfig) -> ProtocolConfig:
    """The sub-protocol config every shard runs with.

    The local difference budget is ``ceil(k / shards)``: with the shard map
    hashing coarse cells, a difference of ``k`` points spreads across
    shards like balls into bins, and ``diff_margin`` already pays for the
    imbalance tail.  Everything geometric (delta, shift, levels) is shared
    so shard cells nest in the global grid.
    """
    if config.shards == 1:
        return config
    shard_k = max(1, -(-config.k // config.shards))
    return replace(config, k=shard_k, shards=1)


def _effective_backend(config: ProtocolConfig) -> str:
    if config.backend != "auto":
        return config.backend
    return "numpy" if "numpy" in available_backends() else "pure"


@lru_cache(maxsize=32)
def _shard_reconciler(config: ProtocolConfig) -> HierarchicalReconciler:
    """Per-process cache of shard reconcilers (grids included).

    :class:`ShardedReconciler` fills it when constructed, so the workers
    forked for each call inherit it warm instead of rebuilding the grids.
    """
    return HierarchicalReconciler(config)


def fork_available() -> bool:
    """True when the ``fork`` start method exists (POSIX)."""
    return "fork" in multiprocessing.get_all_start_methods()


class _Inline:
    """The one-worker fan-out: shards run in order, in this thread."""

    map = staticmethod(map)

    def __enter__(self) -> "_Inline":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


def _fan_out(config: ProtocolConfig):
    """The pool for one shard fan-out, closed by the caller's ``with``.

    It is ``min(shards, cpu_count)`` wide, and one worker runs the shards
    inline.  numpy shards go to threads, which pickle nothing: with 4
    shards on 2 CPUs they beat inline by about 1.3x at n = 1e5 and 1e6
    (``benchmarks/bench_sharded.py`` times both).  Pure shards only scale
    across processes, forked so they inherit the loaded library; without
    ``fork`` they run inline.  Scheduling never reaches the wire.
    """
    width = min(config.shards, cpu_count() or 1)
    if width > 1 and _effective_backend(config) == "numpy":
        return ThreadPoolExecutor(max_workers=width)
    if width > 1 and fork_available():
        return ProcessPoolExecutor(
            max_workers=width, mp_context=multiprocessing.get_context("fork")
        )
    return _Inline()


# --------------------------------------------------------------- shard tasks
#
# Module-level functions over picklable arguments (configs, byte strings,
# point lists), so a process pool can ship them to workers.


def _encode_shard_task(args) -> bytes:
    config, points = args
    sketches = build_level_sketches(config, _shard_reconciler(config).grid, points)
    return HierarchySketch(len(points), sketches).to_bytes()


def _decode_shard_task(args) -> ReconcileResult:
    config, payload, points, n_alice, strategy = args
    reconciler = _shard_reconciler(config)
    sketch = HierarchySketch.from_bytes(payload, config, reconciler.grid)
    if sketch.n_points != n_alice:
        raise SerializationError(
            "shard directory count disagrees with the shard payload header"
        )
    return reconciler.repair_from_sketch(sketch, points, strategy)


# ------------------------------------------------------------------ results


@dataclass
class ShardedResult:
    """Merged outcome of a sharded reconciliation run.

    Mirrors :class:`~repro.core.protocol.ReconcileResult` where it can;
    per-shard detail lives in the extra fields.
    """

    repaired: list[Point]
    shard_levels: list[int]
    alice_surplus: int
    bob_surplus: int
    plans: list[RepairPlan]
    levels_probed: list[list[int]] = field(default_factory=list)
    transcript: Transcript | None = None

    @property
    def level(self) -> int:
        """Coarsest level any shard repaired at (bounds the error radius)."""
        return max(self.shard_levels, default=0)

    @property
    def exact(self) -> bool:
        """True when every shard repaired at level 0 (centres are exact)."""
        return all(level == 0 for level in self.shard_levels)

    @property
    def plan(self) -> RepairPlan:
        """All shard edit scripts merged (level = the coarsest used)."""
        merged = RepairPlan(level=self.level)
        for plan in self.plans:
            merged.additions.extend(plan.additions)
            merged.removals.extend(plan.removals)
        return merged


# ------------------------------------------------------------------- engine


class ShardedReconciler:
    """Both endpoints of the sharded one-round protocol.

    Holds no resources: each :meth:`encode` and :meth:`decode_and_repair`
    opens its own shard fan-out and closes it before returning.
    """

    def __init__(self, config: ProtocolConfig):
        self.config = config
        self.partitioner = SpacePartitioner(config)
        self.grid = self.partitioner.grid
        self.shard_config = shard_protocol_config(config)
        _shard_reconciler(self.shard_config)  # warm before any fork

    # ------------------------------------------------------------- Alice

    def encode(self, points) -> bytes:
        """Alice's single message: the shard directory plus every shard."""
        blocks = self.partitioner.split(points)
        with _fan_out(self.config) as pool:
            payloads = list(pool.map(
                _encode_shard_task,
                [(self.shard_config, block) for block in blocks],
            ))
        return write_frame(
            self.config.shards,
            self.partitioner.level,
            [len(block) for block in blocks],
            payloads,
        )

    # --------------------------------------------------------------- Bob

    def parse_frame(self, payload: bytes) -> tuple[list[int], list[bytes]]:
        """Split a sharded frame into per-shard point counts and payloads."""
        reader = BitReader(payload)
        if reader.read_uint(8) != SHARD_MAGIC:
            raise SerializationError("bad magic byte; not a sharded sketch")
        if reader.read_uint(8) != SHARD_VERSION:
            raise SerializationError("unsupported sharded sketch version")
        shards = reader.read_varint()
        if shards != self.config.shards:
            raise SerializationError(
                f"sharded sketch carries {shards} shards, config says "
                f"{self.config.shards}"
            )
        level = reader.read_varint()
        if level != self.partitioner.level:
            raise SerializationError(
                f"sharded sketch partitioned at level {level}, config derives "
                f"{self.partitioner.level}"
            )
        counts = [reader.read_varint() for _ in range(shards)]
        payloads = [reader.read_bytes() for _ in range(shards)]
        reader.expect_end()
        return counts, payloads

    def decode_and_repair(
        self, payload: bytes, bob_points, strategy: str = "occurrence"
    ) -> ShardedResult:
        """Bob's side: decode every shard, merge the edit scripts."""
        counts, payloads = self.parse_frame(payload)
        blocks = self.partitioner.split(bob_points)
        with _fan_out(self.config) as pool:
            shard_results = list(pool.map(
                _decode_shard_task,
                [
                    (self.shard_config, shard_payload, block, n_alice, strategy)
                    for shard_payload, block, n_alice in zip(
                        payloads, blocks, counts
                    )
                ],
            ))
        return ShardedResult(
            repaired=[point for shard in shard_results for point in shard.repaired],
            shard_levels=[shard.level for shard in shard_results],
            alice_surplus=sum(s.alice_surplus for s in shard_results),
            bob_surplus=sum(s.bob_surplus for s in shard_results),
            plans=[shard.plan for shard in shard_results],
            levels_probed=[shard.levels_probed for shard in shard_results],
        )


def reconcile_sharded(
    alice_points,
    bob_points,
    config: ProtocolConfig,
    channel: SimulatedChannel | None = None,
    strategy: str = "occurrence",
) -> ShardedResult:
    """Run a complete sharded one-round exchange over a (simulated) channel.

    A thin driver pumping a pair of :class:`~repro.session.ShardedSession`
    machines (:mod:`repro.session`) over the channel.  A caller-supplied
    channel is left open for reuse; the transcript covers this run's
    messages only.

    >>> config = ProtocolConfig(delta=256, dimension=1, k=2, seed=7, shards=2)
    >>> result = reconcile_sharded([(10,), (200,)], [(11,), (200,)], config)
    >>> len(result.repaired)
    2
    """
    # Lazy import: repro.session layers above this module.
    from repro.session import ShardedSession, pump

    owns_channel = channel is None
    channel = channel if channel is not None else SimulatedChannel()
    first_message = len(channel.messages)
    # One shared engine (grid and partitioner) for both endpoints.
    reconciler = ShardedReconciler(config)
    alice = ShardedSession(
        config, alice_points, role="alice", reconciler=reconciler
    )
    bob = ShardedSession(
        config, bob_points, role="bob", strategy=strategy, reconciler=reconciler
    )
    _, result = pump(alice, bob, channel)
    if owns_channel:
        channel.close()
    result.transcript = Transcript.from_messages(channel.messages[first_message:])
    return result
