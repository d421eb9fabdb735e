"""The sharded reconciliation engine.

A :class:`ShardedReconciler` splits the point space into ``S`` shards (see
:mod:`repro.scale.partition`), runs one full hierarchy sub-protocol per
shard, and frames the per-shard messages into a single wire payload:

.. code-block:: text

    magic            8 bits   (0xB6)
    version          8 bits   (2 — the sharded successor of the v1 frame)
    shards           varint   (must match the receiver's public coins)
    partition_level  varint   (ditto; rejects drifted configs early)
    directory        varint   per shard: |S_A ∩ shard|
    payloads         length-prefixed per-shard sketch bytes
                     (the v2 columnar codec, :mod:`repro.scale.wire`)

Each shard's payload is byte-aligned, so the receiver slices it out in one
``read_bytes`` and the shards decode independently — concurrently, through
the pluggable executor.  The merged repair is a valid repair of the whole
multiset because shard boundaries follow the shared shifted grid: a fine
cell lies in exactly one shard, so per-shard occurrence ranks equal global
ranks and per-shard edit scripts compose.

Per-shard sketches are sized to the *local* difference budget
(``ceil(k / S)``) rather than the global worst case, so total communication
stays ``O(k log delta)`` while every shard's tables shrink with ``S``.

Two implementations back the per-shard work, chosen per task:

* a **vectorized fast path** (numpy backend + int64-safe keys): one
  :class:`~repro.core.grid.VectorKeyPass` per shard feeds key arrays
  straight into the backend's batch kernels, the decoder reuses the pass
  across probed levels, and repair planning groups only the decoded
  surplus cells instead of bucketing every point;
* the **reference path**: the shard simply runs
  :class:`~repro.core.protocol.HierarchicalReconciler` as-is (always used
  without numpy; also the oracle the fast path is tested against).

Both produce bit-identical wire bytes and identical repairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

try:  # the engine runs (on the reference path) without numpy
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

from repro.core.config import ProtocolConfig
from repro.core.grid import ShiftedGridHierarchy, VectorKeyPass
from repro.core.protocol import HierarchicalReconciler
from repro.core.repair import RepairPlan, _choose_victims, _group_surplus, plan_repair
from repro.core.sketch import LevelSketch, build_level_sketches, level_iblt_config
from repro.emd.metrics import Point
from repro.errors import ReconciliationFailure, SerializationError
from repro.iblt.backends import available_backends
from repro.iblt.decode import decode
from repro.iblt.table import IBLT
from repro.net.bits import BitReader, BitWriter
from repro.net.channel import SimulatedChannel
from repro.net.transcript import Transcript
from repro.scale.executors import ShardExecutor, make_executor
from repro.scale.partition import SpacePartitioner
from repro.scale.wire import (
    SHARD_MAGIC,
    SHARD_VERSION,
    peek_n_points,
    read_shard_sketch,
    write_frame,
    write_shard_sketch,
)


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
    return replace(config, k=shard_k, shards=1, workers=None, executor="serial")


def _effective_backend(config: ProtocolConfig) -> str:
    if config.backend != "auto":
        return config.backend
    return "numpy" if "numpy" in available_backends() else "pure"


@lru_cache(maxsize=32)
def _shard_reconciler(config: ProtocolConfig) -> HierarchicalReconciler:
    """Per-process cache: executor workers rebuild grids only once."""
    return HierarchicalReconciler(config)


# --------------------------------------------------------------- shard tasks
#
# Module-level functions over picklable arguments (configs, byte strings,
# point sequences), so the process executor can ship them to workers.


def _fast_pass(reconciler: HierarchicalReconciler, points) -> VectorKeyPass | None:
    """A vectorized key pass when this shard qualifies for the fast path."""
    config = reconciler.config
    if _effective_backend(config) != "numpy":
        return None
    grid = reconciler.grid
    if any(grid.key_bits(level) > 63 for level in config.sketch_levels):
        return None
    return grid.vector_key_pass(points)


def _encode_shard_task(args) -> bytes:
    config, points = args
    reconciler = _shard_reconciler(config)
    key_pass = _fast_pass(reconciler, points)
    grid = reconciler.grid
    if key_pass is None:
        point_list = _as_point_list(points)
        sketches = build_level_sketches(config, grid, point_list)
        return write_shard_sketch(len(point_list), sketches)
    sketches = []
    for level in config.sketch_levels:
        table = IBLT(
            level_iblt_config(config, grid, level), backend=config.backend
        )
        table.insert_many(key_pass.keys(level))
        sketches.append(LevelSketch(level, table))
    return write_shard_sketch(len(key_pass), sketches)


@dataclass
class _ShardDecode:
    """What one shard's decode task reports back (kept pickle-small)."""

    level: int
    levels_probed: list[int]
    plan: RepairPlan
    alice_surplus: int
    bob_surplus: int


def _decode_shard_task(args) -> _ShardDecode:
    config, payload, points, n_alice, strategy = args
    if peek_n_points(payload) != n_alice:
        raise SerializationError(
            "shard directory count disagrees with the shard payload header"
        )
    reconciler = _shard_reconciler(config)
    key_pass = _fast_pass(reconciler, points)
    point_list = None if key_pass is not None else _as_point_list(points)
    return _decode_parsed_shard(reconciler, payload, key_pass, point_list, strategy)


def _decode_parsed_shard(
    reconciler: HierarchicalReconciler,
    payload: bytes,
    key_pass: VectorKeyPass | None,
    point_list: list[Point] | None,
    strategy: str,
) -> _ShardDecode:
    """One shard's mirror of ``HierarchicalReconciler.decode_and_repair``.

    Same probe order, same balance check, same failure modes, over the v2
    shard payload.  With a key pass, per-probe re-hashing is replaced by
    cached key arrays and the planner touches only decoded surplus cells;
    without one (``point_list`` given) the reference table builder and
    planner run instead.
    """
    config, grid = reconciler.config, reconciler.grid
    n_bob = len(key_pass) if key_pass is not None else len(point_list)
    sketch = read_shard_sketch(payload, config, grid)
    by_level = {level_sketch.level: level_sketch for level_sketch in sketch.levels}
    levels = sorted(by_level)
    if not levels:
        raise ReconciliationFailure("shard sketch carries no levels")
    probed: list[int] = []
    outcomes = {}

    def attempt(level: int):
        if level not in outcomes:
            probed.append(level)
            alice_table = by_level[level].table
            if key_pass is not None:
                bob_table = IBLT(alice_table.config, backend=config.backend)
                bob_table.insert_many(key_pass.keys(level))
            else:
                bob_table = reconciler.level_table(
                    point_list, level, alice_table.config.cells
                )
            result = decode(
                alice_table.subtract(bob_table),
                max_items=config.decode_item_limit,
            )
            if result.success and not HierarchicalReconciler._balanced(
                result, sketch.n_points, n_bob
            ):
                result.success = False  # checksum-evading false decode
            outcomes[level] = result
        return outcomes[level]

    chosen = HierarchicalReconciler._finest_decodable(levels, attempt, "binary")
    if chosen is None:
        raise ReconciliationFailure(
            f"no level of the hierarchy sketch decoded "
            f"(difference exceeds budget k={config.k}?)"
        )
    result = outcomes[chosen]
    if key_pass is not None:
        plan = _plan_repair_vectorized(
            key_pass, grid, chosen, result.alice_keys, result.bob_keys, strategy
        )
    else:
        plan = plan_repair(
            point_list, result.alice_keys, result.bob_keys, grid, chosen, strategy
        )
    return _ShardDecode(
        level=chosen,
        levels_probed=probed,
        plan=plan,
        alice_surplus=len(result.alice_keys),
        bob_surplus=len(result.bob_keys),
    )


def _plan_repair_vectorized(
    key_pass: VectorKeyPass,
    grid: ShiftedGridHierarchy,
    level: int,
    alice_keys: list[int],
    bob_keys: list[int],
    strategy: str,
) -> RepairPlan:
    """:func:`repro.core.repair.plan_repair` touching only surplus cells.

    The reference planner buckets *every* point at the chosen level; here
    the pass's cell-id array is argsorted once and each decoded surplus
    cell becomes a binary search + a slice.  Victim choice is identical:
    slices come out in the pass's coordinate-sorted order, the exact order
    the reference sorts buckets into.
    """
    plan = RepairPlan(level=level)
    for cell, occurrences in _group_surplus(alice_keys, grid, level).items():
        centre = grid.center(cell, level)
        plan.additions.extend(centre for _ in occurrences)
    if not bob_keys:
        return plan

    cell_keys = key_pass.cell_keys(level)
    by_cell = _np.argsort(cell_keys, kind="stable")
    sorted_cells = cell_keys[by_cell]
    occ_bits = grid.occupancy_bits
    for cell, occurrences in _group_surplus(bob_keys, grid, level).items():
        packed = grid.pack_key(cell, 0, level) >> occ_bits
        lo = int(_np.searchsorted(sorted_cells, packed, side="left"))
        hi = int(_np.searchsorted(sorted_cells, packed, side="right"))
        if hi == lo:
            raise ReconciliationFailure(
                f"decoded Bob-surplus key names empty cell {cell} at level {level}"
            )
        for occurrence in occurrences:
            if occurrence >= hi - lo:
                raise ReconciliationFailure(
                    f"decoded occurrence {occurrence} exceeds Bob's "
                    f"{hi - lo} points in cell {cell}"
                )
        count = len(occurrences)
        if strategy == "occurrence":
            victims = [
                key_pass.sorted_point(int(i)) for i in by_cell[hi - count:hi]
            ]
        else:
            bucket = [key_pass.sorted_point(int(i)) for i in by_cell[lo:hi]]
            victims = _choose_victims(bucket, count, strategy)
        plan.removals.extend(victims)
    return plan


def _as_point_list(points) -> list[Point]:
    """Materialise a task's point block as the tuple list the core expects."""
    if isinstance(points, list):
        return points
    return [tuple(row) for row in points.tolist()]


def _apply_plan(points: list[Point], plan: RepairPlan) -> list[Point]:
    """Multiset-equivalent of :func:`repro.core.repair.apply_repair`.

    One counting pass instead of a linear scan per removal — the reference
    applier costs O(removals x n), which dominates decode for large edit
    scripts.  Same failure mode when a victim is missing.
    """
    if not plan.removals:
        return list(points) + plan.additions
    pending: dict[Point, int] = {}
    for victim in plan.removals:
        pending[victim] = pending.get(victim, 0) + 1
    repaired: list[Point] = []
    for point in points:
        count = pending.get(point, 0)
        if count:
            pending[point] = count - 1
        else:
            repaired.append(point)
    for victim, count in pending.items():
        if count:
            raise ReconciliationFailure(
                f"repair removal {victim} not present in Bob's set"
            )
    repaired.extend(plan.additions)
    return repaired


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

    Usable as a context manager; :meth:`close` releases the executor pool.
    The executor is built lazily from ``config.executor`` / ``config.workers``
    on first use, so constructing the reconciler stays cheap.
    """

    def __init__(self, config: ProtocolConfig):
        self.config = config
        self.partitioner = SpacePartitioner(config)
        self.grid = self.partitioner.grid
        self.shard_config = shard_protocol_config(config)
        self._executor: ShardExecutor | None = None

    # ------------------------------------------------------------ lifecycle

    @property
    def executor(self) -> ShardExecutor:
        """The shard executor (built on first use)."""
        if self._executor is None:
            self._executor = make_executor(
                self.config.executor,
                self.config.workers,
                self.config.shards,
                _effective_backend(self.config),
            )
        return self._executor

    def close(self) -> None:
        """Shut the executor pool down (idempotent)."""
        if self._executor is not None:
            self._executor.close()
            self._executor = None

    def __enter__(self) -> "ShardedReconciler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---------------------------------------------------------- partitioning

    def _split_blocks(self, points, want_lists: bool):
        """Per-shard point blocks: numpy slices on the fast path, lists off it.

        Returns ``(blocks, lists)`` where ``blocks`` feed shard tasks and
        ``lists`` (same multisets, or ``None`` unless requested) feed the
        merge step.
        """
        if not isinstance(points, (list, tuple)):
            points = list(points)
        shards = self.config.shards
        if shards == 1:
            block = list(points)
            return [block], ([block] if want_lists else None)
        vectorized = self.partitioner.vector_partition(points)
        if vectorized is not None:
            array, ids = vectorized
            order = _np.argsort(ids, kind="stable")
            bounds = _np.searchsorted(ids[order], _np.arange(shards + 1))
            blocks = [
                array[order[bounds[s]:bounds[s + 1]]] for s in range(shards)
            ]
            lists = None
            if want_lists:
                lists = [
                    [tuple(row) for row in block.tolist()] for block in blocks
                ]
            return blocks, lists
        lists = self.partitioner.split(points)
        return lists, (lists if want_lists else None)

    # ------------------------------------------------------------- Alice

    def encode(self, points) -> bytes:
        """Alice's single message: the shard directory plus every shard."""
        blocks, _ = self._split_blocks(points, want_lists=False)
        payloads = self.executor.map(
            _encode_shard_task,
            [(self.shard_config, block) for block in blocks],
        )
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
        blocks, lists = self._split_blocks(bob_points, want_lists=True)
        shard_results = self.executor.map(
            _decode_shard_task,
            [
                (self.shard_config, shard_payload, block, n_alice, strategy)
                for shard_payload, block, n_alice in zip(payloads, blocks, counts)
            ],
        )
        repaired: list[Point] = []
        for shard_points, shard in zip(lists, shard_results):
            repaired.extend(_apply_plan(shard_points, shard.plan))
        return ShardedResult(
            repaired=repaired,
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
    # One shared engine (grid + executor pool) for both endpoints, as the
    # pre-session code had; injected reconcilers are not closed by sessions.
    with ShardedReconciler(config) as reconciler:
        alice = ShardedSession(
            config, alice_points, role="alice", reconciler=reconciler
        )
        bob = ShardedSession(
            config, bob_points, role="bob", strategy=strategy,
            reconciler=reconciler,
        )
        _, result = pump(alice, bob, channel)
    if owns_channel:
        channel.close()
    result.transcript = Transcript.from_messages(channel.messages[first_message:])
    return result
