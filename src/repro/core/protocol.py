"""The one-round robust reconciliation protocol (the paper's algorithm).

Alice builds one IBLT per grid level over occurrence-indexed cell keys and
ships them all in a single message.  Bob deletes his own keys from Alice's
tables level by level, finds the **finest level that peels**, and repairs
his set from the decoded key difference: delete his surplus points, insert
cell centres for Alice's surplus.

Why the finest decodable level is the right one: at level ``ℓ`` the expected
number of *close* pairs split across cells is at most ``EMD_k / 2^ℓ``
(split-probability fact), so the symmetric key difference is about
``2·EMD_k/2^ℓ + 2k``; the sketch capacity ``Θ(k·diff_margin)`` is first
reached near ``2^{ℓ*} ≈ EMD_k / k``.  Each repaired point then costs at most
a cell diameter ``d · 2^{ℓ*}``, for a total of
``O(k · d · EMD_k / k) = O(d) · EMD_k`` — the paper's approximation factor.

Bob brackets the finest decodable level (decodability is monotone in the
level up to peeling-threshold noise) and aims each probe with the same
fact: the difference roughly halves per coarser level, so one probed
level's difference says how many levels away the peeling threshold lies.
A failed level's difference is estimated from how many of its cells are
occupied, a peeled level's is the number of keys it recovered.  Each
probe deletes Bob's ``n`` keys from one level's table; a noisy sync
typically takes 3 or 4 probes, and never more than ``O(log L)`` for
``L = log Δ`` levels, so his work is ``O(n log log Δ)``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

from repro.core.config import ProtocolConfig
from repro.core.grid import ScalarKeyPass, ShiftedGridHierarchy, VectorKeyPass
from repro.core.repair import RepairPlan, apply_repair, plan_repair
from repro.core.sketch import (
    HierarchySketch,
    LevelSketch,
    build_level_sketches,
    level_iblt_config,
)
from repro.emd.metrics import Point
from repro.errors import ReconciliationFailure
from repro.iblt.decode import DecodeResult, decode
from repro.iblt.table import IBLT, PEELING_THRESHOLDS
from repro.net.channel import SimulatedChannel
from repro.net.transcript import Transcript

@dataclass
class ReconcileResult:
    """Outcome of one robust reconciliation run.

    Attributes
    ----------
    repaired:
        Bob's final point multiset ``S'_B``.
    level:
        Grid level the difference was decoded at (``0`` means the repair
        was exact).
    alice_surplus, bob_surplus:
        Number of centre insertions / point deletions applied.
    plan:
        The full edit script.
    levels_probed:
        Which levels Bob attempted to decode, in probe order.
    transcript:
        Measured communication (``None`` when run without a channel).
    """

    repaired: list[Point]
    level: int
    alice_surplus: int
    bob_surplus: int
    plan: RepairPlan
    levels_probed: list[int] = field(default_factory=list)
    transcript: Transcript | None = None

    @property
    def exact(self) -> bool:
        """True when the repair happened at level 0 (centres are exact)."""
        return self.level == 0


class HierarchicalReconciler:
    """Both endpoints of the one-round protocol, bound to one config."""

    def __init__(self, config: ProtocolConfig):
        self.config = config
        shift = None if config.random_shift else (0,) * config.dimension
        self.grid = ShiftedGridHierarchy(
            config.delta, config.dimension, config.seed, config.occupancy_bits,
            shift=shift,
        )

    # ------------------------------------------------------------- Alice

    def level_table(
        self,
        points: list[Point],
        level: int,
        cells: int | None = None,
        key_pass: VectorKeyPass | ScalarKeyPass | None = None,
        minuend: IBLT | None = None,
    ) -> IBLT:
        """Build one level's IBLT over a point multiset.

        ``key_pass`` (over the same ``points``) supplies the keys when the
        caller holds one; otherwise they are hashed from ``points``.  With
        ``minuend`` (a level table the caller owns) the keys are deleted
        from it in place instead, leaving ``minuend`` minus the multiset's
        table, which is returned.
        """
        if key_pass is not None:
            keys = key_pass.keys(level)
        else:
            keys = self.grid.keys_for(points, level)
        if minuend is not None:
            minuend.delete_many(keys)
            return minuend
        table = IBLT(
            level_iblt_config(self.config, self.grid, level, cells),
            backend=self.config.backend,
        )
        table.insert_many(keys)
        return table

    def encode(self, points: list[Point]) -> bytes:
        """Alice's single message: every sketched level, finest first."""
        level_sketches = build_level_sketches(self.config, self.grid, points)
        sketch = HierarchySketch(n_points=len(points), levels=level_sketches)
        return sketch.to_bytes()

    # --------------------------------------------------------------- Bob

    def decode_and_repair(
        self,
        payload: bytes,
        bob_points: list[Point],
        strategy: str = "occurrence",
        probe: str = "binary",
    ) -> ReconcileResult:
        """Bob's side: find the finest decodable level and repair.

        Parameters
        ----------
        payload:
            Alice's message.
        bob_points:
            Bob's current point multiset.
        strategy:
            Victim-selection strategy for deletions (see
            :mod:`repro.core.repair`).
        probe:
            ``"binary"`` (default) brackets the finest decodable level,
            aiming each probe with the difference the last one saw (see
            :func:`_finest_decodable`); ``"linear"`` scans every level
            finest-first (used by tests and ablations to validate the
            search).
        """
        sketch = HierarchySketch.from_bytes(payload, self.config, self.grid)
        return self.repair_from_sketch(sketch, bob_points, strategy, probe)

    def repair_from_sketch(
        self,
        sketch: HierarchySketch,
        bob_points: list[Point],
        strategy: str = "occurrence",
        probe: str = "binary",
    ) -> ReconcileResult:
        """:meth:`decode_and_repair` over an already parsed sketch.

        Bob's keys come from one key pass shared by every probed level and
        the repair planner: :meth:`ShiftedGridHierarchy.vector_key_pass`,
        or a :class:`ScalarKeyPass` where no vector pass is possible.  Each
        probed level unpacks a copy of Alice's table and deletes Bob's keys
        from it; levels never probed stay packed, and ``sketch`` is left
        unchanged.  A peel is accepted only if every Bob-surplus key is one
        of Bob's own keys at that level (a membership test on the key pass),
        so a peel naming a point Bob does not hold leaves the search going.
        The repair is planned once, for the chosen level.
        """
        alice_levels = {
            level_sketch.level: level_sketch for level_sketch in sketch.levels
        }
        key_pass = self.grid.vector_key_pass(bob_points, tuple(alice_levels))
        if key_pass is None:
            key_pass = ScalarKeyPass(self.grid, bob_points)
        level, result, probed = probe_levels(
            alice_levels,
            lambda level, alice_table: self.level_table(
                bob_points, level, key_pass=key_pass, minuend=alice_table
            ),
            lambda level, result: key_pass.holds(result.bob_keys, level),
            sketch.n_points,
            len(bob_points),
            self.config,
            probe,
        )
        plan = plan_repair(
            bob_points, result.alice_keys, result.bob_keys,
            self.grid, level, strategy, key_pass,
        )
        return ReconcileResult(
            repaired=apply_repair(bob_points, plan),
            level=level,
            alice_surplus=len(result.alice_keys),
            bob_surplus=len(result.bob_keys),
            plan=plan,
            levels_probed=probed,
        )


@dataclass(frozen=True)
class LevelProbe:
    """What probing one level saw.

    ``occupied`` of the difference table's ``cells`` (in ``q``
    partitions) were nonzero before the peel; a successful peel recovered
    ``keys`` difference keys.
    """

    success: bool
    keys: int
    occupied: int
    cells: int
    q: int

    def threshold_offset(self, growth: float = 1.0) -> int | None:
        """Estimated levels from this one to the finest that peels.

        A table peels while it holds at most ``T = PEELING_THRESHOLDS[q] *
        cells`` keys, and the difference grows by ``growth`` bits per finer
        level (``1`` when it halves per coarser level, the split-probability
        fact).  A peel of ``d`` keys leaves room for ``log2(T/d) / growth``
        finer levels, rounded (at least one).  A failed level's difference
        is estimated by linear counting over its ``p = cells/q``-cell
        partitions, ``d̂ = ln(1-z/m) / ln(1-1/p)`` for ``z`` occupied of
        ``m`` cells, and must halve ``⌈log2(d̂/T)⌉`` times (at least once);
        ``None`` when every cell is occupied, which bounds nothing.
        """
        threshold = PEELING_THRESHOLDS[self.q] * self.cells
        if self.success:
            room = math.log2(threshold / max(self.keys, 1)) / growth
            return -max(1, round(room))
        if self.occupied >= self.cells:
            return None
        estimate = 0.0
        if self.occupied:
            estimate = math.log1p(-self.occupied / self.cells) / math.log1p(
                -self.q / self.cells
            )
        return max(1, math.ceil(math.log2(max(estimate / threshold, 1.0))))


def probe_levels(
    alice_levels: dict[int, LevelSketch],
    difference: Callable[[int, IBLT], IBLT],
    accept: Callable[[int, DecodeResult], bool],
    n_alice: int,
    n_bob: int,
    config: ProtocolConfig,
    probe: str = "binary",
) -> tuple[int, DecodeResult, list[int]]:
    """Find the finest level of Alice's sketch that decodes against Bob's.

    The one level-probe loop every hierarchy decoder shares.  Each probed
    level unpacks a copy of Alice's table that the probe owns (see
    :meth:`LevelSketch.table_copy`), and ``difference(level, table)``
    returns it minus Bob's table, typically by deleting Bob's keys from it
    in place; the probe counts the result's occupied cells and peels it.
    Levels never probed stay packed.  A peel counts as a false decode, and
    its level as undecodable, when its surplus counts disagree with the
    point counts or ``accept(level, result)`` is false.  The one-round
    decoder's accept is a membership test: every Bob-surplus key must be
    one of Bob's own keys at that level, which rejects exactly the
    checksum-evading wrong keys :func:`plan_repair` refuses, without
    building a plan per probe.  Each probe's :class:`LevelProbe` aims the
    next one (see :func:`_finest_decodable`).  Returns
    ``(level, result, levels_probed)``, probed levels in probe order.

    Raises
    ------
    ReconciliationFailure
        On an unknown ``probe`` mode, an empty sketch, or when no level
        decodes.
    """
    if probe not in ("binary", "linear"):
        raise ReconciliationFailure(f"unknown probe mode {probe!r}")
    levels = sorted(alice_levels)
    if not levels:
        raise ReconciliationFailure("hierarchy sketch carries no levels")
    probed: list[int] = []
    outcomes: dict[int, LevelProbe] = {}
    results: dict[int, DecodeResult] = {}

    def attempt(level: int) -> LevelProbe:
        if level not in outcomes:
            probed.append(level)
            table = difference(level, alice_levels[level].table_copy())
            result = decode(table, max_items=config.decode_item_limit)
            surplus = len(result.alice_keys) - len(result.bob_keys)
            if result.success and surplus != n_alice - n_bob:
                result.success = False  # checksum-evading false decode
            if result.success and not accept(level, result):
                result.success = False  # decoded a key Bob cannot hold
            results[level] = result
            outcomes[level] = LevelProbe(
                result.success, result.difference_size,
                table.nonzero_cells(), table.config.cells, table.config.q,
            )
        return outcomes[level]

    chosen = _finest_decodable(levels, attempt, probe)
    if chosen is None:
        raise ReconciliationFailure(
            f"no level of the hierarchy sketch decoded "
            f"(difference exceeds budget k={config.k}?)"
        )
    return chosen, results[chosen], probed


def _finest_decodable(
    levels: list[int], attempt: Callable[[int], LevelProbe], probe: str
) -> int | None:
    """Locate the smallest (finest) level whose table peels.

    ``attempt(level)`` probes a level once and returns the cached
    :class:`LevelProbe` on a repeat.  ``"linear"`` tries every level
    finest-first.  ``"binary"`` keeps an open bracket between the finest
    failure and the finest success seen (assuming failure below the
    threshold and success above it), starting from the finest level.
    Each next probe is the last probe's
    :meth:`LevelProbe.threshold_offset` clamped into the bracket, with the
    difference's growth per level measured between the last two successes
    once there are two (and taken as at least half a bit: near the floor
    of far-apart pairs the measured growth is mostly noise).  It is the
    bracket's midpoint when the offset is unknown or ``⌈log2 L⌉`` probes
    have been made, which bounds the search at ``O(log L)`` probes.  The
    coarsest level is probed only once the bracket reaches it.  If it
    fails too, every level is scanned finest-first for any that peels.
    """
    if probe == "linear":
        for level in levels:
            if attempt(level).success:
                return level
        return None
    aimed = math.ceil(math.log2(len(levels)))  # probes that may be aimed
    low, high = -1, len(levels)  # level indices: failure below success
    index, growth = 0, 1.0
    for made in itertools.count(1):
        outcome = attempt(levels[index])
        if outcome.success:
            if high < len(levels):
                coarser = attempt(levels[high]).keys
                growth = max(0.5, math.log2(
                    max(outcome.keys, 1) / max(coarser, 1)
                ) / (high - index))
            high = index
        else:
            low = index
        if high - low == 1:
            break
        offset = outcome.threshold_offset(growth) if made < aimed else None
        if offset is None:
            index = (low + high) // 2
        else:
            index = min(max(index + offset, low + 1), high - 1)
    if high < len(levels):
        return levels[high]
    for level in levels:  # even the coarsest failed: take any that peels
        if attempt(level).success:
            return level
    return None


def reconcile(
    alice_points: list[Point],
    bob_points: list[Point],
    config: ProtocolConfig,
    channel: SimulatedChannel | None = None,
    strategy: str = "occurrence",
) -> ReconcileResult:
    """Run a complete one-round exchange over a (simulated) channel.

    A thin driver over the sans-I/O sessions (:mod:`repro.session`): it
    pumps :class:`OneRoundAliceSession`/:class:`OneRoundBobSession` over
    the channel, so the wire bytes equal a networked run's.  A channel the
    caller supplies is left open (and may be reused across runs); only a
    channel this function creates is closed.  The attached transcript
    covers this run's messages only.

    Returns Bob's :class:`ReconcileResult` with the measured transcript
    attached.

    >>> config = ProtocolConfig(delta=256, dimension=1, k=2, seed=7)
    >>> result = reconcile([(10,), (200,)], [(11,), (200,)], config)
    >>> len(result.repaired)
    2
    """
    # Imported lazily: repro.session sits above this module in the layering
    # (sessions wrap reconcilers; this driver wraps sessions).
    from repro.session import OneRoundAliceSession, OneRoundBobSession, pump

    owns_channel = channel is None
    channel = channel if channel is not None else SimulatedChannel()
    first_message = len(channel.messages)
    reconciler = HierarchicalReconciler(config)  # shared: one grid build
    alice = OneRoundAliceSession(config, alice_points, reconciler=reconciler)
    bob = OneRoundBobSession(
        config, bob_points, strategy=strategy, reconciler=reconciler
    )
    _, result = pump(alice, bob, channel)
    if owns_channel:
        channel.close()
    result.transcript = Transcript.from_messages(channel.messages[first_message:])
    return result
