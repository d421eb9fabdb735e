"""The one-round robust reconciliation protocol (the paper's algorithm).

Alice builds one IBLT per grid level over occurrence-indexed cell keys and
ships them all in a single message.  Bob subtracts his own keys level by
level, finds the **finest level that peels**, and repairs his set from the
decoded key difference: delete his surplus points, insert cell centres for
Alice's surplus.

Why the finest decodable level is the right one: at level ``ℓ`` the expected
number of *close* pairs split across cells is at most ``EMD_k / 2^ℓ``
(split-probability fact), so the symmetric key difference is about
``2·EMD_k/2^ℓ + 2k``; the sketch capacity ``Θ(k·diff_margin)`` is first
reached near ``2^{ℓ*} ≈ EMD_k / k``.  Each repaired point then costs at most
a cell diameter ``d · 2^{ℓ*}``, for a total of
``O(k · d · EMD_k / k) = O(d) · EMD_k`` — the paper's approximation factor.

Bob probes levels with a binary search (decodability is monotone in the
level up to peeling-threshold noise), so his work is ``O(n log log Δ)``
hashes rather than ``O(n log Δ)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, TypeVar

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
from repro.iblt.table import IBLT
from repro.net.channel import SimulatedChannel
from repro.net.transcript import Transcript

Accepted = TypeVar("Accepted")


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
    ) -> IBLT:
        """Build one level's IBLT over a point multiset.

        ``key_pass`` (over the same ``points``) supplies the keys when the
        caller holds one; otherwise they are hashed from ``points``.
        """
        table = IBLT(
            level_iblt_config(self.config, self.grid, level, cells),
            backend=self.config.backend,
        )
        if key_pass is not None:
            table.insert_many(key_pass.keys(level))
        else:
            table.insert_many(self.grid.keys_for(points, level))
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
            ``"binary"`` (default) binary-searches the finest decodable
            level; ``"linear"`` scans every level finest-first (used by
            tests and ablations to validate the search).
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
        or a :class:`ScalarKeyPass` where no vector pass is possible.
        Alice's level tables are unpacked only where the search probes.
        Every level that peels is planned at once, so a peel naming a point
        Bob does not hold leaves the search going; the chosen level's plan
        is the repair.
        """
        alice_levels = {
            level_sketch.level: level_sketch for level_sketch in sketch.levels
        }
        key_pass = self.grid.vector_key_pass(bob_points, tuple(alice_levels))
        if key_pass is None:
            key_pass = ScalarKeyPass(self.grid, bob_points)
        level, result, plan, probed = probe_levels(
            alice_levels,
            lambda level, alice_table: self.level_table(
                bob_points, level, alice_table.config.cells, key_pass
            ),
            lambda level, result: plan_repair(
                bob_points, result.alice_keys, result.bob_keys,
                self.grid, level, strategy, key_pass,
            ),
            sketch.n_points,
            len(bob_points),
            self.config,
            probe,
        )
        return ReconcileResult(
            repaired=apply_repair(bob_points, plan),
            level=level,
            alice_surplus=len(result.alice_keys),
            bob_surplus=len(result.bob_keys),
            plan=plan,
            levels_probed=probed,
        )


def probe_levels(
    alice_levels: dict[int, LevelSketch],
    bob_table: Callable[[int, IBLT], IBLT],
    accept: Callable[[int, DecodeResult], Accepted],
    n_alice: int,
    n_bob: int,
    config: ProtocolConfig,
    probe: str = "binary",
) -> tuple[int, DecodeResult, Accepted, list[int]]:
    """Find the finest level of Alice's sketch that decodes against Bob's.

    The one level-probe loop every hierarchy decoder shares.  Each probed
    level unpacks Alice's table, subtracts ``bob_table(level,
    alice_table)`` from it and peels the result; levels never probed stay
    packed.  A peel counts as a false decode, and its level as
    undecodable, when its surplus counts disagree with the point counts or
    ``accept(level, result)`` raises :class:`ReconciliationFailure` (a
    checksum-evading wrong key, e.g. one :func:`plan_repair` refuses).
    Returns ``(level, result, accepted, levels_probed)``: ``accepted`` is
    what ``accept`` returned for the chosen level, probed levels are in
    probe order.

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
    outcomes: dict[int, DecodeResult] = {}
    accepted: dict[int, Accepted] = {}

    def attempt(level: int) -> DecodeResult:
        if level not in outcomes:
            probed.append(level)
            alice_table = alice_levels[level].table
            result = decode(
                alice_table.subtract(bob_table(level, alice_table)),
                max_items=config.decode_item_limit,
            )
            surplus = len(result.alice_keys) - len(result.bob_keys)
            if result.success and surplus != n_alice - n_bob:
                result.success = False  # checksum-evading false decode
            if result.success:
                try:
                    accepted[level] = accept(level, result)
                except ReconciliationFailure:
                    result.success = False  # decoded a key Bob cannot hold
            outcomes[level] = result
        return outcomes[level]

    chosen = _finest_decodable(levels, attempt, probe)
    if chosen is None:
        raise ReconciliationFailure(
            f"no level of the hierarchy sketch decoded "
            f"(difference exceeds budget k={config.k}?)"
        )
    return chosen, outcomes[chosen], accepted[chosen], probed


def _finest_decodable(levels, attempt, probe: str) -> int | None:
    """Locate the smallest (finest) level whose table peels."""
    if probe == "linear":
        for level in levels:
            if attempt(level).success:
                return level
        return None
    # Binary search: assume failure below the threshold, success above.
    if attempt(levels[0]).success:
        return levels[0]
    low, high = 0, len(levels) - 1  # low fails; probe for first success
    if not attempt(levels[high]).success:
        # Coarsest failed too; fall back to scanning for any success.
        for level in levels[1:-1]:
            if attempt(level).success:
                return level
        return None
    while high - low > 1:
        mid = (low + high) // 2
        if attempt(levels[mid]).success:
            high = mid
        else:
            low = mid
    return levels[high]


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
