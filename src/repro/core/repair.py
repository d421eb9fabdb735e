"""Turning a decoded key difference into Bob's repaired point set.

After Bob decodes the subtracted IBLT at level ``ℓ*`` he holds two key
multisets:

* *Alice-surplus keys* ``(cell, occurrence)`` — cells where Alice has more
  points than Bob.  Repair: insert the cell's centre once per key (the best
  available proxy for Alice's point, off by at most half a cell diameter).
* *Bob-surplus keys* — cells where Bob has more points than Alice.  Repair:
  delete one of Bob's points in that cell per key.

Because each party's keys enumerate occurrence ranks ``0..count-1``, the
surplus keys of a cell are exactly the ranks ``min(count_A, count_B) ..
max-1`` on the larger side; count balance makes ``|S'_B| = |S_B| -
deletions + insertions = |S_A|`` an invariant.

Which of Bob's in-cell points to delete is a genuine degree of freedom
(any subset of the right size restores multiset agreement).  Two strategies
are provided; the ablation benchmark compares them:

* ``"occurrence"`` — delete the points holding the surplus ranks in the
  deterministic sorted order (the paper-faithful, zero-knowledge choice);
* ``"centroid"`` — delete the points farthest from the centroid of Bob's
  own points in the cell (a heuristic that keeps cluster cores intact).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.grid import (
    Cell,
    ScalarKeyPass,
    ShiftedGridHierarchy,
    VectorKeyPass,
)
from repro.emd.metrics import Point, distance
from repro.errors import ConfigError, ReconciliationFailure

REPAIR_STRATEGIES = ("occurrence", "centroid")


@dataclass
class RepairPlan:
    """The concrete edit script applied to Bob's set.

    Attributes
    ----------
    additions:
        Centre points inserted (one per Alice-surplus key).
    removals:
        Bob's own points deleted (one per Bob-surplus key).
    level:
        The grid level the difference was decoded at.
    """

    level: int
    additions: list[Point] = field(default_factory=list)
    removals: list[Point] = field(default_factory=list)


def _group_surplus(keys: list[int], grid: ShiftedGridHierarchy, level: int) -> dict[Cell, list[int]]:
    surplus: dict[Cell, list[int]] = {}
    for key in keys:
        cell, occurrence = grid.unpack_key(key, level)
        surplus.setdefault(cell, []).append(occurrence)
    return surplus


def plan_repair(
    bob_points: list[Point],
    alice_keys: list[int],
    bob_keys: list[int],
    grid: ShiftedGridHierarchy,
    level: int,
    strategy: str = "occurrence",
    key_pass: VectorKeyPass | ScalarKeyPass | None = None,
) -> RepairPlan:
    """Build the edit script for Bob's set from the decoded key difference.

    With ``key_pass`` (Bob's :class:`~repro.core.grid.VectorKeyPass` or
    :class:`~repro.core.grid.ScalarKeyPass`) only the decoded surplus cells
    are looked up; without one every point is bucketed at ``level``.  All
    see each cell's points in the same sorted order, so they pick the same
    victims.

    Raises
    ------
    ReconciliationFailure
        If a decoded Bob-surplus key does not correspond to a point Bob
        actually holds — the decode was corrupt.
    """
    if strategy not in REPAIR_STRATEGIES:
        raise ConfigError(
            f"strategy must be one of {REPAIR_STRATEGIES}, got {strategy!r}"
        )
    plan = RepairPlan(level=level)

    for cell, occurrences in _group_surplus(alice_keys, grid, level).items():
        centre = grid.center(cell, level)
        plan.additions.extend(centre for _ in occurrences)

    surplus = _group_surplus(bob_keys, grid, level)
    if surplus and key_pass is None:
        buckets = grid.bucket_points(bob_points, level)
    for cell, occurrences in surplus.items():
        if key_pass is not None:
            bucket = key_pass.cell_points(cell, level)
        else:
            bucket = buckets.get(cell)
        if not bucket:
            raise ReconciliationFailure(
                f"decoded Bob-surplus key names empty cell {cell} at level {level}"
            )
        for occurrence in occurrences:
            if occurrence >= len(bucket):
                raise ReconciliationFailure(
                    f"decoded occurrence {occurrence} exceeds Bob's "
                    f"{len(bucket)} points in cell {cell}"
                )
        victims = _choose_victims(bucket, len(occurrences), strategy)
        plan.removals.extend(victims)
    return plan


def _choose_victims(bucket: list[Point], count: int, strategy: str) -> list[Point]:
    """Pick which of Bob's in-cell points the repair deletes."""
    if strategy == "occurrence":
        # The surplus ranks are always the top of the sorted bucket; deleting
        # the highest-ranked points mirrors the key enumeration exactly.
        return bucket[len(bucket) - count:]
    centroid = tuple(
        sum(point[i] for point in bucket) / len(bucket)
        for i in range(len(bucket[0]))
    )
    by_distance = sorted(
        bucket,
        key=lambda point: distance(
            point, tuple(round(c) for c in centroid), "l1"
        ),
    )
    return by_distance[len(bucket) - count:]


def apply_repair(bob_points: list[Point], plan: RepairPlan) -> list[Point]:
    """Apply an edit script, returning Bob's repaired set ``S'_B``.

    Removal is by identity-of-value with multiplicity (Bob's set is a
    multiset of points), first occurrences first, in one counting pass
    over Bob's points: O(n + removals).
    """
    pending: dict[Point, int] = {}
    for victim in plan.removals:
        pending[victim] = pending.get(victim, 0) + 1
    repaired: list[Point] = []
    for point in bob_points:
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
