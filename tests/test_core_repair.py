"""Unit tests for the repair planner and edit application.

Every planner case runs on all of the planner's key sources: bucketing
Bob's points, Bob's scalar key pass, and Bob's vectorized key pass (where
numpy allows one).
"""

import random

import pytest

from repro.core.grid import ScalarKeyPass, ShiftedGridHierarchy
from repro.core.repair import (
    REPAIR_STRATEGIES,
    RepairPlan,
    apply_repair,
    plan_repair,
)
from repro.errors import ConfigError, ReconciliationFailure


def make_grid(delta=256, dimension=2, seed=9):
    return ShiftedGridHierarchy(delta, dimension, seed)


def key_passes(grid, bob_points):
    """``None`` (bucket every point), a scalar key pass, then a vector key
    pass when one is possible."""
    yield None
    yield ScalarKeyPass(grid, bob_points)
    key_pass = grid.vector_key_pass(bob_points)
    if key_pass is not None:
        yield key_pass


class TestPlanRepair:
    def test_empty_difference_empty_plan(self):
        grid = make_grid()
        for key_pass in key_passes(grid, [(1, 1)]):
            plan = plan_repair([(1, 1)], [], [], grid, 3, key_pass=key_pass)
            assert plan.additions == []
            assert plan.removals == []

    def test_alice_surplus_becomes_centres(self):
        grid = make_grid()
        level = 4
        alice_point = (100, 100)
        cell = grid.cell(alice_point, level)
        key = grid.pack_key(cell, 0, level)
        for key_pass in key_passes(grid, [(200, 200)]):
            plan = plan_repair(
                [(200, 200)], [key], [], grid, level, key_pass=key_pass
            )
            assert plan.additions == [grid.center(cell, level)]
            assert plan.removals == []

    def test_bob_surplus_removes_his_points(self):
        grid = make_grid()
        level = 4
        bob_points = [(50, 50), (51, 50), (200, 200)]
        cell = grid.cell((50, 50), level)
        bucket = grid.bucket_points(bob_points, level)[cell]
        # Bob has len(bucket) points there; Alice has one fewer.
        key = grid.pack_key(cell, len(bucket) - 1, level)
        for key_pass in key_passes(grid, bob_points):
            plan = plan_repair(bob_points, [], [key], grid, level, key_pass=key_pass)
            assert len(plan.removals) == 1
            assert plan.removals[0] in bucket

    def test_occurrence_strategy_removes_top_ranked(self):
        grid = make_grid()
        level = 6
        cell_points = [(10, 10), (10, 40), (40, 10)]
        # Keep only points genuinely co-located at this level.
        cell = grid.cell(cell_points[0], level)
        co_located = [p for p in cell_points if grid.cell(p, level) == cell]
        if len(co_located) >= 2:
            key = grid.pack_key(cell, len(co_located) - 1, level)
            for key_pass in key_passes(grid, co_located):
                plan = plan_repair(
                    co_located, [], [key], grid, level, key_pass=key_pass
                )
                assert plan.removals == [sorted(co_located)[-1]]

    def test_unknown_strategy_rejected(self):
        grid = make_grid()
        for key_pass in key_passes(grid, [(1, 1)]):
            with pytest.raises(ConfigError):
                plan_repair(
                    [(1, 1)], [], [], grid, 1, strategy="nonsense",
                    key_pass=key_pass,
                )

    def test_phantom_cell_raises(self):
        grid = make_grid()
        level = 3
        cell = grid.cell((10, 10), level)
        key = grid.pack_key(cell, 0, level)
        for key_pass in key_passes(grid, [(200, 200)]):
            with pytest.raises(ReconciliationFailure, match="empty cell"):
                plan_repair([(200, 200)], [], [key], grid, level, key_pass=key_pass)

    def test_phantom_occurrence_raises(self):
        grid = make_grid()
        level = 3
        bob_points = [(10, 10)]
        cell = grid.cell((10, 10), level)
        key = grid.pack_key(cell, 5, level)  # rank 5 in a 1-point cell
        for key_pass in key_passes(grid, bob_points):
            with pytest.raises(ReconciliationFailure, match="exceeds Bob's"):
                plan_repair(bob_points, [], [key], grid, level, key_pass=key_pass)

    @pytest.mark.parametrize("strategy", REPAIR_STRATEGIES)
    def test_strategies_remove_correct_counts(self, strategy):
        grid = make_grid(delta=64)
        level = 6
        rng = random.Random(1)
        bob_points = [(rng.randrange(64), rng.randrange(64)) for _ in range(30)]
        buckets = grid.bucket_points(bob_points, level)
        cell, bucket = max(buckets.items(), key=lambda item: len(item[1]))
        surplus = min(2, len(bucket))
        keys = [
            grid.pack_key(cell, len(bucket) - 1 - i, level) for i in range(surplus)
        ]
        plans = [
            plan_repair(bob_points, [], keys, grid, level, strategy, key_pass)
            for key_pass in key_passes(grid, bob_points)
        ]
        for plan in plans:
            assert len(plan.removals) == surplus
            for victim in plan.removals:
                assert victim in bucket
        # Both key sources see each cell in sorted order: same victims.
        assert all(plan.removals == plans[0].removals for plan in plans)


    def test_key_passes_match_buckets(self):
        grid = make_grid()
        rng = random.Random(4)
        points = [(rng.randrange(256), rng.randrange(256)) for _ in range(300)]
        points += points[:40]  # repeated points share a cell and a bucket
        for key_pass in list(key_passes(grid, points))[1:]:
            for level in (grid.max_level, 6, 3, 0):
                assert list(key_pass.keys(level)) == list(
                    grid.keys_for(points, level)
                )
                buckets = grid.bucket_points(points, level)
                found = key_pass.cell_buckets(list(buckets), level)
                for bucket, cell_points in zip(buckets.values(), found):
                    assert list(cell_points) == bucket
                    assert cell_points[1:] == bucket[1:]
            empty = next((x, 0) for x in range(256) if (x, 0) not in buckets)
            assert [len(b) for b in key_pass.cell_buckets([empty], 0)] == [0]
            assert key_pass.cell_buckets([], 0) == []


class TestApplyRepair:
    def test_apply_addition_and_removal(self):
        plan = RepairPlan(level=2, additions=[(9, 9)], removals=[(1, 1)])
        repaired = apply_repair([(1, 1), (2, 2)], plan)
        assert sorted(repaired) == [(2, 2), (9, 9)]

    def test_multiset_removal(self):
        plan = RepairPlan(level=1, additions=[], removals=[(5, 5)])
        repaired = apply_repair([(5, 5), (5, 5)], plan)
        assert repaired == [(5, 5)]
        # Duplicate victims interleaved with survivors: first occurrences
        # go first, and the survivors keep their order (list.remove's
        # result, which the counting pass must reproduce).
        bob_points = [(5, 5), (1, 1), (5, 5), (2, 2), (5, 5), (1, 1)]
        plan = RepairPlan(
            level=0, additions=[(9, 9)], removals=[(5, 5), (1, 1), (5, 5)]
        )
        expected = list(bob_points)
        for victim in plan.removals:
            expected.remove(victim)
        assert apply_repair(bob_points, plan) == expected + [(9, 9)]
        assert expected == [(2, 2), (5, 5), (1, 1)]

    def test_missing_removal_raises(self):
        plan = RepairPlan(level=1, additions=[], removals=[(7, 7)])
        with pytest.raises(ReconciliationFailure):
            apply_repair([(1, 1)], plan)

    def test_original_not_mutated(self):
        original = [(1, 1), (2, 2)]
        plan = RepairPlan(level=0, additions=[(3, 3)], removals=[(1, 1)])
        apply_repair(original, plan)
        assert original == [(1, 1), (2, 2)]

    def test_size_arithmetic(self):
        plan = RepairPlan(
            level=0, additions=[(8, 8), (9, 9)], removals=[(1, 1)]
        )
        repaired = apply_repair([(1, 1), (2, 2), (3, 3)], plan)
        assert len(repaired) == 3 - 1 + 2
