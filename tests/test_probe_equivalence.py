"""The one-round level probe against a plan-every-peel oracle.

Bob's probe deletes his keys from a copy of each probed level of Alice's
sketch, accepts a peel when every Bob-surplus key is one of his own keys at
that level, and plans the repair once, for the chosen level.  The oracle
below is the costlier rule it must equal: subtract a separately built Bob
table, plan every peel as the probe goes, and reject the levels the planner
refuses.  Narrow 8-bit checksums make checksum-evading false decodes common
enough that both rejection paths are exercised.
"""

from __future__ import annotations

import pytest

from repro.core import protocol as protocol_module
from repro.core.config import ProtocolConfig
from repro.core.grid import ScalarKeyPass
from repro.core.protocol import HierarchicalReconciler, probe_levels
from repro.core.repair import apply_repair, plan_repair
from repro.core.sketch import HierarchySketch
from repro.errors import ReconciliationFailure
from repro.iblt.backends import available_backends
from repro.iblt.table import IBLT
from repro.workloads.synthetic import perturbed_pair

BACKENDS = [name for name in ("pure", "numpy") if name in available_backends()]
SEEDS = range(20)


def _case(seed, noise, checksum_bits, backend, n=200, delta=1024):
    workload = perturbed_pair(seed, n, delta, 2, 6, noise)
    config = ProtocolConfig(
        delta=delta, dimension=2, k=4, seed=seed,
        checksum_bits=checksum_bits, backend=backend,
    )
    return workload, HierarchicalReconciler(config)


def _plan_every_peel(reconciler, payload, bob_points, probe="binary"):
    """The oracle: ``(level, levels_probed, repaired, refused)``, where
    ``refused`` counts the peels the planner turned down."""
    grid, config = reconciler.grid, reconciler.config
    sketch = HierarchySketch.from_bytes(payload, config, grid)
    levels = {level.level: level for level in sketch.levels}
    key_pass = grid.vector_key_pass(bob_points, tuple(levels))
    if key_pass is None:
        key_pass = ScalarKeyPass(grid, bob_points)
    plans, refused = {}, []

    def plan_or_refuse(level, result):
        try:
            plans[level] = plan_repair(
                bob_points, result.alice_keys, result.bob_keys,
                grid, level, key_pass=key_pass,
            )
        except ReconciliationFailure:
            refused.append(level)
            return False
        return True

    level, _, probed = probe_levels(
        levels,
        lambda level, table: table.subtract(reconciler.level_table(
            bob_points, level, table.config.cells, key_pass
        )),
        plan_or_refuse,
        sketch.n_points, len(bob_points), config, probe,
    )
    return level, probed, apply_repair(bob_points, plans[level]), len(refused)


def _outcome(reconciler, payload, bob_points, probe="binary"):
    try:
        result = reconciler.decode_and_repair(payload, bob_points, probe=probe)
    except ReconciliationFailure:
        return None
    return result.level, result.levels_probed, result.repaired


def _oracle(reconciler, payload, bob_points, probe="binary"):
    try:
        level, probed, repaired, refused = _plan_every_peel(
            reconciler, payload, bob_points, probe
        )
    except ReconciliationFailure:
        return None, 0
    return (level, probed, repaired), refused


@pytest.mark.parametrize("checksum_bits", [32, 8])
@pytest.mark.parametrize("noise", [0.0, 1.0, 4.0])
@pytest.mark.parametrize("backend", BACKENDS)
def test_membership_probe_matches_plan_every_peel(backend, noise, checksum_bits):
    for seed in SEEDS:
        workload, reconciler = _case(seed, noise, checksum_bits, backend)
        payload = reconciler.encode(workload.alice)
        expected, _ = _oracle(reconciler, payload, workload.bob)
        assert _outcome(reconciler, payload, workload.bob) == expected, seed


@pytest.mark.parametrize("backend", BACKENDS)
def test_narrow_checksums_exercise_the_rejection(backend):
    """Across noisy 8-bit cases the oracle refuses some peels (the
    planner's rejections the membership test must reproduce), including
    the checksum-evading false decode of seed 112."""
    refused_total = 0
    for seed in (*SEEDS, 112):
        workload, reconciler = _case(seed, 4.0, 8, backend)
        payload = reconciler.encode(workload.alice)
        for probe in ("binary", "linear"):
            expected, refused = _oracle(reconciler, payload, workload.bob, probe)
            assert _outcome(reconciler, payload, workload.bob, probe) == expected
            refused_total += refused
            if seed == 112 and probe == "binary":
                assert refused > 0
    assert refused_total > 0


def test_scalar_key_pass_matches_plan_every_peel():
    """Keys wider than 63 bits take the pure key pass and its set lookup."""
    for seed in range(4):
        for checksum_bits in (32, 8):
            workload, reconciler = _case(
                seed, 4.0, checksum_bits, "auto", n=120, delta=2**30
            )
            payload = reconciler.encode(workload.alice)
            assert reconciler.grid.vector_key_pass(
                workload.bob, reconciler.config.sketch_levels
            ) is None
            expected, _ = _oracle(reconciler, payload, workload.bob)
            assert _outcome(reconciler, payload, workload.bob) == expected


class TestProbeTripwires:
    def _noisy(self, backend="auto"):
        workload, reconciler = _case(3, 4.0, 32, backend, n=400, delta=2**12)
        return workload, reconciler, reconciler.encode(workload.alice)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_plans_once(self, monkeypatch, backend):
        workload, reconciler, payload = self._noisy(backend)
        plans = []
        real = protocol_module.plan_repair

        def counting(*args, **kwargs):
            plans.append(args[4])
            return real(*args, **kwargs)

        monkeypatch.setattr(protocol_module, "plan_repair", counting)
        result = reconciler.decode_and_repair(payload, workload.bob)
        assert len(result.levels_probed) > 1
        assert plans == [result.level]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bob_never_subtracts(self, monkeypatch, backend):
        workload, reconciler, payload = self._noisy(backend)

        def refuse(self, other):
            raise AssertionError("the one-round Bob subtracted a table")

        monkeypatch.setattr(IBLT, "subtract", refuse)
        result = reconciler.decode_and_repair(payload, workload.bob)
        assert len(result.repaired) == len(workload.alice)

    @pytest.mark.parametrize("unpack_first", [False, True])
    def test_parsed_sketch_is_left_unchanged(self, unpack_first):
        workload, reconciler, payload = self._noisy()
        sketch = HierarchySketch.from_bytes(
            payload, reconciler.config, reconciler.grid
        )
        if unpack_first:  # every level's cached table exists before Bob probes
            assert sketch.to_bytes() == payload
        result = reconciler.repair_from_sketch(sketch, workload.bob)
        assert len(result.levels_probed) > 1
        assert sketch.to_bytes() == payload
