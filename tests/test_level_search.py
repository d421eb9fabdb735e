"""Bob's aimed level search, over synthetic outcomes and real syncs.

The search (:func:`repro.core.protocol._finest_decodable`) brackets the
finest level whose table peels and aims each probe with a difference
estimate.  The synthetic cases feed it outcome vectors built from the
split-probability model (the difference halves per coarser level above a
floor of far-apart pairs), so every boundary position can be placed; the
real cases hold it to the plain bisection it replaced
(:mod:`bisection_oracle`).
"""

from __future__ import annotations

import math

import pytest

from bisection_oracle import bisect_finest_decodable, bisection_decode
from repro.core import protocol
from repro.core.config import ProtocolConfig
from repro.core.protocol import (
    HierarchicalReconciler,
    LevelProbe,
    _finest_decodable,
)
from repro.iblt.backends import available_backends
from repro.iblt.table import PEELING_THRESHOLDS
from repro.workloads.synthetic import perturbed_pair

BACKENDS = [name for name in ("pure", "numpy") if name in available_backends()]
CELLS, Q = 148, 4
THRESHOLD = PEELING_THRESHOLDS[Q] * CELLS
FLOOR = 16  # difference keys of the far-apart pairs, at every level


def _vector(n_levels, boundary, saturated):
    """Outcomes whose finest peeling level is ``boundary``: the difference
    is ``FLOOR + C/2^level`` with ``C`` putting the threshold just above
    ``boundary - 1``.  A failure's occupancy is the expected count of
    occupied cells, or every cell when ``saturated``."""
    scale = 0.9 * (THRESHOLD - FLOOR) * 2**boundary
    outcomes = []
    for level in range(n_levels):
        keys = round(FLOOR + scale / 2**level)
        occupied = round(CELLS * (1 - (1 - Q / CELLS) ** keys))
        if level >= boundary:
            outcomes.append(LevelProbe(True, keys, occupied, CELLS, Q))
        else:
            occupied = CELLS if saturated else occupied
            outcomes.append(LevelProbe(False, 0, occupied, CELLS, Q))
    return outcomes


def _search(outcomes, search=_finest_decodable):
    """``(chosen level, levels probed in order)`` over an outcome vector."""
    probed = []

    def attempt(level):
        if level not in probed:
            probed.append(level)
        return outcomes[level]

    return search(list(range(len(outcomes))), attempt, "binary"), probed


def _bound(n_levels):
    """``⌈log2 L⌉`` aimed probes, then a bisection of what is left."""
    aimed = math.ceil(math.log2(n_levels))
    return aimed + math.ceil(math.log2(n_levels - aimed + 1))


@pytest.mark.parametrize("saturated", [False, True])
@pytest.mark.parametrize("n_levels", [17, 21])
def test_every_boundary_is_found(n_levels, saturated):
    for boundary in range(n_levels):
        outcomes = _vector(n_levels, boundary, saturated)
        level, probed = _search(outcomes)
        assert level == boundary, (boundary, probed)
        assert boundary == 0 or boundary - 1 in probed
        assert n_levels - 1 not in probed or boundary >= n_levels // 2
        assert len(probed) <= _bound(n_levels), (boundary, probed)


@pytest.mark.parametrize("n_levels", [17, 21])
def test_estimates_beat_the_bisection(n_levels):
    """With unsaturated failures the estimates close the bracket in a
    few probes wherever the boundary lies; the bisection needs about
    ``2 + log2 L`` for any boundary above the finest level."""
    counts, oracle = [], []
    for boundary in range(1, n_levels):
        outcomes = _vector(n_levels, boundary, saturated=False)
        counts.append(len(_search(outcomes)[1]))
        oracle.append(len(_search(outcomes, bisect_finest_decodable)[1]))
    assert all(count <= expected for count, expected in zip(counts, oracle))
    assert sum(counts) < sum(oracle)


@pytest.mark.parametrize("n_levels", [17, 21])
def test_every_probe_failing_reaches_the_scan(n_levels):
    failed = LevelProbe(False, 0, CELLS, CELLS, Q)
    level, probed = _search([failed] * n_levels)
    assert level is None
    assert sorted(probed) == list(range(n_levels))
    assert probed[-1] != n_levels - 1  # the scan ran after the coarsest

    # A level the bracket skipped can still peel: the scan finds it.
    outcomes = [failed] * n_levels
    outcomes[3] = LevelProbe(True, 20, 60, CELLS, Q)
    level, probed = _search(outcomes)
    assert level == 3
    assert n_levels - 1 in probed


@pytest.mark.parametrize("success", [True, False])
def test_one_level_sketch(success):
    outcome = LevelProbe(success, 4, 12 if success else CELLS, CELLS, Q)
    assert _search([outcome]) == ((0 if success else None), [0])


@pytest.mark.parametrize("n_levels", [17, 21])
def test_cap_bounds_an_estimator_that_always_says_one(monkeypatch, n_levels):
    """An estimator that always answers "one level coarser" would walk
    the levels one by one; after ``⌈log2 L⌉`` probes the search bisects,
    so the count stays within the bound for every boundary."""
    monkeypatch.setattr(
        LevelProbe, "threshold_offset", lambda self, growth=1.0: 1
    )
    worst = 0
    for boundary in range(n_levels):
        level, probed = _search(_vector(n_levels, boundary, saturated=False))
        assert level == boundary
        worst = max(worst, len(probed))
    assert worst <= _bound(n_levels) < n_levels - 1


def test_offsets():
    """The two estimates: a near-threshold failure says one level coarser,
    a small peel several levels finer, a saturated failure nothing."""
    assert LevelProbe(False, 0, CELLS, CELLS, Q).threshold_offset() is None
    assert LevelProbe(False, 0, 140, CELLS, Q).threshold_offset() == 1
    assert LevelProbe(False, 0, 0, CELLS, Q).threshold_offset() == 1
    assert LevelProbe(True, 100, 140, CELLS, Q).threshold_offset() == -1
    assert LevelProbe(True, 7, 25, CELLS, Q).threshold_offset() == -4
    assert LevelProbe(True, 7, 25, CELLS, Q).threshold_offset(0.5) == -8
    assert LevelProbe(True, 0, 0, CELLS, Q).threshold_offset() == -7


# ----------------------------------------------------- real syncs vs oracle

SEEDS = range(20)


def _sync(seed, noise, checksum_bits, backend):
    """``(reconciler, payload, bob_points)`` of a sync budgeted like the
    benches: sketch budget ``k`` twice the number of far-apart pairs, so
    every level's table holds ~150 cells."""
    workload = perturbed_pair(seed, 400, 2**12, 2, 8, noise)
    config = ProtocolConfig(
        delta=2**12, dimension=2, k=16, seed=seed,
        checksum_bits=checksum_bits, backend=backend,
    )
    reconciler = HierarchicalReconciler(config)
    return reconciler, reconciler.encode(workload.alice), workload.bob


@pytest.mark.parametrize("checksum_bits", [32, 16])
@pytest.mark.parametrize("noise", [0.0, 1.0, 4.0, 8.0])
@pytest.mark.parametrize("backend", BACKENDS)
def test_matches_the_bisection(backend, noise, checksum_bits):
    probes = oracle_probes = 0
    for seed in SEEDS:
        reconciler, payload, bob = _sync(seed, noise, checksum_bits, backend)
        result = reconciler.decode_and_repair(payload, bob)
        oracle = bisection_decode(reconciler, payload, bob)
        assert result.level == oracle.level, seed
        assert result.repaired == oracle.repaired, seed
        assert len(result.levels_probed) <= len(oracle.levels_probed), seed
        probes += len(result.levels_probed)
        oracle_probes += len(oracle.levels_probed)
    if noise:
        assert probes < oracle_probes


@pytest.mark.parametrize("backend", BACKENDS)
def test_narrow_checksums_keep_the_bracket(monkeypatch, backend):
    """With 8-bit checksums decodability is not monotone in the level,
    so the two searches may settle on different fail/success brackets;
    the aimed one must still have seen the level below its choice fail."""
    seen = {}

    def recording(levels, attempt, probe):
        def recorded(level):
            seen[level] = attempt(level)
            return seen[level]

        return _finest_decodable(levels, recorded, probe)

    monkeypatch.setattr(protocol, "_finest_decodable", recording)
    for seed in SEEDS:
        for noise in (1.0, 4.0, 8.0):
            seen.clear()
            reconciler, payload, bob = _sync(seed, noise, 8, backend)
            level = reconciler.decode_and_repair(payload, bob).level
            assert seen[level].success
            assert level == 0 or (
                level - 1 in seen and not seen[level - 1].success
            )
