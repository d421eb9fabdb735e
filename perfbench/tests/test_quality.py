"""The exact EMD shortcut and the repair-quality check."""

import random

import pytest

from repro.emd.matching import emd
from repro.emd.partial import emd_k

from perfbench import workloads
from perfbench.workloads import CheckFailed, cancel_common, emd_exact


def _pair(seed, n=30, shared=20):
    rng = random.Random(seed)
    common = [(rng.randrange(64), rng.randrange(64)) for _ in range(shared)]
    xs = common + [(rng.randrange(64), rng.randrange(64)) for _ in range(n - shared)]
    ys = common + [(rng.randrange(64), rng.randrange(64)) for _ in range(n - shared)]
    rng.shuffle(ys)
    return xs, ys


@pytest.mark.parametrize("seed", range(6))
def test_cancelling_shared_points_keeps_emd_and_emd_k(seed):
    xs, ys = _pair(seed)
    assert emd_exact(xs, ys) == pytest.approx(emd(xs, ys, backend="scipy"))
    for k in (0, 2, 5):
        assert emd_exact(xs, ys, k) == pytest.approx(
            emd_k(xs, ys, k, backend="scipy")
        )


def test_cancel_common_is_a_multiset_difference():
    xs = [(1, 1), (1, 1), (2, 2), (3, 3)]
    ys = [(1, 1), (2, 2), (2, 2), (4, 4)]
    rest_x, rest_y = cancel_common(xs, ys)
    assert sorted(rest_x) == [(1, 1), (3, 3)]
    assert sorted(rest_y) == [(2, 2), (4, 4)]


class _Strict(workloads.Workload):
    name = "strict"


class _Lenient(workloads.Workload):
    name = "lenient"
    REPAIR_MUST_IMPROVE = False


def test_a_repair_that_raises_emd_fails_unless_reported(tmp_path):
    alice = [(10 * i, 0) for i in range(12)]
    bob = [(10 * i, 1) for i in range(12)]      # EMD 12, EMD_8 4
    worse = [(10 * i, 3) for i in range(12)]    # EMD 36
    better = list(alice)
    with pytest.raises(CheckFailed, match="raised EMD"):
        _Strict(1, tmp_path).record_quality([(alice, bob, worse)])
    lenient = _Lenient(1, tmp_path)
    lenient.record_quality([(alice, bob, worse), (alice, bob, better)])
    assert lenient.exact["emd_raised_share"] == 0.5
    assert lenient.exact["repair_emd_ratio"] == pytest.approx((36 / 4 + 0) / 2)
    with pytest.raises(CheckFailed, match="points"):
        _Strict(1, tmp_path).record_quality([(alice, bob, alice[:2])])
