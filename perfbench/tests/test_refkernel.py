"""The reference kernel and the pairing rule."""

import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.refkernel import (
    NOMINAL_MS,
    normalised,
    normalised_total,
    paired_refs,
)

ROOT = Path(__file__).resolve().parents[2]


def _slowed(values, factor=1.5):
    """Every other sample runs ``factor`` times slower."""
    return [v * (factor if i % 2 else 1.0) for i, v in enumerate(values)]


def test_paired_slowdowns_normalise_to_a_constant():
    work = [0.020] * 40
    reference = [0.005] * 40
    measured, refs = _slowed(work), _slowed(reference)
    assert statistics.pstdev(measured) > 0.004  # the raw series moves
    values = normalised(measured, refs)
    assert values == pytest.approx([4 * NOMINAL_MS] * 40)
    assert normalised_total(measured, refs) == pytest.approx(4 * NOMINAL_MS)


def test_blocks_track_sustained_slowdowns_and_ignore_one_bad_sample():
    # One reference sample every 0.1 s, a block of two units between each
    # pair.  The host runs 1.5x slower from t=2 s to t=4 s; at t=6 s one
    # sample alone reads 3x slow.
    at = [0.1 * j for j in range(80)]
    speed = [1.5 if 2.0 <= t < 4.0 else 1.0 for t in at]
    samples = [0.005 * s for s in speed]
    samples[60] *= 3
    blocks = [(i, 2) for i in range(79)]
    refs = paired_refs(at, samples, blocks, window_s=0.15)
    measured = [0.002 * speed[i] for i in range(79) for _ in range(2)]
    values = normalised(measured, refs)
    steady = [v for i, v in enumerate(values)
              if abs(at[i // 2] - 2.0) > 0.2 and abs(at[i // 2] - 4.0) > 0.2]
    assert steady == pytest.approx([0.4 * NOMINAL_MS] * len(steady))
    unpaired = normalised(measured, [0.005] * len(measured))
    assert max(unpaired) == pytest.approx(1.5 * min(unpaired))


def test_paired_refs_take_at_least_the_bracketing_samples():
    at = [0.0, 1.0, 2.0]
    assert paired_refs(at, [1.0, 3.0, 9.0], [(0, 2), (1, 1)], 0.1) == [
        2.0, 2.0, 6.0,
    ]


def test_pairing_needs_one_reference_per_unit():
    with pytest.raises(ValueError):
        normalised([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        normalised_total([1.0], [])


def test_kernel_imports_nothing_from_the_program():
    code = (
        "import sys; import perfbench.refkernel as k; k.sample_reference(); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True,
        text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"
