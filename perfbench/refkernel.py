"""Host-normalised timing: a fixed reference kernel and the pairing rule.

A shared 2-vCPU host changes speed by tens of percent over seconds,
whatever the program does.  A raw wall-clock time therefore measures the
host as much as the code.  Each timed unit here is paired with an
adjacent sample of a fixed kernel, and reported in *reference ms*::

    value = measured / paired_reference * NOMINAL_MS

The kernel mixes a pure-Python loop with a small numpy workload, the
same two kinds of work the reconciliation stack does.  It imports
nothing from ``repro``, so no change to the program under test can move
the yardstick.

The pairing has to be finer than the host's wander: one reference
sample every few milliseconds of measured work, not one per second.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: The kernel's fixed nominal duration.  A timed unit that took exactly
#: as long as one kernel run reads ``NOMINAL_MS`` reference ms.
NOMINAL_MS = 5.0

_PY_ITERATIONS = 16_000
_NP_WORDS = 1 << 13
_NP_ROUNDS = 12
_MIX = np.uint64(0x9E3779B97F4A7C15)


def reference_kernel() -> int:
    """One run of the fixed kernel; returns a checksum so no work is
    skipped.  About 5 ms on a 2020s x86 core."""
    acc = 0
    for i in range(_PY_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    words = np.arange(_NP_WORDS, dtype=np.uint64)
    for _ in range(_NP_ROUNDS):
        words = (words * _MIX) ^ (words >> np.uint64(29))
        np.bitwise_xor.at(words, words & np.uint64(_NP_WORDS - 1), words)
    return acc ^ int(words[-1] & np.uint64(0xFFFFFFFF))


def sample_reference() -> float:
    """Seconds one kernel run takes right now."""
    started = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - started


def paired_refs(
    at: list[float], samples: list[float], blocks, window_s: float
) -> list[float]:
    """The paired reference time of every unit, block by block.

    ``samples[j]`` is a kernel run that started at time ``at[j]``; a
    block ``(i, count)`` of ``count`` units was timed between samples
    ``i`` and ``i + 1``.  Each of its units is paired with the median of
    the samples started within ``window_s`` of the block's centre, and
    at least the two that bracket it: far shorter than the host's
    wander, long enough that one unlucky sample does not decide a block.
    """
    refs: list[float] = []
    for i, count in blocks:
        centre = (at[i] + at[i + 1]) / 2
        lo = min(i, bisect.bisect_left(at, centre - window_s))
        hi = max(i + 2, bisect.bisect_right(at, centre + window_s))
        refs += [statistics.median(samples[lo:hi])] * count
    return refs


def normalised(measured: list[float], refs: list[float]) -> list[float]:
    """Each unit in reference ms: ``measured / ref * NOMINAL_MS``."""
    if len(measured) != len(refs):
        raise ValueError(
            f"{len(measured)} measured units but {len(refs)} references"
        )
    return [m / r * NOMINAL_MS for m, r in zip(measured, refs)]


def normalised_total(measured: list[float], refs: list[float]) -> float:
    """Σ measured ÷ Σ paired reference × ``NOMINAL_MS``.

    The ratio of sums, not the mean of ratios, so one short unit paired
    with an unlucky reference sample cannot dominate.
    """
    if len(measured) != len(refs) or not refs:
        raise ValueError("need one reference per measured unit")
    return sum(measured) / sum(refs) * NOMINAL_MS
