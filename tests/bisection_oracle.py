"""The plain bisection the aimed level search must match.

Before Bob's probes were aimed by a difference estimate, the one-round
decoder bisected: probe the finest level, then the coarsest, then halve
the bracket between a failure and a success.  It stays here as the oracle
the aimed search (:func:`repro.core.protocol._finest_decodable`) is held
to: the same level and repair on every input with a checksum wide enough
that decodability is monotone in the level, and never more probes.  The
E7 bench (``benchmarks/bench_runtime.py``) imports it too.
"""

from __future__ import annotations

from unittest import mock

from repro.core import protocol


def bisect_finest_decodable(levels, attempt, probe="binary"):
    """Locate the smallest (finest) level whose table peels, by bisection."""
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


def bisection_decode(reconciler, payload, bob_points, **kwargs):
    """``reconciler.decode_and_repair`` with the bisection searching."""
    with mock.patch.object(
        protocol, "_finest_decodable", bisect_finest_decodable
    ):
        return reconciler.decode_and_repair(payload, bob_points, **kwargs)
