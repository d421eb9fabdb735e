"""Golden end-to-end transcripts: frozen wire bytes and repair outputs.

Each fixture under ``tests/golden/`` pins one complete protocol run —
config, input point sets, every message's exact bytes, and the repaired
set.  Any backend or protocol change that silently alters wire bytes or
repair output fails these tests loudly; a deliberate wire change must
regenerate the fixtures (and say so in review):

    PYTHONPATH=src python tests/test_golden_transcripts.py --regenerate

Fixtures are generated with the pure reference backend; the tests replay
them on every available backend, which also pins backend bit-compatibility
at the protocol level.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from repro.core.adaptive import AdaptiveReconciler
from repro.core.config import ProtocolConfig
from repro.core.incremental import IncrementalSketch
from repro.core.protocol import HierarchicalReconciler
from repro.core.rateless import reconcile_rateless
from repro.iblt.backends import available_backends
from repro.net.channel import SimulatedChannel

GOLDEN_DIR = Path(__file__).parent / "golden"
BACKENDS = available_backends()


def _perturbed_points(seed, n, delta, dimension, moved, drop):
    """Small deterministic noisy-replica pair (self-contained on purpose)."""
    rng = random.Random(seed)
    alice = [
        tuple(rng.randrange(delta) for _ in range(dimension)) for _ in range(n)
    ]
    bob = []
    for index, point in enumerate(alice):
        if index < drop:
            continue
        if index < drop + moved:
            point = tuple(
                min(delta - 1, max(0, c + rng.choice([-2, -1, 1, 2])))
                for c in point
            )
        bob.append(point)
    return alice, bob


def _scenarios():
    """The frozen runs: (name, protocol, config kwargs, alice, bob)."""
    small_alice, small_bob = [(10,), (33,), (200,)], [(11,), (200,)]
    d2_alice, d2_bob = _perturbed_points(1, 60, 1024, 2, moved=4, drop=2)
    dup_alice = [(5, 5)] * 3 + [(100, 200)] * 2 + [(900, 10)]
    dup_bob = [(5, 5)] * 3 + [(100, 200)] + [(901, 10)]
    big_alice, big_bob = _perturbed_points(9, 250, 4096, 2, moved=6, drop=3)
    inc_alice, inc_bob = _perturbed_points(4, 40, 512, 1, moved=3, drop=1)
    # Sized so the default rateless schedule needs >= 2 increments: the
    # symmetric difference at level 0 exceeds segment 0's peel capacity.
    rl_alice, rl_bob = _perturbed_points(2, 120, 2048, 2, moved=18, drop=4)
    return [
        ("one_round_d1_tiny", "one-round",
         dict(delta=256, dimension=1, k=2, seed=7), small_alice, small_bob),
        ("one_round_d2_noisy", "one-round",
         dict(delta=1024, dimension=2, k=8, seed=42), d2_alice, d2_bob),
        ("one_round_identical", "one-round",
         dict(delta=1024, dimension=2, k=4, seed=13), d2_alice, list(d2_alice)),
        ("one_round_multiset", "one-round",
         dict(delta=1024, dimension=2, k=4, seed=5), dup_alice, dup_bob),
        ("adaptive_two_round", "adaptive",
         dict(delta=4096, dimension=2, k=12, seed=3), big_alice, big_bob),
        ("incremental_encode", "incremental",
         dict(delta=512, dimension=1, k=6, seed=21), inc_alice, inc_bob),
        ("rateless_streaming", "rateless",
         dict(delta=2048, dimension=2, k=10, seed=17), rl_alice, rl_bob),
    ]


def _run(protocol, config, alice, bob):
    """Execute one scenario; returns (messages dict, outcome dict)."""
    if protocol == "adaptive":
        reconciler = AdaptiveReconciler(config)
        request = reconciler.bob_request(bob)
        response = reconciler.alice_respond(request, alice)
        result = reconciler.bob_finish(response, bob)
        messages = {"request": request.hex(), "response": response.hex()}
    elif protocol == "rateless":
        channel = SimulatedChannel()
        result = reconcile_rateless(alice, bob, config, channel=channel)
        messages = {
            f"{index:02d}_{message.label}": message.payload.hex()
            for index, message in enumerate(channel.messages)
        }
        channel.close()
    else:
        reconciler = HierarchicalReconciler(config)
        if protocol == "incremental":
            sketch = IncrementalSketch(config)
            sketch.insert_all(alice)
            # Exercise the maintenance path too: remove and re-add a point.
            sketch.remove(alice[0])
            sketch.insert(alice[0])
            payload = sketch.encode()
            assert payload == reconciler.encode(alice)
        else:
            payload = reconciler.encode(alice)
        result = reconciler.decode_and_repair(payload, bob)
        messages = {"sketch": payload.hex()}
    outcome = {
        "level": result.level,
        "alice_surplus": result.alice_surplus,
        "bob_surplus": result.bob_surplus,
        "repaired": sorted([list(p) for p in result.repaired]),
    }
    return messages, outcome


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, protocol, kwargs, alice, bob in _scenarios():
        config = ProtocolConfig(backend="pure", **kwargs)
        messages, outcome = _run(protocol, config, alice, bob)
        fixture = {
            "name": name,
            "protocol": protocol,
            "config": kwargs,
            "alice": [list(p) for p in alice],
            "bob": [list(p) for p in bob],
            "messages": messages,
            "outcome": outcome,
        }
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


def _load_fixtures():
    return [
        json.loads(path.read_text()) for path in sorted(GOLDEN_DIR.glob("*.json"))
    ]


_FIXTURES = _load_fixtures()
_MISSING = (
    f"no golden fixtures in {GOLDEN_DIR}; run "
    "PYTHONPATH=src python tests/test_golden_transcripts.py --regenerate"
)


@pytest.mark.parametrize(
    "fixture",
    _FIXTURES or [None],
    ids=lambda fixture: fixture["name"] if fixture else "missing",
)
@pytest.mark.parametrize("backend", BACKENDS)
def test_golden_transcript(fixture, backend):
    assert fixture is not None, _MISSING
    config = ProtocolConfig(backend=backend, **fixture["config"])
    alice = [tuple(p) for p in fixture["alice"]]
    bob = [tuple(p) for p in fixture["bob"]]
    messages, outcome = _run(fixture["protocol"], config, alice, bob)
    assert messages == fixture["messages"], (
        f"wire bytes changed for {fixture['name']} on backend {backend!r}; "
        "if intentional, regenerate the golden fixtures"
    )
    assert outcome == fixture["outcome"]


def test_fixture_count_covers_protocols():
    fixtures = _load_fixtures()
    assert fixtures, _MISSING
    assert 4 <= len(fixtures) <= 8
    assert {fixture["protocol"] for fixture in fixtures} == {
        "one-round", "adaptive", "incremental", "rateless"
    }


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        regenerate()
    else:
        print(__doc__)
