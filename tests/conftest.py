"""Test-suite configuration.

The protocol core is dependency-free, but the EMD *evaluation* machinery
(exact matchings, quality measurements, the examples built on them) uses
numpy + scipy at benchmark scale.  When that stack is not installed — the
CI matrix runs one leg without it on purpose — the files below are skipped
wholesale and everything else (protocol, IBLT backends, differential and
golden suites, CLI, workloads) must stay green on the pure fallback.
"""

from __future__ import annotations

try:
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    HAVE_SCIENTIFIC_STACK = True
except ImportError:
    HAVE_SCIENTIFIC_STACK = False

if not HAVE_SCIENTIFIC_STACK:
    collect_ignore = [
        # Direct numpy / backend="scipy" users (EMD quality measurement).
        "test_emd_metrics.py",
        "test_emd_matching.py",
        "test_emd_partial_onedim.py",
        "test_core_broadcast.py",
        "test_integration.py",
        "test_property_protocol.py",
        "test_stress_consistency.py",
        "test_examples.py",
    ]


import os

import pytest


@pytest.fixture(autouse=True)
def _serve_store_shim(request, monkeypatch, tmp_path_factory):
    """Run the chaos matrix against durable-store-backed servers.

    ``REPRO_STORE_DIR=1`` rebuilds every ``ReconciliationServer`` the
    chaos matrix constructs around a :class:`~repro.store.DurableSketchStore`
    bulk-loaded into a fresh temp directory — the acceptance contract of
    the store layer: every fault plan must end in the same correct
    repair or the same typed error whether the served payloads come from
    live reconcilers or from recovered durable state.  Unset (the
    default), a no-op.
    """
    if (
        not os.environ.get("REPRO_STORE_DIR")
        or request.module.__name__ != "test_chaos_matrix"
    ):
        yield
        return
    import tempfile

    from repro.serve import ServerCore
    from repro.store import DurableSketchStore

    current = request.module.ReconciliationServer
    base = tmp_path_factory.mktemp("chaos-store")

    def store_backed(
        config=None, points=None, *, core=None,
        adaptive=None, rateless=None, **kwargs,
    ):
        if core is None:
            directory = tempfile.mkdtemp(dir=str(base))
            store = DurableSketchStore.open(config, directory)
            store.bulk_load(points)
            core = ServerCore(
                config, points,
                adaptive=adaptive, rateless=rateless, store=store,
            )
        return current(core=core, **kwargs)

    monkeypatch.setattr(request.module, "ReconciliationServer", store_backed)
    yield
