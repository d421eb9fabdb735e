"""The exact-metric guard.

Bytes per sync, rounds per sync, the repair EMD ratio and the digests
of replay recordings and recovery info are deterministic functions of
(source, seed, workload).  The first run of a seed writes them to a
ledger inside the checkout; every later run of the same seed against
the same source must reproduce them bit for bit, or the run fails as a
determinism failure rather than reporting a number.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


class DeterminismFailure(Exception):
    """An exact metric differed from an earlier run of the same seed."""


def source_digest(root: Path) -> str:
    """Hash of the program and benchmark sources, so a ledger entry is
    only ever compared against runs of the same code."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_exact(root: Path, ledger_dir: Path, workload) -> None:
    entry = {
        "exact": {k: repr(v) for k, v in sorted(workload.exact.items())},
        "digests": dict(sorted(workload.digests.items())),
    }
    path = (
        ledger_dir / source_digest(root)
        / f"{workload.name}-seed{workload.seed}.json"
    )
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != entry:
            drift = sorted(
                f"{section}.{key}"
                for section in entry
                for key in set(entry[section]) | set(earlier.get(section, {}))
                if entry[section].get(key) != earlier.get(section, {}).get(key)
            )
            raise DeterminismFailure(
                f"{workload.name} seed {workload.seed}: {', '.join(drift)} "
                f"differ from the run recorded in {path.name}"
            )
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(entry, indent=1))
    tmp.replace(path)
