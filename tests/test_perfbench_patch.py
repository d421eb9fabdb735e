"""perfbench's traced run wraps named entry points across ``repro``.

``perfbench.trace.patch`` looks each name up with ``getattr``, so a
source edit that removes or renames a wrapped function breaks the traced
benchmark.  Patching once and restoring catches that in the tier-1 suite.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")

# perfbench is a top-level directory of the repository, not a package
# under src/.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import trace  # noqa: E402
from perfbench.spans import Patcher, SpanRecorder  # noqa: E402


def test_trace_patch_wraps_and_restores():
    with Patcher(SpanRecorder()) as patcher:
        trace.patch(patcher)
        wrapped = list(patcher._undo)
        assert wrapped
        for owner, attr, raw in wrapped:
            assert inspect.getattr_static(owner, attr) is not raw
    for owner, attr, raw in wrapped:
        assert inspect.getattr_static(owner, attr) is raw
