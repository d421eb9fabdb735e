"""The one-round encode's level fan-out against a serial level loop.

:func:`repro.core.sketch.build_level_sketches` builds each level's table
as one task, on a thread pool for a large numpy encode.  The contract:

* the payload is byte-identical to a plain serial loop over the levels
  (the oracle below lives here, not in ``src/``), above and below the
  fan-out threshold;
* the pool is opened only where it pays: never for the pure backend,
  never below :data:`~repro.core.sketch.FAN_OUT_MIN_POINTS`, never at
  width one.
"""

from __future__ import annotations

import random
import sys

import pytest

from repro.core import sketch as sketch_module
from repro.core.config import ProtocolConfig
from repro.core.protocol import HierarchicalReconciler
from repro.core.sketch import (
    FAN_OUT_MIN_POINTS,
    HierarchySketch,
    LevelSketch,
    fan_out_width,
    level_iblt_config,
)
from repro.iblt.backends import available_backends
from repro.iblt.table import IBLT

HAVE_NUMPY = "numpy" in available_backends()
needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy unavailable")

DELTA = 2**20


def _points(n: int, seed: int = 1) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    return [(rng.randrange(DELTA), rng.randrange(DELTA)) for _ in range(n)]


def _config(backend: str) -> ProtocolConfig:
    return ProtocolConfig(delta=DELTA, dimension=2, k=16, seed=3, backend=backend)


def serial_payload(config: ProtocolConfig, points) -> bytes:
    """The oracle: one table per level, built in level order, inline."""
    grid = HierarchicalReconciler(config).grid
    keys = grid.level_keys(points, config.sketch_levels)
    levels = []
    for level in config.sketch_levels:
        table = IBLT(level_iblt_config(config, grid, level), backend=config.backend)
        table.insert_many(keys[level])
        levels.append(LevelSketch(level, table))
    return HierarchySketch(len(points), levels).to_bytes()


class _CountingPool:
    """Stands in for ``ThreadPoolExecutor``; counts pools and widths."""

    opened: list[int] = []

    def __init__(self, max_workers: int):
        from concurrent.futures import ThreadPoolExecutor

        _CountingPool.opened.append(max_workers)
        self._pool = ThreadPoolExecutor(max_workers=max_workers)

    def __enter__(self):
        return self._pool.__enter__()

    def __exit__(self, *exc_info):
        return self._pool.__exit__(*exc_info)


def _no_pool(*args, **kwargs):
    raise AssertionError("the encode opened a thread pool")


def _encode(config: ProtocolConfig, points) -> bytes:
    """Alice's encode: :func:`build_level_sketches` plus the sketch frame."""
    return HierarchicalReconciler(config).encode(points)


@needs_numpy
def test_fanned_out_encode_matches_serial_loop_above_threshold(monkeypatch):
    _CountingPool.opened = []
    monkeypatch.setattr(sketch_module, "ThreadPoolExecutor", _CountingPool)
    monkeypatch.setattr(sketch_module.os, "cpu_count", lambda: 2)
    config = _config("numpy")
    points = _points(FAN_OUT_MIN_POINTS + 500)
    assert _encode(config, points) == serial_payload(config, points)
    assert _CountingPool.opened == [2]


@needs_numpy
def test_inline_encode_matches_serial_loop_below_threshold(monkeypatch):
    monkeypatch.setattr(sketch_module, "ThreadPoolExecutor", _no_pool)
    monkeypatch.setattr(sketch_module.os, "cpu_count", lambda: 2)
    config = _config("numpy")
    points = _points(4000, seed=2)
    assert _encode(config, points) == serial_payload(config, points)


@needs_numpy
def test_wide_pool_matches_serial_loop(monkeypatch):
    """More threads than CPUs, switching as often as the interpreter
    allows: the level tasks share one key pass (whose per-level caches
    they fill concurrently), and the bytes never move."""
    _CountingPool.opened = []
    monkeypatch.setattr(sketch_module, "ThreadPoolExecutor", _CountingPool)
    monkeypatch.setattr(sketch_module, "FAN_OUT_MIN_POINTS", 0)
    monkeypatch.setattr(sketch_module.os, "cpu_count", lambda: 64)
    config = _config("numpy")
    points = _points(600, seed=4) + _points(50, seed=4)  # duplicates too
    expected = serial_payload(config, points)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert _encode(config, points) == expected
    finally:
        sys.setswitchinterval(interval)
    assert _CountingPool.opened == [len(config.sketch_levels)] * 5


def test_pure_backend_opens_no_pool(monkeypatch):
    monkeypatch.setattr(sketch_module, "ThreadPoolExecutor", _no_pool)
    monkeypatch.setattr(sketch_module, "FAN_OUT_MIN_POINTS", 0)
    monkeypatch.setattr(sketch_module.os, "cpu_count", lambda: 8)
    config = _config("pure")
    points = _points(300, seed=5)
    assert fan_out_width(config, len(points)) == 1
    assert _encode(config, points) == serial_payload(config, points)


@needs_numpy
def test_small_inputs_and_one_cpu_open_no_pool(monkeypatch):
    monkeypatch.setattr(sketch_module, "ThreadPoolExecutor", _no_pool)
    config = _config("numpy")
    monkeypatch.setattr(sketch_module.os, "cpu_count", lambda: 8)
    assert fan_out_width(config, FAN_OUT_MIN_POINTS - 1) == 1
    _encode(config, _points(4000))
    monkeypatch.setattr(sketch_module.os, "cpu_count", lambda: 1)
    assert fan_out_width(config, 10 * FAN_OUT_MIN_POINTS) == 1
    monkeypatch.setattr(sketch_module.os, "cpu_count", lambda: None)
    assert fan_out_width(config, 10 * FAN_OUT_MIN_POINTS) == 1


@needs_numpy
def test_width_is_capped_by_levels_and_cpus(monkeypatch):
    config = _config("auto")
    monkeypatch.setattr(sketch_module.os, "cpu_count", lambda: 2)
    assert fan_out_width(config, FAN_OUT_MIN_POINTS) == 2
    monkeypatch.setattr(sketch_module.os, "cpu_count", lambda: 1000)
    assert fan_out_width(config, FAN_OUT_MIN_POINTS) == len(config.sketch_levels)
