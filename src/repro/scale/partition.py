"""Deterministic space partitioning: coarse grid cell -> shard.

Both parties derive the same partition from the shared
:class:`~repro.core.config.ProtocolConfig` (public coins), so shard
membership costs zero communication.  The partition works on the *shifted*
grid at a coarse ``partition_level``: every level-``partition_level`` cell
is hashed to one of ``S`` shards.  Two properties follow:

* **agreement** — a point's shard depends only on its coordinates, the
  shared shift, and the shared seed; Alice and Bob always place matching
  points in the same shard;
* **nesting** — any grid cell at a level ``<= partition_level`` lies inside
  exactly one partition cell, hence one shard, so per-shard occurrence
  ranks of a fine cell equal the global ranks and the per-shard
  sub-protocols compose into a repair of the whole multiset.

Hashing cells (rather than block-assigning them) spreads spatially
clustered workloads across shards at the cost of shard locality, matching
how the IBLT itself randomises cell placement.
"""

from __future__ import annotations

import math
from typing import Sequence

try:  # numpy accelerates the batch shard pass; everything works without it
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

from repro.core.config import ProtocolConfig
from repro.core.grid import ShiftedGridHierarchy, pack_cells
from repro.errors import BackendUnavailableError
from repro.emd.metrics import Point
from repro.iblt.hashing import hash_with_salt, hash_with_salt_many

#: Salt domain separating the shard hash from every other public-coin hash.
_SHARD_SALT = 0x5AADED

#: Target number of partition cells per shard.  More cells per shard means
#: better load balance under hash assignment (the per-shard load is a sum of
#: many small cell loads) but a finer partition level; 64 keeps the relative
#: load imbalance of a uniform workload around ``1/sqrt(64) ~ 12%``.
CELLS_PER_SHARD = 64


def partition_level(config: ProtocolConfig) -> int:
    """The coarse grid level whose cells are hashed to shards.

    Chosen as the coarsest level providing at least ``CELLS_PER_SHARD *
    shards`` cells (load balance), clamped to the grid's level range.  With
    ``shards == 1`` the partition is trivial and the level is the coarsest.
    """
    max_level = max(1, (config.delta - 1).bit_length())
    if config.shards == 1:
        return max_level
    wanted_bits = max(0, math.ceil(math.log2(CELLS_PER_SHARD * config.shards)))
    per_level_bits = config.dimension  # halving the side multiplies cells 2^d
    # Shifted coordinates span [0, 2^(max_level+1)), so level L offers
    # 2^(d * (max_level + 1 - L)) cells.
    level = max_level + 1 - math.ceil(wanted_bits / per_level_bits)
    return min(max_level, max(0, level))


class SpacePartitioner:
    """Point -> shard map shared by both parties (public coins only)."""

    def __init__(self, config: ProtocolConfig, grid: ShiftedGridHierarchy | None = None):
        self.config = config
        self.shards = config.shards
        if grid is None:
            shift = None if config.random_shift else (0,) * config.dimension
            grid = ShiftedGridHierarchy(
                config.delta, config.dimension, config.seed,
                config.occupancy_bits, shift=shift,
            )
        self.grid = grid
        self.level = partition_level(config)
        self._salt = config.seed ^ _SHARD_SALT

    def shard_of(self, point: Point) -> int:
        """Shard index of one point."""
        if self.shards == 1:
            return 0
        cell_id = self.grid.cell_id(point, self.level)
        return hash_with_salt(cell_id, self._salt) % self.shards

    def shard_of_cell_key(self, cell_key: int) -> int:
        """Shard index of a packed partition-level cell id."""
        if self.shards == 1:
            return 0
        return hash_with_salt(cell_key, self._salt) % self.shards

    def shard_ids(self, points: Sequence[Point]) -> list[int]:
        """Shard index per point (scalar path; see :meth:`shard_id_array`)."""
        return [self.shard_of(point) for point in points]

    def shard_id_array(self, cell_keys: "_np.ndarray") -> "_np.ndarray":
        """Vectorized :meth:`shard_of_cell_key` over packed cell-id arrays.

        Bit-identical to the scalar path: ``hash_with_salt(value, salt)``
        is ``splitmix64(splitmix64(salt) ^ splitmix64(value))`` and uint64
        arithmetic reproduces the reference's explicit masking.
        """
        if _np is None:
            raise BackendUnavailableError("shard_id_array requires numpy")
        if self.shards == 1:
            return _np.zeros(cell_keys.shape[0], dtype=_np.int64)
        mixed = hash_with_salt_many(cell_keys.astype(_np.uint64), self._salt)
        return (mixed % _np.uint64(self.shards)).astype(_np.int64)

    def split(self, points: Sequence[Point]) -> list[list[Point]]:
        """Partition a point multiset into per-shard lists.

        Order within a shard follows the input order (the repaired multiset
        is order-insensitive; tests compare sorted).
        """
        if self.shards == 1:
            return [list(points)]
        if not isinstance(points, (list, tuple)):
            points = list(points)  # the id pass iterates, then zip re-iterates
        buckets: list[list[Point]] = [[] for _ in range(self.shards)]
        ids = self._shard_ids_fast(points)
        for point, shard in zip(points, ids):
            buckets[shard].append(point)
        return buckets

    def vector_partition(self, points: Sequence[Point]):
        """``(points_array, shard_id_array)`` — or ``None`` to fall back.

        The single vectorized shard-assignment pipeline; every batch caller
        (the engine's splitter, :meth:`split`) routes through here so shard
        placement cannot drift between paths.
        """
        if _np is None or self.grid.key_bits(self.level) > 63:
            return None
        array = self.grid.vector_points(points)
        if array is None:
            return None
        shifted = array + _np.asarray(self.grid.shift, dtype=_np.int64)
        cell_key = pack_cells(shifted >> self.level, self.grid.coord_bits(self.level))
        return array, self.shard_id_array(cell_key)

    def _shard_ids_fast(self, points: Sequence[Point]):
        """Per-point shard ids, vectorized when numpy can host the points."""
        if self.shards == 1:
            return [0] * len(points)
        vectorized = self.vector_partition(points)
        if vectorized is not None:
            return vectorized[1].tolist()
        return self.shard_ids(points)
