"""Incrementally maintained *sharded* sketches.

A serving replica under heavy write traffic cannot re-encode its whole
dataset per sync.  :class:`ShardedIncrementalSketch` keeps one
:class:`~repro.core.incremental.IncrementalSketch` per shard, routed
through the shared :class:`~repro.scale.partition.SpacePartitioner` — so a
point insert or delete touches exactly one shard's tables (``O(log delta)``
IBLT updates, independent of the shard count), and shards can be owned by
different writer threads or tenants.

``encode()`` frames the per-shard messages exactly like
:meth:`~repro.scale.engine.ShardedReconciler.encode`; the produced bytes
are bit-identical to a from-scratch sharded encode of the same multiset.
"""

from __future__ import annotations

from repro.core.config import ProtocolConfig
from repro.core.incremental import IncrementalSketch
from repro.emd.metrics import Point
from repro.scale.engine import shard_protocol_config
from repro.scale.partition import SpacePartitioner
from repro.scale.wire import write_frame


class ShardedIncrementalSketch:
    """Alice-side sharded sketch state supporting point insert/delete.

    >>> config = ProtocolConfig(delta=256, dimension=1, k=2, seed=3, shards=2)
    >>> sketch = ShardedIncrementalSketch(config)
    >>> sketch.insert((10,))
    >>> sketch.insert((200,))
    >>> sketch.remove((10,))
    >>> sketch.n_points
    1
    """

    def __init__(self, config: ProtocolConfig):
        self.config = config
        self.partitioner = SpacePartitioner(config)
        self.grid = self.partitioner.grid
        shard_config = shard_protocol_config(config)
        self._shards = [
            IncrementalSketch(shard_config) for _ in range(config.shards)
        ]

    @property
    def n_points(self) -> int:
        """Total points across every shard."""
        return sum(shard.n_points for shard in self._shards)

    def shard_sizes(self) -> list[int]:
        """Per-shard point counts (load-balance observability)."""
        return [shard.n_points for shard in self._shards]

    def shard_sketches(self) -> tuple[IncrementalSketch, ...]:
        """The per-shard incremental sketches, in shard order.

        The durable store's snapshot codec walks these to dump/restore
        per-level state; treat them as owned by this object.
        """
        return tuple(self._shards)

    def plan(self, points, sign: int) -> list[tuple]:
        """Route a batch to its shards and plan it there (nothing mutated).

        Returns ``[(shard, level, keys, signs), ...]``: shards in order of
        their first point in the batch, each shard's levels finest first
        (see :meth:`~repro.core.incremental.IncrementalSketch.plan`).  The
        whole batch is validated first; a failure raises the error of the
        earliest failing point in batch order and plans nothing.
        """
        points = list(points)
        members: dict[int, list[int]] = {}
        for index, shard in enumerate(self.partitioner._shard_ids_fast(points)):
            members.setdefault(shard, []).append(index)
        planned = []
        failure = None
        for shard, indices in members.items():
            shard_planned, shard_failure = self._shards[shard]._plan(
                [points[index] for index in indices], sign
            )
            if shard_failure is not None:
                first = (indices[shard_failure[0]], shard_failure[1])
                if failure is None or first[0] < failure[0]:
                    failure = first
            planned.extend(
                (shard, level, keys, signs)
                for level, keys, signs in shard_planned
            )
        if failure is not None:
            raise failure[1]
        return planned

    def apply(self, planned) -> None:
        """Land planned (or WAL-decoded) ``(shard, level, keys, signs)``
        groups: one signed backend batch per group."""
        for shard, level, keys, signs in planned:
            self._shards[shard].apply([(level, keys, signs)])

    def key_bits(self, level: int) -> int:
        """Packed key width at ``level`` (identical across shards — the
        shards share one derived sub-config)."""
        return self._shards[0].grid.key_bits(level)

    def sketch_levels(self) -> tuple[int, ...]:
        """The levels every shard sketches, finest first."""
        return self._shards[0].config.sketch_levels

    def insert(self, point: Point) -> None:
        """Add one point — touches a single shard's tables."""
        self.insert_all([point])

    def remove(self, point: Point) -> None:
        """Remove one point of the multiset — touches a single shard."""
        self.apply(self.plan([point], -1))

    def insert_all(self, points) -> None:
        """Insert every point of an iterable as one atomic batch."""
        self.apply(self.plan(points, 1))

    def encode(self) -> bytes:
        """The current sharded message (bit-identical to a fresh encode)."""
        return write_frame(
            self.config.shards,
            self.partitioner.level,
            [shard.n_points for shard in self._shards],
            [shard.encode() for shard in self._shards],
        )
