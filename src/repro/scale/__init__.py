"""Sharded, multi-core reconciliation (the scale-out layer).

The one-round protocol is embarrassingly parallel across disjoint regions
of the point space: a :class:`SpacePartitioner` splits ``[delta]^d`` into
``S`` shards by coarse grid cell (deterministically from the public coins,
so both parties agree with no extra communication), and a
:class:`ShardedReconciler` runs one full hierarchy sub-protocol per shard,
encoding and decoding shards concurrently — on threads for the numpy
backend, on forked processes for the pure one, ``min(shards, cpu_count)``
wide.

Because shard boundaries follow the shared shifted grid, every fine-level
cell lies inside exactly one shard; each shard's sub-protocol therefore
sees a self-contained reconciliation instance and the merged repair is a
valid repair of the whole multiset.
"""

from repro.scale.engine import (
    ShardedReconciler,
    ShardedResult,
    reconcile_sharded,
)
from repro.scale.incremental import ShardedIncrementalSketch
from repro.scale.partition import SpacePartitioner

__all__ = [
    "ShardedIncrementalSketch",
    "ShardedReconciler",
    "ShardedResult",
    "SpacePartitioner",
    "reconcile_sharded",
]
