"""Incrementally maintained hierarchy sketches.

A synchronising replica does not want to re-hash its whole dataset every
time it sends a sketch.  Because the protocol's keys are *(cell id,
occurrence rank)* pairs — and a cell holding ``c`` points always owns
exactly the keys ``(cell, 0) .. (cell, c-1)`` regardless of which point has
which rank — the sketch is a pure function of the per-cell *counts*:

* inserting a point into a cell of size ``c`` adds exactly the key
  ``(cell, c)``;
* deleting any point from that cell removes exactly the key
  ``(cell, c-1)``.

So maintaining the full hierarchy costs ``O(log Δ)`` IBLT updates per point
update, and the produced message is bit-identical to a from-scratch
:meth:`~repro.core.protocol.HierarchicalReconciler.encode` of the same
multiset.

Every update — one point, a live batch, a bulk load, a replayed WAL
record — takes the same two steps.  :meth:`IncrementalSketch.plan` turns
a batch into per-level key lists (one grid pass for the cell ids, then a
rank per point from the live counts plus the batch's earlier points) and
validates all of it; :meth:`IncrementalSketch.apply` then lands each
level with one signed backend batch.  Because cells add and xor, a
batch's deltas commute into that one scatter per level.
"""

from __future__ import annotations

from itertools import repeat

try:  # numpy vectorizes batch ranking; everything works without it
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

from repro.core.config import ProtocolConfig
from repro.core.grid import ShiftedGridHierarchy, occurrence_ranks
from repro.core.sketch import HierarchySketch, LevelSketch, level_iblt_config
from repro.emd.metrics import Point
from repro.errors import CapacityExceeded, ConfigError, ReconciliationFailure
from repro.iblt.table import IBLT


def _batch_keys(cell_ids, counts: dict[int, int], sign: int, occ_bits: int):
    """One level's packed keys for a batch, in point order: ``(keys, bad)``.

    An insert takes rank ``c``, a remove rank ``c - 1``, where ``c`` is the
    cell's live count plus the batch's earlier net updates to that cell.
    ``bad`` is ``None`` or the index of the first point whose rank falls
    outside the occupancy field (full field / empty cell); ``cell_ids`` is
    a list, or an int64 array ranked vectorized.
    """
    occ_limit = 1 << occ_bits
    if isinstance(cell_ids, list):
        keys: list[int] = []
        batch: dict[int, int] = {}  # cell -> count once the batch so far lands
        for index, cell_id in enumerate(cell_ids):
            count = batch.get(cell_id)
            if count is None:
                count = counts.get(cell_id, 0)
            rank = count if sign > 0 else count - 1
            if not 0 <= rank < occ_limit:
                return keys, index
            batch[cell_id] = count + sign
            keys.append((cell_id << occ_bits) | rank)
        return keys, None
    cells, inverse = _np.unique(cell_ids, return_inverse=True)
    live = _np.array(list(map(counts.get, cells.tolist(), repeat(0))), _np.int64)
    ranks = live[inverse] + sign * occurrence_ranks(cell_ids) - (sign < 0)
    bad = (ranks < 0) | (ranks >= occ_limit)
    if bad.any():
        return None, int(_np.argmax(bad))
    return (cell_ids << occ_bits) | ranks, None


def _land_counts(counts: dict[int, int], keys, signs, occ_bits: int) -> int:
    """Fold one level's landed key deltas into its per-cell counts.

    Each key's rank field fixes its cell's count once it lands (an insert
    of rank ``r`` leaves ``r + 1`` points, a delete leaves ``r``), so the
    last delta per cell wins and an emptied cell drops out.  Returns the
    net point change (the sum of ``signs``).
    """
    rank_mask = (1 << occ_bits) - 1
    if isinstance(keys, list):
        for key, sign in zip(keys, signs):
            rank = key & rank_mask
            if sign > 0:
                counts[key >> occ_bits] = rank + 1
            elif rank:
                counts[key >> occ_bits] = rank
            else:
                counts.pop(key >> occ_bits, None)
        return sum(signs)
    keys = keys.astype(_np.uint64, copy=False)
    rising = _np.asarray(signs) > 0
    cells = keys >> _np.uint64(occ_bits)
    values = (keys & _np.uint64(rank_mask)).astype(_np.int64) + rising
    counts.update(zip(cells.tolist(), values.tolist()))  # the last write wins
    for cell in cells[values == 0].tolist():
        if counts.get(cell) == 0:
            del counts[cell]
    return 2 * int(rising.sum()) - len(keys)


class IncrementalSketch:
    """Alice-side sketch state supporting point insert/delete.

    >>> config = ProtocolConfig(delta=256, dimension=1, k=2, seed=3)
    >>> sketch = IncrementalSketch(config)
    >>> sketch.insert((10,))
    >>> sketch.insert((200,))
    >>> sketch.remove((10,))
    >>> sketch.n_points
    1
    """

    def __init__(self, config: ProtocolConfig):
        self.config = config
        shift = None if config.random_shift else (0,) * config.dimension
        self.grid = ShiftedGridHierarchy(
            config.delta, config.dimension, config.seed, config.occupancy_bits,
            shift=shift,
        )
        self.n_points = 0
        self._tables: dict[int, IBLT] = {
            level: IBLT(
                level_iblt_config(config, self.grid, level), backend=config.backend
            )
            for level in config.sketch_levels
        }
        # Per-level point counts keyed by the *packed* integer cell id (the
        # key's cell field) — cheaper than coordinate tuples on hot paths.
        self._cell_counts: dict[int, dict[int, int]] = {
            level: {} for level in config.sketch_levels
        }

    def plan(self, points, sign: int) -> list[tuple]:
        """The key deltas inserting (``sign=+1``) or removing (``-1``) a
        whole batch applies: ``[(level, keys, signs), ...]``, finest level
        first, each level's keys in point order (an int64 array when numpy
        ranked the batch, else a list).

        Nothing is mutated, so a batch can be framed (the durable store's
        WAL record) before :meth:`apply` lands it.  Every level of every
        point is validated first: a ``CapacityExceeded`` (full occupancy
        field) or ``ReconciliationFailure`` (remove from an empty cell)
        plans nothing, and names the first point, in batch order, that a
        point-by-point run would have failed on.
        """
        planned, failure = self._plan(list(points), sign)
        if failure is not None:
            raise failure[1]
        return planned

    def _plan(self, points: list[Point], sign: int):
        """:meth:`plan` returning ``(planned, failure)`` instead of raising.

        ``failure`` is ``None`` or ``(index, error)`` for the first failing
        point, so the sharded sketch can pick the earliest failure across
        shards.  Ranks follow batch order: a point sees the live count of
        its cell plus every earlier point of the batch in that cell.
        """
        if sign not in (1, -1):
            raise ConfigError(f"a batch sign is +1 or -1, got {sign}")
        occ_bits = self.grid.occupancy_bits
        levels = self.config.sketch_levels
        cell_ids = self.grid.cell_ids(points, levels)
        planned = []
        failure: tuple[int, int] | None = None
        for level in levels:
            keys, bad = _batch_keys(
                cell_ids[level], self._cell_counts[level], sign, occ_bits
            )
            if bad is not None:
                if failure is None or bad < failure[0]:
                    failure = (bad, level)
                continue
            planned.append((level, keys, [sign] * len(keys)))
        if failure is None:
            return planned, None
        index, level = failure
        point = points[index]
        cell = self.grid.cell(point, level)
        if sign > 0:
            error = CapacityExceeded(
                f"cell {cell} at level {level} "
                f"exceeds the {occ_bits}-bit occupancy field"
            )
        else:
            error = ReconciliationFailure(
                f"remove of {point}: cell {cell} at level {level} is empty"
            )
        return [], (index, error)

    def apply(self, planned) -> None:
        """Land planned key deltas: one signed backend batch and one count
        pass per level.

        ``planned`` is :meth:`plan`'s output, or the same shape decoded
        from a WAL record.  The count pass reads each key's rank field (an
        insert of rank ``r`` leaves ``r + 1`` points in the cell, a delete
        leaves ``r``), so replaying deltas in log order rebuilds the
        counts; ``n_points`` follows the finest level's signs, which carry
        exactly one key per point.
        """
        occ_bits = self.grid.occupancy_bits
        finest = self.config.sketch_levels[0]
        for level, keys, signs in planned:
            self._tables[level].apply_many(keys, signs)
            net = _land_counts(self._cell_counts[level], keys, signs, occ_bits)
            if level == finest:
                self.n_points += net

    def insert(self, point: Point) -> None:
        """Add one point (a one-element :meth:`insert_all`)."""
        self.insert_all([point])

    def remove(self, point: Point) -> None:
        """Remove one point of the multiset (any point of its cells).

        Occurrence keys carry no identity, so removing *some* point from
        each of the point's cells is exactly removing this point from the
        sketch's perspective.  An empty cell at any level raises
        ``ReconciliationFailure`` and leaves the sketch unchanged.
        """
        self.apply(self.plan([point], -1))

    def insert_all(self, points) -> None:
        """Insert every point of an iterable as one batch.

        Atomic: the whole batch is planned (and validated) before any
        table moves, so a ``CapacityExceeded`` leaves the sketch as it was.
        """
        self.apply(self.plan(points, 1))

    def level_cell_counts(self, level: int) -> dict[int, int]:
        """One level's live per-cell point counts (read-only view).

        The snapshot writer persists these alongside the cells: they are
        *not* derivable from the IBLT (whose cells are sums over hashed
        rows), yet :meth:`plan` needs them to assign ranks.
        """
        return self._cell_counts[level]

    def restore_level(
        self, level, counts, key_sums, check_sums, cell_counts: dict[int, int]
    ) -> None:
        """Load one level's table rows and cell counts from a snapshot.

        Only meaningful on a freshly constructed (empty) sketch; the
        columns must come from a table of this level's exact config, as
        produced by the matching dump.  ``n_points`` is restored
        separately via :meth:`restore_n_points`.
        """
        self._tables[level]._backend.load_rows(counts, key_sums, check_sums)
        self._cell_counts[level] = dict(cell_counts)

    def restore_n_points(self, n_points: int) -> None:
        """Set the point count to a snapshot's recorded value."""
        self.n_points = n_points

    def level_sketches(self) -> list[LevelSketch]:
        """Live per-level tables, finest first.

        The tables are this sketch's working state, not copies — callers
        (e.g. the sharded wire codec) must treat them as read-only.
        """
        return [
            LevelSketch(level, self._tables[level])
            for level in self.config.sketch_levels
        ]

    def encode(self) -> bytes:
        """The current one-round message (bit-identical to a fresh encode)."""
        sketch = HierarchySketch(
            n_points=self.n_points,
            levels=[
                LevelSketch(level, self._tables[level].copy())
                for level in self.config.sketch_levels
            ],
        )
        return sketch.to_bytes()
