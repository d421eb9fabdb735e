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

Bulk loads take a batch shortcut: when :meth:`IncrementalSketch.insert_all`
is called on an empty sketch, the whole point set goes through the grid's
single-pass key builder and each level's backend batch insert — the same
vectorized path a from-scratch encode uses — before switching to per-point
maintenance.
"""

from __future__ import annotations

from repro.core.config import ProtocolConfig
from repro.core.grid import ShiftedGridHierarchy
from repro.core.protocol import probe_levels
from repro.core.sketch import HierarchySketch, LevelSketch, level_iblt_config
from repro.emd.metrics import Point
from repro.errors import CapacityExceeded, ReconciliationFailure
from repro.iblt.decode import DecodeResult
from repro.iblt.table import IBLT


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

    def plan_insert(
        self, point: Point, pending: dict[tuple[int, int], int] | None = None
    ) -> list[tuple[int, int]]:
        """The key deltas inserting ``point`` would apply: one per level.

        Validates every level's occupancy before committing to anything,
        so a ``CapacityExceeded`` plans nothing.  ``pending`` is a
        ``(level, cell_id) -> count delta`` overlay for batch planning:
        ranks are assigned as if the overlay's earlier (still unapplied)
        deltas had landed, and the overlay is advanced in place.  The
        durable store uses this to frame a whole batch into one WAL
        record *before* mutating the sketch.
        """
        occ_bits = self.grid.occupancy_bits
        occ_limit = 1 << occ_bits
        cell_ids = {
            level: self.grid.cell_id(point, level) for level in self._tables
        }
        ranks: dict[int, int] = {}
        for level, cell_id in cell_ids.items():
            rank = self._cell_counts[level].get(cell_id, 0)
            if pending is not None:
                rank += pending.get((level, cell_id), 0)
            if rank >= occ_limit:
                raise CapacityExceeded(
                    f"cell {self.grid.cell(point, level)} at level {level} "
                    f"exceeds the {occ_bits}-bit occupancy field"
                )
            ranks[level] = rank
        if pending is not None:
            for level, cell_id in cell_ids.items():
                pending[(level, cell_id)] = pending.get((level, cell_id), 0) + 1
        return [
            (level, (cell_id << occ_bits) | ranks[level])
            for level, cell_id in cell_ids.items()
        ]

    def plan_remove(
        self, point: Point, pending: dict[tuple[int, int], int] | None = None
    ) -> list[tuple[int, int]]:
        """The key deltas removing one point of ``point``'s cells applies.

        Same batch-overlay contract as :meth:`plan_insert`; a failed plan
        (empty cell) advances nothing.
        """
        cell_ids = {
            level: self.grid.cell_id(point, level) for level in self._tables
        }
        ranks: dict[int, int] = {}
        for level, cell_id in cell_ids.items():
            count = self._cell_counts[level].get(cell_id, 0)
            if pending is not None:
                count += pending.get((level, cell_id), 0)
            if count <= 0:
                raise ReconciliationFailure(
                    f"remove of {point}: cell {self.grid.cell(point, level)} "
                    f"at level {level} is empty"
                )
            ranks[level] = count - 1
        if pending is not None:
            for level, cell_id in cell_ids.items():
                pending[(level, cell_id)] = pending.get((level, cell_id), 0) - 1
        occ_bits = self.grid.occupancy_bits
        return [
            (level, (cell_id << occ_bits) | ranks[level])
            for level, cell_id in cell_ids.items()
        ]

    def apply_delta(self, level: int, key: int, sign: int) -> None:
        """Apply one planned key delta (``sign`` is +1 insert / -1 delete).

        The inverse of planning: touches exactly one cell of one level's
        table and maintains the per-cell count from the key's rank field
        (an insert of rank ``r`` means the cell now holds ``r + 1``
        points; a delete of rank ``r`` means it holds ``r``).  Point
        accounting rides on the finest level — every per-point plan
        carries exactly one key there — so replaying a WAL's deltas in
        log order rebuilds ``n_points`` too.
        """
        occ_bits = self.grid.occupancy_bits
        cell_id = key >> occ_bits
        rank = key & ((1 << occ_bits) - 1)
        counts = self._cell_counts[level]
        if sign > 0:
            self._tables[level].insert(key)
            counts[cell_id] = rank + 1
        else:
            self._tables[level].delete(key)
            if rank == 0:
                counts.pop(cell_id, None)
            else:
                counts[cell_id] = rank
        if level == self.config.sketch_levels[0]:
            self.n_points += 1 if sign > 0 else -1

    def insert(self, point: Point) -> None:
        """Add one point: one key per level.

        Validates every level's occupancy before touching any table, so a
        ``CapacityExceeded`` leaves the sketch unchanged.
        """
        for level, key in self.plan_insert(point):
            self.apply_delta(level, key, 1)

    def remove(self, point: Point) -> None:
        """Remove one point of the multiset (any point of its cells).

        Occurrence keys carry no identity, so removing *some* point from
        each of the point's cells is exactly removing this point from the
        sketch's perspective.
        """
        for level, key in self.plan_remove(point):
            self.apply_delta(level, key, -1)

    def insert_all(self, points) -> None:
        """Insert every point of an iterable.

        An initial load into an empty sketch runs as one batch — a single
        grid pass plus one backend batch insert per level; later calls fall
        back to per-point maintenance.
        """
        points = list(points)
        if self.n_points == 0 and points:
            self._bulk_load(points)
            return
        for point in points:
            self.insert(point)

    def _bulk_load(self, points: list[Point]) -> None:
        keys_by_level = self.grid.level_keys(points, tuple(self._tables))
        occ_bits = self.grid.occupancy_bits
        for level, table in self._tables.items():
            keys = keys_by_level[level]
            table.insert_many(keys)
            counts: dict[int, int] = {}
            for key in keys:
                cell_id = key >> occ_bits
                counts[cell_id] = counts.get(cell_id, 0) + 1
            self._cell_counts[level] = counts
        self.n_points = len(points)

    def level_cell_counts(self, level: int) -> dict[int, int]:
        """One level's live per-cell point counts (read-only view).

        The snapshot writer persists these alongside the cells: they are
        *not* derivable from the IBLT (whose cells are sums over hashed
        rows), yet per-point maintenance needs them to assign ranks.
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

    def decode_difference(
        self, payload: bytes, *, probe: str = "binary"
    ) -> tuple[int, DecodeResult]:
        """Decode a peer's one-round message against the *live* tables.

        The receiving replica subtracts the incoming sketch from its
        incrementally maintained level tables — no re-encode of its own
        point set — and peels the finest decodable level.  Returns
        ``(level, result)``; the recovered ``alice_keys`` / ``bob_keys``
        are the packed ``(cell, occurrence)`` key difference at that level,
        which callers can feed to :func:`repro.core.repair.plan_repair` or
        use directly as a drift diagnostic.

        Subtraction is non-destructive, so the sketch keeps serving
        inserts/removes afterwards.

        Raises
        ------
        ReconciliationFailure
            If no transmitted level peels, or the payload carries a level
            this sketch does not maintain.
        """
        sketch = HierarchySketch.from_bytes(payload, self.config, self.grid)
        alice_tables = {
            level_sketch.level: level_sketch.table for level_sketch in sketch.levels
        }
        missing = sorted(set(alice_tables) - set(self._tables))
        if missing:
            raise ReconciliationFailure(
                f"incoming sketch carries levels {missing} this incremental "
                "sketch does not maintain (configs disagree?)"
            )
        level, result, _ = probe_levels(
            alice_tables,
            lambda level, _: self._tables[level],
            sketch.n_points,
            self.n_points,
            self.config,
            probe,
        )
        return level, result

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
