"""The randomly offset quadtree: a hierarchy of randomly shifted grids.

Level ``ℓ`` partitions ``[delta]^d`` into axis-aligned cubes of side
``2^ℓ``, offset by a random shift ``o`` drawn once from the public coins.
The two facts the protocol's analysis rests on (ℓ1 metric):

* **split probability** — points at distance ``t`` land in different
  level-ℓ cells with probability at most ``t / 2^ℓ`` (each coordinate
  crosses a boundary with probability ``|Δ_i| / 2^ℓ``; union bound);
* **cell diameter** — any two points in one level-ℓ cell are within
  ``d · 2^ℓ`` of each other, and within ``d · 2^ℓ / 2`` of the cell centre
  (+1 rounding slack per coordinate).

Keys: a point's identity inside a level's IBLT is its *cell id* plus an
*occurrence index* (this party's rank among its own points in that cell).
Both are packed bit-exactly into one integer, so a decoded key is
self-describing — the receiver recovers the cell (hence the centre point)
without any value field.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

try:  # numpy accelerates the batch key pass; everything works without it
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

from repro.emd.metrics import Point
from repro.errors import CapacityExceeded, ConfigError

Cell = tuple[int, ...]


class ShiftedGridHierarchy:
    """All grid levels for one ``(delta, dimension, seed)`` triple.

    Both parties construct this identically from the shared seed; the random
    shift is the protocol's only geometric randomness.
    """

    def __init__(self, delta: int, dimension: int, seed: int = 0,
                 occupancy_bits: int = 20, shift: tuple[int, ...] | None = None):
        if delta < 2:
            raise ConfigError(f"delta must be >= 2, got {delta}")
        if dimension < 1:
            raise ConfigError(f"dimension must be >= 1, got {dimension}")
        if not 1 <= occupancy_bits <= 40:
            raise ConfigError(
                f"occupancy_bits must be in [1, 40], got {occupancy_bits}"
            )
        self.delta = delta
        self.dimension = dimension
        self.seed = seed
        self.occupancy_bits = occupancy_bits
        self.max_level = max(1, (delta - 1).bit_length())
        if shift is None:
            rng = random.Random(seed ^ 0x5311F7ED)
            shift = tuple(
                rng.randrange(0, 1 << self.max_level) for _ in range(dimension)
            )
        if len(shift) != dimension:
            raise ConfigError(
                f"shift has dimension {len(shift)}, grid expects {dimension}"
            )
        for offset in shift:
            if not 0 <= offset < (1 << self.max_level):
                raise ConfigError(
                    f"shift component {offset} outside [0, 2^{self.max_level})"
                )
        # shift=(0,...,0) degrades to a deterministic (unshifted) grid —
        # exactly the ablation the random-offset analysis warns about.
        self.shift = tuple(shift)

    # ------------------------------------------------------------- geometry

    def _check_level(self, level: int) -> None:
        if not 0 <= level <= self.max_level:
            raise ConfigError(
                f"level {level} outside [0, {self.max_level}]"
            )

    def _check_point(self, point: Point) -> None:
        if len(point) != self.dimension:
            raise ConfigError(
                f"point has dimension {len(point)}, grid expects {self.dimension}"
            )
        for coordinate in point:
            if not 0 <= coordinate < self.delta:
                raise ConfigError(
                    f"coordinate {coordinate} outside [0, {self.delta})"
                )

    def cell(self, point: Point, level: int) -> Cell:
        """Cell id of ``point`` at ``level`` (shifted, floored)."""
        self._check_level(level)
        self._check_point(point)
        return tuple(
            (coordinate + offset) >> level
            for coordinate, offset in zip(point, self.shift)
        )

    def cell_id(self, point: Point, level: int) -> int:
        """Packed integer form of :meth:`cell` (the key's cell field).

        Equals ``pack_key(self.cell(point, level), 0, level) >>
        occupancy_bits``; incremental sketches index their per-cell counts
        by it to avoid building coordinate tuples on the hot path.
        """
        self._check_level(level)
        self._check_point(point)
        bits = self.coord_bits(level)
        packed = 0
        for coordinate, offset in zip(point, self.shift):
            packed = (packed << bits) | ((coordinate + offset) >> level)
        return packed

    def center(self, cell: Cell, level: int) -> Point:
        """Centre of a cell, clamped back onto the grid.

        At level 0 cells are single points and the centre is exact, so a
        difference recovered at level 0 reproduces Alice's point verbatim.
        """
        self._check_level(level)
        if len(cell) != self.dimension:
            raise ConfigError(
                f"cell has dimension {len(cell)}, grid expects {self.dimension}"
            )
        half = (1 << level) >> 1
        coordinates = []
        for index, offset in zip(cell, self.shift):
            raw = (index << level) + half - offset
            coordinates.append(max(0, min(self.delta - 1, raw)))
        return tuple(coordinates)

    def coord_bits(self, level: int) -> int:
        """Bits needed for one cell coordinate at ``level``.

        Shifted coordinates live in ``[0, delta - 1 + 2^max_level]``, so a
        level-ℓ cell index needs ``max_level + 1 - ℓ`` bits.
        """
        self._check_level(level)
        return self.max_level + 1 - level

    # ------------------------------------------------------------ key packing

    def key_bits(self, level: int) -> int:
        """Width of a packed ``(cell, occurrence)`` key at ``level``."""
        return self.dimension * self.coord_bits(level) + self.occupancy_bits

    def pack_key(self, cell: Cell, occurrence: int, level: int) -> int:
        """Pack a cell id and occurrence index into one integer key."""
        self._check_level(level)
        if occurrence < 0 or occurrence.bit_length() > self.occupancy_bits:
            raise CapacityExceeded(
                f"occurrence {occurrence} exceeds {self.occupancy_bits}-bit "
                "field; raise occupancy_bits or shrink cell populations"
            )
        bits = self.coord_bits(level)
        key = 0
        for index in cell:
            if index < 0 or index.bit_length() > bits:
                raise ConfigError(
                    f"cell coordinate {index} does not fit {bits} bits at "
                    f"level {level}"
                )
            key = (key << bits) | index
        return (key << self.occupancy_bits) | occurrence

    def unpack_key(self, key: int, level: int) -> tuple[Cell, int]:
        """Inverse of :meth:`pack_key`."""
        self._check_level(level)
        if key < 0 or key.bit_length() > self.key_bits(level):
            raise ConfigError(
                f"key {key} does not fit {self.key_bits(level)} bits at "
                f"level {level}"
            )
        occurrence = key & ((1 << self.occupancy_bits) - 1)
        key >>= self.occupancy_bits
        bits = self.coord_bits(level)
        mask = (1 << bits) - 1
        reversed_cell = []
        for _ in range(self.dimension):
            reversed_cell.append(key & mask)
            key >>= bits
        return tuple(reversed(reversed_cell)), occurrence

    # ------------------------------------------------------------- key streams

    def bucket_points(
        self, points: Sequence[Point], level: int
    ) -> dict[Cell, list[Point]]:
        """Group points by cell, each bucket sorted in coordinate order.

        Sorting fixes the occurrence indexing: both parties rank their own
        points inside a cell the same deterministic way, so equal
        multiplicities cancel key-for-key regardless of noise within the
        cell.
        """
        buckets: dict[Cell, list[Point]] = {}
        for point in points:
            buckets.setdefault(self.cell(point, level), []).append(point)
        for bucket in buckets.values():
            bucket.sort()
        return buckets

    def keys_for(self, points: Sequence[Point], level: int) -> Iterable[int]:
        """One packed key per point: ``(cell, occurrence-rank)``."""
        return self.level_keys(points, (level,))[level]

    def level_keys(
        self, points: Sequence[Point], levels: Sequence[int]
    ) -> dict[int, list[int]]:
        """Packed keys for every requested level, in one pass.

        Points are validated and sorted once; each level then pays only the
        bit-shifts.  Occurrence ranks follow the global sorted order, which
        restricted to any one cell is exactly the sorted-bucket order —
        identical keys to the per-level path, ~``len(levels)``× faster.

        When numpy is available (and every requested key width fits an
        int64) the whole pass — shift, sort, cell packing, occurrence
        ranking — runs vectorized; the produced keys are identical.
        """
        for level in levels:
            self._check_level(level)
        vectorized = self._level_keys_vectorized(points, levels)
        if vectorized is not None:
            return vectorized
        for point in points:
            self._check_point(point)
        shift = self.shift
        shifted = sorted(
            tuple(c + o for c, o in zip(point, shift)) for point in points
        )
        occ_bits = self.occupancy_bits
        occ_limit = 1 << occ_bits
        result: dict[int, list[int]] = {}
        for level in levels:
            bits = self.coord_bits(level)
            counts: dict[int, int] = {}
            keys = []
            for coords in shifted:
                cell_key = 0
                for coordinate in coords:
                    cell_key = (cell_key << bits) | (coordinate >> level)
                occurrence = counts.get(cell_key, 0)
                if occurrence >= occ_limit:
                    raise CapacityExceeded(
                        f"more than {occ_limit} points share a level-{level} "
                        "cell; raise occupancy_bits"
                    )
                counts[cell_key] = occurrence + 1
                keys.append((cell_key << occ_bits) | occurrence)
            result[level] = keys
        return result

    def vector_points(self, points: Sequence[Point]) -> "_np.ndarray | None":
        """Points as a validated ``(n, d)`` int64 array; ``None`` = fall back.

        Returns ``None`` when numpy is missing, the input is not a clean
        integer block, or the grid is too wide for int64 arithmetic — the
        pure-Python paths then either handle the input or raise the
        canonical validation error.  Out-of-range coordinates raise
        :class:`~repro.errors.ConfigError` exactly like the scalar checks.
        """
        if _np is None or len(points) == 0:
            return None
        if self.max_level > 62:
            # Shifted coordinates need max_level + 1 bits (see coord_bits)
            # and would overflow int64 before any per-level key check.
            return None
        try:
            raw = _np.asarray(points)
        except (ValueError, TypeError, OverflowError):
            return None  # ragged / non-numeric: pure path raises properly
        if raw.ndim != 2 or raw.shape[1] != self.dimension:
            return None  # per-point dimension errors come from the pure path
        if raw.dtype.kind not in "iu":
            return None  # floats / objects: let the pure path handle them
        array = raw.astype(_np.int64, copy=False)
        if ((array < 0) | (array >= self.delta)).any():
            bad = array[(array < 0) | (array >= self.delta)][0]
            raise ConfigError(
                f"coordinate {int(bad)} outside [0, {self.delta})"
            )
        return array

    def vector_key_pass(
        self, points: Sequence[Point], levels: Sequence[int] = ()
    ) -> "VectorKeyPass | None":
        """A reusable vectorized key pass over ``points``; ``None`` = fall back.

        The one rule for where packed keys come from: a pass when numpy is
        present, the points are a clean integer block and every key of
        ``levels`` fits 63 bits; otherwise the caller uses the pure
        :meth:`level_keys` / :meth:`keys_for` path.  The pass validates,
        shifts and sorts the points once; every later per-level request
        pays only the bit arithmetic, so Alice's encode and Bob's decode
        (which probes several levels of one multiset) each hold one pass.
        """
        if any(self.key_bits(level) > 63 for level in levels):
            return None
        array = self.vector_points(points)
        if array is None:
            return None
        shifted = array + _np.asarray(self.shift, dtype=_np.int64)
        order = _np.lexsort(shifted.T[::-1])  # first coordinate is primary
        return VectorKeyPass(self, shifted[order], order)

    def cell_ids(
        self, points: Sequence[Point], levels: Sequence[int]
    ) -> "dict[int, list[int] | _np.ndarray]":
        """Packed cell id (:meth:`cell_id`) per point, in input order, for
        every requested level.

        One validation + shift of the whole block when numpy can host it
        (the same width rule as :meth:`vector_key_pass`), then only
        per-level bit arithmetic, giving int64 arrays; otherwise
        :meth:`cell_id` per point, giving lists.
        """
        for level in levels:
            self._check_level(level)
        array = None
        if all(self.key_bits(level) <= 63 for level in levels):
            array = self.vector_points(points)
        if array is None:
            return {
                level: [self.cell_id(point, level) for point in points]
                for level in levels
            }
        shifted = array + _np.asarray(self.shift, dtype=_np.int64)
        return {
            level: pack_cells(shifted >> level, self.coord_bits(level))
            for level in levels
        }

    def _level_keys_vectorized(
        self, points: Sequence[Point], levels: Sequence[int]
    ) -> dict[int, list[int]] | None:
        """numpy fast path of :meth:`level_keys`; ``None`` means "fall back"."""
        key_pass = self.vector_key_pass(points, levels)
        if key_pass is None:
            return None
        return {level: key_pass.keys(level).tolist() for level in levels}

    def cell_diameter(self, level: int, metric: str = "l1") -> float:
        """Upper bound on the distance between two points in one cell."""
        self._check_level(level)
        side = float(1 << level)
        if metric == "l1":
            return side * self.dimension
        if metric == "linf":
            return side
        return side * (self.dimension ** 0.5)


def pack_cells(cells: "_np.ndarray", bits: int) -> "_np.ndarray":
    """Vectorized cell-id packing of an ``(n, d)`` block of cell indices
    (already shifted and floored to one level), ``bits`` per coordinate."""
    packed = cells[:, 0].copy()
    for column in range(1, cells.shape[1]):
        packed = (packed << bits) | cells[:, column]
    return packed


def occurrence_ranks(ids: "_np.ndarray") -> "_np.ndarray":
    """Per element, how many earlier elements (in array order) share its
    value — the occurrence rank, vectorized (int64)."""
    n = ids.shape[0]
    order = _np.argsort(ids, kind="stable")
    ordered = ids[order]
    starts = _np.flatnonzero(
        _np.concatenate(([True], ordered[1:] != ordered[:-1]))
    )
    sizes = _np.diff(_np.append(starts, n))
    ranks = _np.empty(n, dtype=_np.int64)
    ranks[order] = _np.arange(n, dtype=_np.int64) - _np.repeat(starts, sizes)
    return ranks


class VectorKeyPass:
    """One point multiset's vectorized key state, reusable across levels.

    Construction (via :meth:`ShiftedGridHierarchy.vector_key_pass` or a
    pre-sorted shifted block) pays the validation + shift + lexsort once;
    :meth:`keys` and :meth:`cell_keys` then cost only per-level bit
    arithmetic and grouping.  All outputs are int64 numpy arrays **in the
    pass's sorted (coordinate) order** — exactly the order
    :meth:`ShiftedGridHierarchy.bucket_points` sorts each bucket into, so
    occurrence ranks agree with the scalar paths key for key.
    """

    def __init__(self, grid: ShiftedGridHierarchy, sorted_shifted, order=None):
        if _np is None:  # pragma: no cover - callers gate on numpy
            raise ConfigError("VectorKeyPass requires numpy")
        self.grid = grid
        self._shifted = sorted_shifted  # (n, d) int64, lexsorted
        self._shift = _np.asarray(grid.shift, dtype=_np.int64)
        #: Permutation mapping sorted order back to the caller's original
        #: point order (``None`` when the caller supplied pre-sorted data).
        self.order = order
        self._keys: dict[int, "_np.ndarray"] = {}
        self._cell_keys: dict[int, "_np.ndarray"] = {}
        self._by_cell: dict[int, tuple["_np.ndarray", "_np.ndarray"]] = {}

    def __len__(self) -> int:
        return self._shifted.shape[0]

    def supports(self, level: int) -> bool:
        """True when this level's packed keys fit int64 arithmetic."""
        return self.grid.key_bits(level) <= 63

    def cell_keys(self, level: int) -> "_np.ndarray":
        """Packed cell id per point (sorted order), without occurrence bits."""
        cached = self._cell_keys.get(level)
        if cached is not None:
            return cached
        self.grid._check_level(level)
        cell_key = pack_cells(self._shifted >> level, self.grid.coord_bits(level))
        self._cell_keys[level] = cell_key
        return cell_key

    def cell_points(self, cell: Cell, level: int) -> Sequence[Point]:
        """One cell's points in sorted order, without bucketing every point.

        Reads as ``grid.bucket_points(points, level).get(cell, [])``: the
        level's cell ids are argsorted once (stably, so each cell's slice
        keeps the pass's coordinate order), then each cell costs a binary
        search and a slice.  Points become tuples only when read, since a
        coarse cell can hold most of the multiset and a repair plan reads
        only its top ranks.
        """
        grouped = self._by_cell.get(level)
        if grouped is None:
            cell_keys = self.cell_keys(level)
            by_cell = _np.argsort(cell_keys, kind="stable")
            grouped = self._by_cell[level] = (by_cell, cell_keys[by_cell])
        by_cell, sorted_cells = grouped
        packed = self.grid.pack_key(cell, 0, level) >> self.grid.occupancy_bits
        lo = int(_np.searchsorted(sorted_cells, packed, side="left"))
        hi = int(_np.searchsorted(sorted_cells, packed, side="right"))
        return _Rows(self._shifted[by_cell[lo:hi]] - self._shift)

    def keys(self, level: int) -> "_np.ndarray":
        """Packed ``(cell, occurrence-rank)`` keys per point (sorted order)."""
        cached = self._keys.get(level)
        if cached is not None:
            return cached
        if not self.supports(level):
            raise ConfigError(
                f"level {level} keys need {self.grid.key_bits(level)} bits; "
                "the vectorized pass handles at most 63"
            )
        cell_key = self.cell_keys(level)
        occ_bits = self.grid.occupancy_bits
        occ_limit = 1 << occ_bits
        # Occurrence rank = number of earlier points (in sorted order)
        # sharing the cell; equal cells need not be adjacent.
        ranks = occurrence_ranks(cell_key)
        if int(ranks.max()) >= occ_limit:
            raise CapacityExceeded(
                f"more than {occ_limit} points share a level-{level} "
                "cell; raise occupancy_bits"
            )
        keys = (cell_key << occ_bits) | ranks
        self._keys[level] = keys
        return keys


class _Rows(Sequence):
    """An ``(n, d)`` int64 block read as a sequence of point tuples."""

    __slots__ = ("_block",)

    def __init__(self, block: "_np.ndarray"):
        self._block = block

    def __len__(self) -> int:
        return self._block.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [tuple(row) for row in self._block[index].tolist()]
        return tuple(self._block[index].tolist())


class ScalarKeyPass:
    """Pure-Python stand-in for :class:`VectorKeyPass` where none is
    possible (no numpy, points that are not a clean integer block, or keys
    wider than 63 bits).

    Each level's keys are hashed once, on first use, and :meth:`cell_points`
    groups the points by those same keys, so Bob's level table and every
    repair plan at that level share one hashing.
    """

    def __init__(self, grid: ShiftedGridHierarchy, points: Sequence[Point]):
        self.grid = grid
        self.points = points
        self._sorted: list[Point] | None = None
        self._keys: dict[int, Iterable[int]] = {}
        self._by_cell: dict[int, dict[int, list[Point]]] = {}

    def keys(self, level: int) -> Iterable[int]:
        """Packed ``(cell, occurrence-rank)`` keys per point (sorted order)."""
        keys = self._keys.get(level)
        if keys is None:
            keys = self._keys[level] = self.grid.keys_for(self.points, level)
        return keys

    def cell_points(self, cell: Cell, level: int) -> list[Point]:
        """One cell's points in sorted order; equals
        ``grid.bucket_points(points, level).get(cell, [])``."""
        occ_bits = self.grid.occupancy_bits
        by_cell = self._by_cell.get(level)
        if by_cell is None:
            if self._sorted is None:
                # The keys follow the sorted shifted points, and a constant
                # shift keeps the lexicographic order.
                self._sorted = sorted(self.points)
            by_cell = self._by_cell[level] = {}
            for point, key in zip(self._sorted, self.keys(level)):
                by_cell.setdefault(key >> occ_bits, []).append(point)
        return by_cell.get(self.grid.pack_key(cell, 0, level) >> occ_bits, [])
