"""The backend contract: storage + mutation engine behind an IBLT.

A backend owns the three cell arrays (``count`` / ``keySum`` / ``checkSum``)
and performs every mutation over them; the :class:`~repro.iblt.table.IBLT`
facade keeps the wire format and the protocol-facing API.  Splitting the two
lets a vectorized (or, later, multi-process / native) engine slot in under
the protocol without touching any caller.

Every backend must be **bit-compatible**: for any sequence of operations the
produced cell contents — and therefore the serialized bytes and every decode
outcome — must be identical across backends.  The reference semantics are
those of :class:`~repro.iblt.backends.pure.PureBackend`;
``tests/test_backend_differential.py`` enforces the equivalence.
"""

from __future__ import annotations

import abc
from typing import Any, ClassVar, Iterator, Sequence

from repro.errors import ConfigError
from repro.iblt.hashing import checksum_premix, splitmix64


class Backend(abc.ABC):
    """Cell storage and mutation engine for one IBLT instance.

    Parameters
    ----------
    config:
        The table's :class:`~repro.iblt.table.IBLTConfig`; backends derive
        their hash constants from it exactly as the reference does, so cell
        placement and checksums agree bit-for-bit.
    """

    #: Registry key; subclasses must override (e.g. ``"pure"``, ``"numpy"``).
    name: ClassVar[str]

    #: The three cell columns.  Storage is subclass-owned (lists on the pure
    #: backend, ndarrays on the vectorized one); the IBLT facade exposes
    #: them under the same names.
    counts: Any
    key_sums: Any
    check_sums: Any

    def __init__(self, config):
        self.config = config
        # Shared-mix checksum constants (same values checksum64 computes).
        self._check_premix = checksum_premix(config.seed)
        self._check_mask = (1 << config.checksum_bits) - 1

    # ------------------------------------------------------------ capability

    @classmethod
    def available(cls) -> bool:
        """True when this backend's dependencies are importable."""
        return True

    @classmethod
    def supports(cls, config) -> bool:
        """True when this backend can host tables of this shape.

        ``resolve_backend("auto", ...)`` skips backends whose ``supports``
        returns False (e.g. the numpy backend with keys wider than 64 bits).
        """
        return True

    # ------------------------------------------------------------- mutation

    @abc.abstractmethod
    def apply(self, key: int, delta: int) -> None:
        """Insert (``delta=+1``) or delete (``-1``) a single key."""

    @abc.abstractmethod
    def apply_batch(self, keys: Sequence[int], delta: "int | Sequence[int]") -> None:
        """Insert or delete a whole batch of keys.

        ``delta`` is one count delta for every key, or a per-key sequence
        parallel to ``keys`` (a signed batch: ``+1`` inserts, ``-1``
        deletes).  Must be equivalent to ``for key, d in zip(keys,
        deltas): self.apply(key, d)`` (duplicates included); batches may
        be empty or larger than the table.  Keys are validated exactly
        like single-key updates.
        """

    @abc.abstractmethod
    def subtract(self, other: "Backend") -> "Backend":
        """Cell-wise ``self - other`` into a fresh backend of this class.

        ``other`` is guaranteed to be the same class with an equal config
        (the IBLT facade converts foreign backends first).
        """

    @abc.abstractmethod
    def copy(self) -> "Backend":
        """Deep copy (the decoder peels destructively)."""

    @abc.abstractmethod
    def load_rows(
        self,
        counts: Sequence[int],
        key_sums: Sequence[int],
        check_sums: Sequence[int],
    ) -> None:
        """Overwrite all cells from parallel sequences (deserialisation)."""

    # -------------------------------------------------------------- reading

    @abc.abstractmethod
    def cell(self, index: int) -> tuple[int, int, int]:
        """``(count, key_sum, check_sum)`` of one cell, as Python ints."""

    @abc.abstractmethod
    def rows(self) -> Iterator[tuple[int, int, int]]:
        """All cells in index order, as Python-int triples (serialisation)."""

    def rows_arrays(self) -> tuple[Sequence[int], Sequence[int], Sequence[int]]:
        """All cells as three parallel columns (counts, key_sums, check_sums).

        The wire codec's bulk read side: array backends return their native
        column arrays so a whole table serialises without a per-cell Python
        round-trip.  The returned sequences are backend-owned — callers must
        treat them as read-only.  This reference implementation derives the
        columns from :meth:`rows`, so third-party backends stay correct
        (if slow) without overriding.
        """
        counts: list[int] = []
        key_sums: list[int] = []
        check_sums: list[int] = []
        for count, key, check in self.rows():
            counts.append(count)
            key_sums.append(key)
            check_sums.append(check)
        return counts, key_sums, check_sums

    @abc.abstractmethod
    def is_empty(self) -> bool:
        """True when every cell is zero."""

    @abc.abstractmethod
    def nonzero_cells(self) -> int:
        """Number of cells with any nonzero field."""

    # ------------------------------------------------------------- peeling

    def cell_is_pure(self, index: int) -> int:
        """``+1``/``-1`` if the cell holds exactly one checksum-verified key
        from the corresponding side, else ``0``."""
        count, key, check = self.cell(index)
        if count not in (1, -1):
            return 0
        expected = splitmix64(self._check_premix ^ splitmix64(key)) & self._check_mask
        return count if check == expected else 0

    def pure_cells(self) -> list[int]:
        """Indices of all pure cells, ascending (the decoder's seed stack).

        Backends may override with a batch scan; the result order is part
        of the contract (it fixes the peel order across backends).
        """
        return [int(index) for index in self.pure_mask()[0]]

    # ------------------------------------------------------- batch peeling
    #
    # The round-based decoder (see :mod:`repro.iblt.decode`) scans with
    # these two bulk primitives and removes each round's keys with one
    # signed :meth:`apply_batch`, so array backends do whole rounds without
    # a per-key Python round-trip.  The reference implementations below are
    # defined in terms of the scalar operations, so any backend gets a
    # correct (if slow) batch decode for free; the returned sequence types
    # are backend-native (lists here, arrays on vector backends).

    def pure_mask(self) -> tuple[Sequence[int], Sequence[int]]:
        """Parallel ``(indices, signs)`` of every pure cell, index-ascending.

        ``signs[j]`` is the ``cell_is_pure`` verdict (``+1``/``-1``) of cell
        ``indices[j]``.  The ascending order is part of the contract: it
        fixes the batch decoder's round-major peel order across backends.
        """
        indices: list[int] = []
        signs: list[int] = []
        for index in range(self.config.cells):
            sign = self.cell_is_pure(index)
            if sign:
                indices.append(index)
                signs.append(sign)
        return indices, signs

    def gather_cells(self, indices: Sequence[int]) -> Sequence[int]:
        """The ``key_sum`` field of each listed cell, in the given order."""
        return [self.cell(int(index))[1] for index in indices]

    # ----------------------------------------------------------- validation

    def _check_key(self, key: int) -> None:
        """Reject negative or over-wide keys with the reference messages.

        Raises :class:`~repro.errors.ConfigError`, which subclasses
        ``ValueError`` so pre-existing callers catching ``ValueError``
        keep working.
        """
        if key < 0:
            raise ConfigError(f"keys must be non-negative, got {key}")
        if key.bit_length() > self.config.key_bits:
            raise ConfigError(
                f"key {key} exceeds configured key width "
                f"({key.bit_length()} > {self.config.key_bits} bits)"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(cells={self.config.cells})"
