"""The Invertible Bloom Lookup Table (IBLT).

An IBLT with ``m`` cells and ``q`` hash functions stores a multiset of keys
such that, after *subtracting* another party's table built with the same
public coins, the symmetric difference of the two key sets can be recovered
by peeling (see :mod:`repro.iblt.decode`) whenever the difference is modestly
smaller than ``m``.

Cells hold three fields, exactly as in Goodrich & Mitzenmacher (2011) and the
Difference Digest of Eppstein et al. (2011):

``count``
    Signed number of keys hashed into the cell (insertions minus deletions).
``key_sum``
    XOR of all keys hashed into the cell (keys are ``key_bits``-wide ints).
``check_sum``
    XOR of a salted checksum of each key; guards peeling against cells whose
    ``count`` is ±1 only by coincidence.

Cell storage and mutation live in a pluggable backend (see
:mod:`repro.iblt.backends`): ``IBLT(config)`` uses the pure-Python reference,
``IBLT(config, backend="numpy")`` the vectorized engine, and
``backend="auto"`` the fastest available one.  All backends are
bit-compatible, so two parties may mix backends freely — the wire bytes and
decode results are identical.

The contract required by every caller in this library: **within one party's
table each key is inserted at most once.**  The robust protocol meets it with
occurrence-indexed cell keys; the exact baselines insert set elements.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError, SerializationError
from repro.iblt.backends import Backend, resolve_backend
from repro.iblt.hashing import HashFamily
from repro.net.bits import BitReader, BitWriter
from repro.net.codec import read_cells, write_cells

#: Asymptotic peeling thresholds for q-regular random hypergraphs: a table
#: with m cells decodes w.h.p. while the number of stored keys stays below
#: ``threshold(q) * m``.  (Molloy 2004 / Goodrich-Mitzenmacher 2011.)
PEELING_THRESHOLDS = {
    3: 0.818,
    4: 0.772,
    5: 0.701,
    6: 0.637,
}

#: Default safety factor applied below the asymptotic threshold; finite
#: tables need headroom (the threshold is sharp only as m -> infinity).
DEFAULT_SAFETY = 0.85


def recommended_cells(expected_diff: int, q: int = 4, safety: float = DEFAULT_SAFETY) -> int:
    """Cells needed to decode ``expected_diff`` keys w.h.p.

    Rounds up to a multiple of ``q`` (partitioned hashing) and never returns
    fewer than ``8 * q`` cells so tiny tables stay decodable.
    """
    if expected_diff < 0:
        raise ConfigError(f"expected_diff must be non-negative, got {expected_diff}")
    if q not in PEELING_THRESHOLDS:
        raise ConfigError(
            f"q must be one of {sorted(PEELING_THRESHOLDS)}, got {q}"
        )
    if not 0 < safety <= 1:
        raise ConfigError(f"safety must be in (0, 1], got {safety}")
    load = PEELING_THRESHOLDS[q] * safety
    cells = max(8 * q, int(expected_diff / load) + 1)
    return ((cells + q - 1) // q) * q


@dataclass(frozen=True)
class IBLTConfig:
    """Shared (public-coin) parameters of an IBLT.

    Both parties must construct their tables from an identical config; the
    config itself is never transmitted.  (The backend hosting the cells is a
    private, per-party choice — it does not affect the wire format and is
    deliberately not part of this config.)
    """

    cells: int
    q: int = 4
    key_bits: int = 64
    checksum_bits: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.q < 2:
            raise ConfigError(f"q must be >= 2, got {self.q}")
        if self.cells <= 0 or self.cells % self.q != 0:
            raise ConfigError(
                f"cells must be a positive multiple of q={self.q}, got {self.cells}"
            )
        if self.key_bits <= 0:
            raise ConfigError(f"key_bits must be positive, got {self.key_bits}")
        if not 1 <= self.checksum_bits <= 64:
            raise ConfigError(
                f"checksum_bits must be in [1, 64], got {self.checksum_bits}"
            )

    @property
    def capacity(self) -> int:
        """Nominal number of difference keys this table is sized to decode."""
        threshold = PEELING_THRESHOLDS.get(self.q, PEELING_THRESHOLDS[4])
        return int(self.cells * threshold * DEFAULT_SAFETY)

    def hash_family(self) -> HashFamily:
        """The cell-index hash family implied by this config."""
        return HashFamily(self.q, self.cells, self.seed)


def _materialize(keys):
    """Give backends a re-iterable, len-aware batch (generators included)."""
    if isinstance(keys, (list, tuple)) or hasattr(keys, "dtype"):
        return keys
    return list(keys)


class IBLT:
    """A mutable IBLT instance.

    Parameters
    ----------
    config:
        Shared parameters (see :class:`IBLTConfig`).
    backend:
        Cell-storage engine name (see :mod:`repro.iblt.backends`); ``None``
        means the pure-Python reference, ``"auto"`` the fastest available
        backend supporting this config.

    Notes
    -----
    ``subtract`` produces the Alice-minus-Bob table whose peeling yields the
    two-sided symmetric difference: keys with net count ``+1`` belong only to
    the minuend (Alice), ``-1`` only to the subtrahend (Bob).
    """

    __slots__ = ("config", "_hashes", "_backend")

    def __init__(self, config: IBLTConfig, backend: str | None = None):
        self.config = config
        self._hashes = config.hash_family()
        if backend is None:
            backend = "pure"
        self._backend = resolve_backend(backend, config)(config)

    @classmethod
    def _wrap(cls, config: IBLTConfig, backend: Backend) -> "IBLT":
        """Adopt an existing backend instance (internal fast path)."""
        table = cls.__new__(cls)
        table.config = config
        table._hashes = config.hash_family()
        table._backend = backend
        return table

    @property
    def hashes(self) -> HashFamily:
        """The cell-index hash family used by this table."""
        return self._hashes

    @property
    def backend_name(self) -> str:
        """Registry name of the cell-storage backend hosting this table."""
        return self._backend.name

    @property
    def counts(self):
        """Per-cell signed key counts (backend-native array or list)."""
        return self._backend.counts

    @property
    def key_sums(self):
        """Per-cell key XOR accumulators (backend-native array or list)."""
        return self._backend.key_sums

    @property
    def check_sums(self):
        """Per-cell checksum XOR accumulators (backend-native array or list)."""
        return self._backend.check_sums

    # --------------------------------------------------------------- updates

    def insert(self, key: int) -> None:
        """Add one key to the table."""
        self._backend.apply(key, +1)

    def delete(self, key: int) -> None:
        """Remove one key from the table (counts may go negative)."""
        self._backend.apply(key, -1)

    def insert_many(self, keys) -> None:
        """Insert a whole batch of keys (vectorized where the backend can).

        Accepts any iterable of non-negative ints (numpy arrays included);
        equivalent to — but on batch backends much faster than — calling
        :meth:`insert` per key.
        """
        self._backend.apply_batch(_materialize(keys), +1)

    def delete_many(self, keys) -> None:
        """Delete a whole batch of keys (see :meth:`insert_many`)."""
        self._backend.apply_batch(_materialize(keys), -1)

    def apply_many(self, keys, signs) -> None:
        """A signed batch: key ``keys[j]`` is inserted when ``signs[j]`` is
        ``+1`` and deleted when it is ``-1`` — one backend call."""
        keys = _materialize(keys)
        if len(signs) != len(keys):
            raise ConfigError(
                f"signed batch has {len(keys)} keys but {len(signs)} signs"
            )
        self._backend.apply_batch(keys, signs)

    def insert_all(self, keys) -> None:
        """Insert every key of an iterable (alias of :meth:`insert_many`)."""
        self.insert_many(keys)

    def delete_all(self, keys) -> None:
        """Delete every key of an iterable (alias of :meth:`delete_many`)."""
        self.delete_many(keys)

    # --------------------------------------------------------------- algebra

    def subtract(self, other: "IBLT") -> "IBLT":
        """Return a new table equal to ``self - other`` cell-wise.

        Both tables must share an identical config (same public coins); the
        backends may differ — ``other`` is converted to this table's backend
        first, and the result keeps this table's backend.
        """
        if self.config != other.config:
            raise ConfigError("cannot subtract IBLTs with different configs")
        other_backend = other._backend
        if type(other_backend) is not type(self._backend):
            converted = type(self._backend)(other.config)
            converted.load_rows(*other_backend.rows_arrays())
            other_backend = converted
        return IBLT._wrap(self.config, self._backend.subtract(other_backend))

    def is_empty(self) -> bool:
        """True when every cell is zero (sets were identical)."""
        return self._backend.is_empty()

    def nonzero_cells(self) -> int:
        """Number of cells with any nonzero field (decode-failure diagnostic)."""
        return self._backend.nonzero_cells()

    def cell(self, index: int) -> tuple[int, int, int]:
        """``(count, key_sum, check_sum)`` of one cell, as Python ints."""
        return self._backend.cell(index)

    def cell_is_pure(self, index: int) -> int:
        """Return ``+1``/``-1`` if cell ``index`` holds exactly one key from
        the corresponding side (checksum-verified), else ``0``."""
        return self._backend.cell_is_pure(index)

    def pure_cells(self) -> list[int]:
        """Indices of all currently pure cells, ascending."""
        return self._backend.pure_cells()

    def pure_mask(self):
        """Parallel ``(indices, signs)`` of all pure cells, index-ascending.

        Backend-native sequences (numpy arrays on the vector backend); the
        batch decoder's per-round scan.
        """
        return self._backend.pure_mask()

    def gather_cells(self, indices):
        """The ``key_sum`` field of each listed cell (backend-native)."""
        return self._backend.gather_cells(indices)

    def copy(self) -> "IBLT":
        """Deep copy (used by the decoder, which peels destructively)."""
        return IBLT._wrap(self.config, self._backend.copy())

    def rows_arrays(self):
        """The three parallel cell columns, backend-native (read-only)."""
        return self._backend.rows_arrays()

    # ------------------------------------------------------------------ wire

    def write_to(self, writer: BitWriter) -> None:
        """Serialise cell contents (the config travels via public coins).

        Routed through the shared wire codec (:mod:`repro.net.codec`):
        whole-table columnar packing when numpy is available, the scalar
        field-at-a-time reference otherwise — same bytes either way.
        """
        counts, key_sums, check_sums = self._backend.rows_arrays()
        write_cells(
            writer, counts, key_sums, check_sums,
            self.config.key_bits, self.config.checksum_bits,
        )

    def to_bytes(self) -> bytes:
        """Serialise to a standalone byte string."""
        writer = BitWriter()
        self.write_to(writer)
        return writer.getvalue()

    @classmethod
    def read_from(
        cls, reader: BitReader, config: IBLTConfig, backend: str | None = None
    ) -> "IBLT":
        """Deserialise a table previously written with :meth:`write_to`.

        The shared wire codec parses all cells in bulk (columnar unpack on
        numpy, scalar reference otherwise) and hands the columns straight
        to the backend's ``load_rows``.
        """
        counts, key_sums, check_sums = read_cells(
            reader, config.cells, config.key_bits, config.checksum_bits
        )
        return cls.from_columns(config, counts, key_sums, check_sums, backend)

    @classmethod
    def from_columns(
        cls, config: IBLTConfig, counts, key_sums, check_sums,
        backend: str | None = None,
    ) -> "IBLT":
        """A table holding the given cell columns (``config.cells`` each,
        as parsed by the wire codec) on the chosen backend."""
        table = cls(config, backend=backend)
        table._backend.load_rows(counts, key_sums, check_sums)
        return table

    @classmethod
    def from_bytes(
        cls, data: bytes, config: IBLTConfig, backend: str | None = None
    ) -> "IBLT":
        """Deserialise from a standalone byte string."""
        reader = BitReader(data)
        table = cls.read_from(reader, config, backend=backend)
        try:
            reader.expect_end()
        except SerializationError as exc:
            raise SerializationError(f"IBLT payload has trailing data: {exc}") from exc
        return table

    def serialized_bits(self) -> int:
        """Measured wire size in bits (varint counts make this data-dependent)."""
        writer = BitWriter()
        self.write_to(writer)
        return writer.bit_length
