"""Strata estimator for set-difference size (Eppstein et al., SIGCOMM 2011).

Exact-reconciliation protocols must size their IBLT to the (unknown)
difference ``|S_A △ S_B|``.  The strata estimator partitions the key space
into geometric strata — stratum ``i`` holds keys whose hashed value has
exactly ``i`` trailing zero bits, a ``2^-(i+1)`` fraction — and keeps a small
fixed-size IBLT per stratum.  Deep strata see few difference keys and decode;
scaling the decoded counts back up estimates the total.

The estimator is reused by the robust protocol's adaptive variant to pick the
finest decodable grid level before any full-size sketch is shipped.  That
variant compares one estimator per sampled level, so estimation is done as a
block: :class:`StrataBlock` holds the public-coin constants of a stack of
same-shape estimators (differing only in seeds) and estimates all of them
with one subtract and one round-synchronous peel over every stratum table
at once.  :meth:`StrataEstimator.estimate_difference` is the one-estimator
case of the same computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

try:  # soft dependency: the block estimate and bulk stratum assignment vectorize
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

from repro.errors import ConfigError, SerializationError
from repro.iblt.backends.vector import checksums_from_mix, scatter_keys
from repro.iblt.decode import decode
from repro.iblt.hashing import (
    TabulationHash,
    checksum_premix,
    splitmix64_many,
    trailing_zeros,
    trailing_zeros_many,
)
from repro.iblt.table import IBLT, IBLTConfig
from repro.net.bits import BitReader, BitWriter
from repro.net.codec import write_cells


@dataclass(frozen=True)
class StrataConfig:
    """Shared (public-coin) parameters of a strata estimator."""

    strata: int = 16
    cells_per_stratum: int = 40
    q: int = 4
    key_bits: int = 64
    checksum_bits: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strata < 2:
            raise ConfigError(f"need at least 2 strata, got {self.strata}")
        if self.cells_per_stratum < self.q:
            raise ConfigError(
                f"cells_per_stratum must be >= q, got {self.cells_per_stratum}"
            )

    def iblt_config(self, stratum: int) -> IBLTConfig:
        """Config of one stratum's table (each stratum gets its own salt)."""
        cells = ((self.cells_per_stratum + self.q - 1) // self.q) * self.q
        return IBLTConfig(
            cells=cells,
            q=self.q,
            key_bits=self.key_bits,
            checksum_bits=self.checksum_bits,
            seed=self.seed ^ (0x51A7A + stratum * 0x9E37),
        )


class StrataEstimator:
    """One party's strata sketch.

    Usage: each party builds an estimator over its keys with identical
    config, one ships ``to_bytes()``, the receiver calls
    :meth:`estimate_difference` against its own estimator.

    ``backend`` selects the cell-storage engine hosting the stratum
    tables (see :mod:`repro.iblt.backends`); like the IBLT's backend it
    is a private, per-party choice — all backends are bit-compatible, so
    the wire bytes and estimates are identical.
    """

    def __init__(self, config: StrataConfig, backend: str | None = None):
        self.config = config
        self._stratum_hash = TabulationHash(config.seed ^ 0x57A7A)
        self.tables = [
            IBLT(config.iblt_config(i), backend=backend)
            for i in range(config.strata)
        ]

    @classmethod
    def _shell(cls, config: StrataConfig) -> "StrataEstimator":
        """An estimator without its tables yet (deserialisation fast path:
        building ``strata`` fresh tables just to replace them is wasted
        allocation on the serve layer's per-connection hot path)."""
        estimator = cls.__new__(cls)
        estimator.config = config
        estimator._stratum_hash = TabulationHash(config.seed ^ 0x57A7A)
        return estimator

    def _stratum_of(self, key: int) -> int:
        return trailing_zeros(self._stratum_hash(key), self.config.strata - 1)

    def insert(self, key: int) -> None:
        """Add one key to its stratum's table."""
        self.tables[self._stratum_of(key)].insert(key)

    def insert_all(self, keys) -> None:
        """Add every key of an iterable.

        With numpy available the stratum assignment runs in bulk — one
        vectorized tabulation hash plus a trailing-zeros pass over the
        whole batch — and each stratum's table ingests its keys through
        the batch insert path.  The resulting tables are identical to the
        scalar reference path (:meth:`_insert_all_scalar`): assignment is
        the same per key, and cell updates commute.
        """
        if _np is None:
            self._insert_all_scalar(keys)
            return
        if not isinstance(keys, (list, tuple)) and not hasattr(keys, "dtype"):
            keys = list(keys)
        if len(keys) == 0:
            return
        try:
            if hasattr(keys, "dtype"):
                # Signed arrays with negatives (and non-integer dtypes)
                # would cast into uint64 silently; the scalar path rejects
                # them per key instead.
                if keys.dtype.kind not in "ui":
                    # repro-lint: waive[RPL003] reason=control flow; caught by the except arm below to route into the scalar path
                    raise TypeError
                if keys.dtype.kind == "i" and keys.size and keys.min() < 0:
                    # repro-lint: waive[RPL003] reason=control flow; caught by the except arm below to route into the scalar path
                    raise OverflowError
            elif min(keys) < 0:
                # NumPy 1.x silently wraps negative Python ints into uint64;
                # route negatives through the scalar path's per-key rejection.
                # repro-lint: waive[RPL003] reason=control flow; caught by the except arm below to route into the scalar path
                raise OverflowError
            arr = _np.asarray(keys, dtype=_np.uint64)
        except (OverflowError, TypeError, ValueError):
            # Keys wider than 64 bits (or exotic objects): the scalar path
            # folds / validates them per key.
            self._insert_all_scalar(keys)
            return
        strata = trailing_zeros_many(
            self._stratum_hash.hash_many(arr), self.config.strata - 1
        )
        for index in range(self.config.strata):
            selected = arr[strata == index]
            if selected.size:
                self.tables[index].insert_many(selected)

    def _insert_all_scalar(self, keys) -> None:
        """The per-key reference path (also the no-numpy fallback)."""
        if hasattr(keys, "tolist"):
            # Iterating an ndarray yields numpy scalars, which the per-key
            # validation rejects for the wrong reason (no ``bit_length``).
            keys = keys.tolist()
        for key in keys:
            self.insert(key)

    def estimate_difference(
        self, other: "StrataEstimator"
    ) -> int:
        """Estimate ``|self_keys △ other_keys|``.

        Scans from the deepest stratum towards stratum 0, accumulating the
        decoded difference of every stratum that peels; on the first stratum
        ``i`` that fails, returns ``2^(i+1) × accumulated``.  If every
        stratum decodes the exact total is returned.

        The one-estimator case of :meth:`StrataBlock.estimate`, so it runs
        the same block subtract and peel as the adaptive variant's
        per-level estimates.

        The estimate is intentionally conservative-ish; callers typically
        multiply by a small headroom factor before sizing an IBLT.
        """
        if self.config != other.config:
            raise ConfigError("strata estimators built with different configs")
        (estimate,) = StrataBlock((self.config,)).estimate(
            self.cell_columns(), other.cell_columns(),
            backend=self.tables[0].backend_name,
        )
        return estimate

    def cell_columns(self):
        """Every stratum table's cells as three columns, stratum-major —
        the order :meth:`write_to` serialises them in."""
        return stack_columns([table.rows_arrays() for table in self.tables])

    # ------------------------------------------------------------------ wire

    def write_to(self, writer: BitWriter) -> None:
        """Serialise every stratum's table (the v1 cell layout has no
        per-table header, so the whole stack is one codec call)."""
        write_cells(
            writer, *self.cell_columns(),
            self.config.key_bits, self.config.checksum_bits,
        )

    def to_bytes(self) -> bytes:
        """Serialise to a standalone byte string."""
        writer = BitWriter()
        self.write_to(writer)
        return writer.getvalue()

    @classmethod
    def read_from(
        cls,
        reader: BitReader,
        config: StrataConfig,
        backend: str | None = None,
    ) -> "StrataEstimator":
        """Deserialise an estimator written with :meth:`write_to`."""
        estimator = cls._shell(config)
        estimator.tables = [
            IBLT.read_from(reader, config.iblt_config(i), backend=backend)
            for i in range(config.strata)
        ]
        return estimator

    @classmethod
    def from_bytes(
        cls,
        data: bytes,
        config: StrataConfig,
        backend: str | None = None,
    ) -> "StrataEstimator":
        """Deserialise from a standalone byte string."""
        reader = BitReader(data)
        estimator = cls.read_from(reader, config, backend=backend)
        try:
            reader.expect_end()
        except SerializationError as exc:
            raise SerializationError(
                f"strata payload has trailing data: {exc}"
            ) from exc
        return estimator

    def serialized_bits(self) -> int:
        """Measured wire size in bits."""
        writer = BitWriter()
        self.write_to(writer)
        return writer.bit_length


def stack_columns(parts):
    """Concatenate ``(counts, key_sums, check_sums)`` column triples end to
    end: numpy arrays when the parts are arrays, lists otherwise."""
    if _np is not None and all(
        isinstance(column, _np.ndarray) for part in parts for column in part
    ):
        return tuple(
            _np.concatenate([part[field] for part in parts]) for field in range(3)
        )
    return tuple(
        [value for part in parts for value in part[field]] for field in range(3)
    )


def _native_columns(columns, key_bits: int):
    """The columns as (int64, uint64, uint64) arrays the block peel may
    use, or ``None``: values outside native widths, counts large enough
    that a subtraction could wrap, or keys wider than ``key_bits`` (the
    per-table reference rejects those when it peels them)."""
    counts, key_sums, check_sums = columns
    try:
        for column in columns:
            if isinstance(column, _np.ndarray) and column.dtype.kind not in "iu":
                return None
        counts = _np.asarray(counts, dtype=_np.int64)
        key_sums = _np.asarray(key_sums, dtype=_np.uint64)
        check_sums = _np.asarray(check_sums, dtype=_np.uint64)
    except (OverflowError, TypeError, ValueError):
        return None
    if counts.size and bool((_np.abs(counts) >= 2**62).any()):
        return None
    if key_bits < 64 and bool((key_sums >> _np.uint64(key_bits)).any()):
        return None
    return counts, key_sums, check_sums


class StrataBlock:
    """Public-coin constants of a stack of same-shape strata estimators.

    The estimators share strata, cells, ``q`` and field widths and differ
    only in seeds (the adaptive variant keeps one per sampled grid level).
    Their ``E × strata`` tables are laid end to end in one cell space —
    estimator-major, then stratum, then cell index — which is exactly the
    concatenation of each estimator's :meth:`StrataEstimator.write_to`
    bytes, so a whole stack parses with one
    :func:`~repro.net.codec.read_cells` call.

    :meth:`estimate` subtracts two such stacks once and peels every table
    in lockstep: each round is one pure-cell scan over all live cells, one
    per-table dedup and guard, and one scatter of the extracted keys into
    their own tables' cells.  Per table it recovers exactly what
    :func:`~repro.iblt.decode.decode` does under the batch strategy, so the
    estimates equal the per-table reference; without numpy (or for values
    outside native widths) that reference — one ``subtract`` and one
    ``decode`` per table — is what runs.
    """

    def __init__(self, configs: Sequence[StrataConfig]):
        configs = tuple(configs)
        if not configs:
            raise ConfigError("a strata block needs at least one estimator")
        shape = _shape(configs[0])
        if any(_shape(config) != shape for config in configs[1:]):
            raise ConfigError(
                "block estimators must share strata, cells, q and widths"
            )
        self.configs = configs
        self.strata = configs[0].strata
        self.table_configs = tuple(
            config.iblt_config(stratum)
            for config in configs
            for stratum in range(config.strata)
        )
        table = self.table_configs[0]
        self.table_cells = table.cells
        self.total_cells = len(self.table_configs) * table.cells
        self._capacity = table.capacity
        self._vector = _np is not None and table.key_bits <= 64
        if self._vector:
            tables = len(self.table_configs)
            self._salts = _np.array(
                [config.hash_family().premixed_salts
                 for config in self.table_configs],
                dtype=_np.uint64,
            )
            self._premix = _np.array(
                [checksum_premix(config.seed) for config in self.table_configs],
                dtype=_np.uint64,
            )
            self._mask = _np.uint64((1 << table.checksum_bits) - 1)
            self._cell_table = _np.repeat(
                _np.arange(tables, dtype=_np.intp), table.cells
            )
            self._cell_premix = self._premix[self._cell_table]

    def estimate(self, minuend, subtrahend, backend: str | None = None) -> list[int]:
        """Per-estimator difference estimates of ``minuend − subtrahend``.

        Both arguments are ``(counts, key_sums, check_sums)`` columns over
        the block's whole cell space (arrays or lists).  Each estimator's
        strata are scanned from the deepest: decoded differences
        accumulate until the first stratum ``i`` that fails, which returns
        ``2^(i+1) × accumulated`` (the table capacity stands in when even
        the deepest stratum fails).  ``backend`` hosts the per-table
        reference tables when the block peel cannot run.
        """
        for columns in (minuend, subtrahend):
            if any(len(column) != self.total_cells for column in columns):
                raise ConfigError(
                    f"a strata block of {len(self.table_configs)} tables "
                    f"needs {self.total_cells} cells per column"
                )
        difference = None
        if self._vector:
            mine = _native_columns(minuend, self.table_configs[0].key_bits)
            theirs = _native_columns(subtrahend, self.table_configs[0].key_bits)
            if mine is not None and theirs is not None:
                difference = (
                    mine[0] - theirs[0], mine[1] ^ theirs[1], mine[2] ^ theirs[2]
                )
        if difference is None:
            outcome = self._table_outcomes(minuend, subtrahend, backend)
        else:
            outcome = self._block_outcomes(difference)
        return [
            self._scan(outcome, estimator * self.strata)
            for estimator in range(len(self.configs))
        ]

    def _scan(self, outcome, first: int) -> int:
        """One estimator's strata scan over per-table ``(success, size)``."""
        accumulated = 0
        for stratum in range(self.strata - 1, -1, -1):
            success, size = outcome(first + stratum)
            if not success:
                if accumulated == 0:
                    # The deepest strata already overflowed: the difference
                    # is at least the failed table's capacity at this
                    # stratum's sampling rate.  Overestimating is the safe
                    # direction (callers only use the estimate to size
                    # sketches / pick coarser levels).
                    accumulated = max(1, self._capacity)
                return max(1, (2 ** (stratum + 1)) * accumulated)
            accumulated += size
        return accumulated

    def _block_outcomes(self, cells):
        """Peel every table of the subtracted block in lockstep.

        Per table this is :meth:`~repro.iblt.decode.PeelState._peel_batch`:
        each round extracts every verified pure cell's key (index order,
        a key pure in two of its cells once), stops a table whose
        extractions would pass ``2 × cells`` mid-round, and removes the
        keys from their cells.  Keys are deduplicated per table only —
        the same key pure in two tables is two extractions.
        """
        counts, key_sums, check_sums = cells
        tables = len(self.table_configs)
        width = self.table_cells
        partition = width // self.table_configs[0].q
        limit = 2 * width
        cell_table = self._cell_table
        extracted = _np.zeros(tables, dtype=_np.int64)
        failed = _np.zeros(tables, dtype=bool)
        while True:
            candidates = _np.flatnonzero(_np.abs(counts) == 1)
            if failed.any():
                candidates = candidates[~failed[cell_table[candidates]]]
            keys = key_sums[candidates]
            pure = check_sums[candidates] == checksums_from_mix(
                splitmix64_many(keys), self._cell_premix[candidates], self._mask
            )
            if not pure.any():
                break
            candidates, keys = candidates[pure], keys[pure]
            owner = cell_table[candidates]
            # A stable sort by (table, key) puts each repeat right after
            # its first occurrence.
            order = _np.lexsort((keys, owner))
            sorted_keys, sorted_owner = keys[order], owner[order]
            repeat = (sorted_keys[1:] == sorted_keys[:-1]) & (
                sorted_owner[1:] == sorted_owner[:-1]
            )
            if repeat.any():
                keep = _np.ones(keys.size, dtype=bool)
                keep[order[1:][repeat]] = False
                candidates, keys, owner = candidates[keep], keys[keep], owner[keep]
            found = _np.bincount(owner, minlength=tables)
            over = found > limit - extracted
            if over.any():
                # The guard trips mid-round: the table fails and its
                # leftover cells no longer matter.
                failed |= over
                live = ~over[owner]
                candidates, keys, owner = candidates[live], keys[live], owner[live]
                found[over] = 0
            extracted += found
            if keys.size:
                scatter_keys(
                    cells, keys, -counts[candidates], self._salts[owner],
                    self._premix[owner], self._mask, partition, owner * width,
                )
        nonempty = ((counts != 0) | (key_sums != 0) | (check_sums != 0)).reshape(
            tables, width
        ).any(axis=1)
        success = (~failed & ~nonempty).tolist()
        sizes = extracted.tolist()
        return lambda table: (success[table], sizes[table])

    def _table_outcomes(self, minuend, subtrahend, backend):
        """The per-table reference: every table is built (as a wire parse
        would), then decoded on demand by the scan."""
        mine = self._tables(minuend, backend)
        theirs = self._tables(subtrahend, backend)

        def outcome(table: int):
            result = decode(mine[table].subtract(theirs[table]))
            return result.success, result.difference_size

        return outcome

    def _tables(self, columns, backend):
        width = self.table_cells
        return [
            IBLT.from_columns(
                config,
                *(column[index * width:(index + 1) * width] for column in columns),
                backend=backend,
            )
            for index, config in enumerate(self.table_configs)
        ]


def _shape(config: StrataConfig) -> tuple:
    return (
        config.strata, config.cells_per_stratum, config.q,
        config.key_bits, config.checksum_bits,
    )
