"""Strata estimator for set-difference size (Eppstein et al., SIGCOMM 2011).

Exact-reconciliation protocols must size their IBLT to the (unknown)
difference ``|S_A △ S_B|``.  The strata estimator partitions the key space
into geometric strata — stratum ``i`` holds keys whose hashed value has
exactly ``i`` trailing zero bits, a ``2^-(i+1)`` fraction — and keeps a small
fixed-size IBLT per stratum.  Deep strata see few difference keys and decode;
scaling the decoded counts back up estimates the total.

The estimator is reused by the robust protocol's adaptive variant to pick the
finest decodable grid level before any full-size sketch is shipped.
"""

from __future__ import annotations

from dataclasses import dataclass

try:  # soft dependency: bulk stratum assignment vectorizes, the rest never needs it
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

from repro.errors import ConfigError, SerializationError
from repro.iblt.decode import decode
from repro.iblt.hashing import TabulationHash, trailing_zeros, trailing_zeros_many
from repro.iblt.table import IBLT, IBLTConfig
from repro.net.bits import BitReader, BitWriter


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

        The estimate is intentionally conservative-ish; callers typically
        multiply by a small headroom factor before sizing an IBLT.
        """
        if self.config != other.config:
            raise ConfigError("strata estimators built with different configs")
        accumulated = 0
        for i in range(self.config.strata - 1, -1, -1):
            diff = self.tables[i].subtract(other.tables[i])
            result = decode(diff)
            if not result.success:
                if accumulated == 0:
                    # The deepest strata already overflowed: the difference
                    # is at least the failed table's capacity at this
                    # stratum's sampling rate.  Overestimating is the safe
                    # direction (callers only use the estimate to size
                    # sketches / pick coarser levels).
                    accumulated = max(1, self.tables[i].config.capacity)
                return max(1, (2 ** (i + 1)) * accumulated)
            accumulated += result.difference_size
        return accumulated

    # ------------------------------------------------------------------ wire

    def write_to(self, writer: BitWriter) -> None:
        """Serialise every stratum's table."""
        for table in self.tables:
            table.write_to(writer)

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
