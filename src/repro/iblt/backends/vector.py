"""The numpy-vectorized backend: batch cell mutation over uint64 arrays.

Cells live in three contiguous arrays (``int64`` counts, ``uint64`` key and
checksum XOR accumulators).  Batch updates hash the whole key vector through
a vectorized splitmix64 and scatter with unbuffered ufuncs (``np.add.at`` /
``np.bitwise_xor.at``), so duplicate cell indices within one batch accumulate
exactly like sequential single-key updates.

The backend is bit-compatible with :class:`~repro.iblt.backends.pure.
PureBackend` — same cell placement, same checksums, same serialized bytes —
but only for keys at most 64 bits wide (``supports`` reports this, and
``"auto"`` resolution falls back to the pure backend for wider keys).

numpy is an optional dependency: importing this module without numpy
installed works, constructing the backend does not.
"""

from __future__ import annotations

from typing import Iterator, Sequence

try:  # soft dependency: the library must import (and run) without numpy
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

from repro.errors import ConfigError
from repro.iblt.backends.base import Backend
from repro.iblt.hashing import splitmix64, splitmix64_many

if _np is not None:
    _U64 = _np.uint64


def checksums_from_mix(key_mix, premix, mask) -> "_np.ndarray":
    """Cell checksums of keys given ``splitmix64(key)`` per key.

    ``premix`` is one table's :func:`~repro.iblt.hashing.checksum_premix`
    (a uint64 scalar) or a per-key array of them; ``mask`` is the
    checksum-width mask.  The sole vectorized home of the checksum formula.
    """
    return splitmix64_many(premix ^ key_mix) & mask


def scatter_keys(cells, keys, deltas, salts, check_premix, check_mask,
                 partition: int, offsets=0) -> None:
    """Scatter count deltas and key/checksum XORs into every key's cells.

    ``cells`` is the ``(counts, key_sums, check_sums)`` column triple
    (int64 / uint64 / uint64 arrays), updated in place.  ``deltas`` is a
    scalar or a per-key int64 array.  ``salts`` holds the premixed
    cell-index salts (:attr:`~repro.iblt.hashing.HashFamily.premixed_salts`):
    one ``(q,)`` row shared by every key, or an ``(n, q)`` block giving each
    key its own table's row.  ``check_premix`` is likewise a scalar or per
    key, and ``offsets`` the first cell of each key's table (``0`` for a
    single table) — so one call can update a stack of equally sized tables
    laid end to end.  The sole home of the vectorized cell placement: it
    mirrors :meth:`~repro.iblt.hashing.HashFamily.indices_from_mix` exactly.
    """
    counts, key_sums, check_sums = cells
    key_mix = splitmix64_many(keys)
    checks = checksums_from_mix(key_mix, check_premix, check_mask)
    divisor = _U64(partition)
    for i in range(salts.shape[-1]):
        indices = (
            (splitmix64_many(salts[..., i] ^ key_mix) % divisor)
            .astype(_np.intp)
        )
        indices += offsets + i * partition
        # Unbuffered scatter: duplicate indices accumulate sequentially.
        _np.add.at(counts, indices, deltas)
        _np.bitwise_xor.at(key_sums, indices, keys)
        _np.bitwise_xor.at(check_sums, indices, checks)


class NumpyBackend(Backend):
    """Contiguous-array cell engine with vectorized batch updates."""

    name = "numpy"

    def __init__(self, config):
        if _np is None:
            raise ConfigError(
                "the 'numpy' IBLT backend requires numpy, which is not "
                "installed; use backend='pure' (or 'auto')"
            )
        if config.key_bits > 64:
            raise ConfigError(
                f"the 'numpy' IBLT backend stores keys in uint64 cells and "
                f"cannot host key_bits={config.key_bits}; use backend='pure' "
                "(or 'auto')"
            )
        super().__init__(config)
        self.counts = _np.zeros(config.cells, dtype=_np.int64)
        self.key_sums = _np.zeros(config.cells, dtype=_U64)
        self.check_sums = _np.zeros(config.cells, dtype=_U64)
        family = config.hash_family()
        self._partition = config.cells // config.q
        self._premixed = family.premixed_salts  # python ints (scalar path)
        self._premixed_vec = _np.array(family.premixed_salts, dtype=_U64)
        self._premix_u64 = _U64(self._check_premix)
        self._mask_u64 = _U64(self._check_mask)

    @classmethod
    def available(cls) -> bool:
        return _np is not None

    @classmethod
    def supports(cls, config) -> bool:
        return cls.available() and config.key_bits <= 64

    # ----------------------------------------------------------- key intake

    def _as_key_array(self, keys) -> "_np.ndarray":
        """Validate a batch and return it as a uint64 array.

        Rejections raise the same ``ValueError`` as the reference backend's
        per-key check.
        """
        if isinstance(keys, _np.ndarray):
            if keys.dtype.kind not in "ui":
                raise ConfigError(
                    f"keys must be an integer array, got dtype {keys.dtype}"
                )
            if keys.dtype.kind == "i" and keys.size and keys.min() < 0:
                self._check_key(int(keys.min()))  # raises "non-negative"
            arr = keys.astype(_U64, copy=False)
        else:
            # Check negatives up front: NumPy 1.x silently wraps negative
            # Python ints into uint64 instead of raising like 2.x does.
            if len(keys) and min(keys) < 0:
                self._check_key(int(min(keys)))  # raises "non-negative"
            try:
                arr = _np.asarray(keys, dtype=_U64)
            except (OverflowError, ValueError, TypeError):
                # A key did not fit uint64 (negative or >= 2^64); re-run the
                # reference validation to raise the exact per-key error.
                for key in keys:
                    self._check_key(int(key))
                raise  # pragma: no cover - the loop above must have raised
        key_bits = self.config.key_bits
        if key_bits < 64 and arr.size:
            oversized = arr >> _U64(key_bits)
            if oversized.any():
                self._check_key(int(arr[oversized != 0][0]))  # raises "width"
        return arr

    # ------------------------------------------------------------- mutation

    def apply(self, key: int, delta: int) -> None:
        # Scalar path (peeling, incremental updates): plain-int hashing is
        # faster than spinning up array machinery for one key.
        self._check_key(key)
        key_mix = splitmix64(key)
        check = splitmix64(self._check_premix ^ key_mix) & self._check_mask
        partition = self._partition
        counts, key_sums, check_sums = self.counts, self.key_sums, self.check_sums
        key_u64, check_u64 = _U64(key), _U64(check)
        for i, premixed in enumerate(self._premixed):
            index = i * partition + splitmix64(premixed ^ key_mix) % partition
            counts[index] += delta
            key_sums[index] ^= key_u64
            check_sums[index] ^= check_u64

    def apply_batch(self, keys: Sequence[int], delta) -> None:
        arr = self._as_key_array(keys)
        if arr.size == 0:
            return
        self._scatter(arr, _np.asarray(delta, dtype=_np.int64))

    def _scatter(self, arr: "_np.ndarray", deltas) -> None:
        """One table's :func:`scatter_keys` (every key shares its salts)."""
        scatter_keys(
            (self.counts, self.key_sums, self.check_sums), arr, deltas,
            self._premixed_vec, self._premix_u64, self._mask_u64,
            self._partition,
        )

    def subtract(self, other: "NumpyBackend") -> "NumpyBackend":
        result = NumpyBackend(self.config)
        _np.subtract(self.counts, other.counts, out=result.counts)
        _np.bitwise_xor(self.key_sums, other.key_sums, out=result.key_sums)
        _np.bitwise_xor(self.check_sums, other.check_sums, out=result.check_sums)
        return result

    def copy(self) -> "NumpyBackend":
        clone = NumpyBackend(self.config)
        clone.counts = self.counts.copy()
        clone.key_sums = self.key_sums.copy()
        clone.check_sums = self.check_sums.copy()
        return clone

    def load_rows(self, counts, key_sums, check_sums) -> None:
        if isinstance(counts, _np.ndarray):
            # Bulk path (the wire codec hands over whole arrays).
            self.counts = counts.astype(_np.int64, copy=True)
            self.key_sums = key_sums.astype(_U64, copy=True)
            self.check_sums = check_sums.astype(_U64, copy=True)
            return
        try:
            # One C-level conversion per column; uint64 holds keys and
            # checksums up to 2^64 - 1 (>= 2^63 included) directly.
            self.counts = _np.asarray(counts, dtype=_np.int64)
            self.key_sums = _np.asarray(key_sums, dtype=_U64)
            self.check_sums = _np.asarray(check_sums, dtype=_U64)
        except (OverflowError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"cell rows do not fit the numpy backend's native widths "
                f"(int64 counts, uint64 sums): {exc}"
            ) from exc

    # -------------------------------------------------------------- reading

    def cell(self, index: int) -> tuple[int, int, int]:
        return (
            int(self.counts[index]),
            int(self.key_sums[index]),
            int(self.check_sums[index]),
        )

    def rows(self) -> Iterator[tuple[int, int, int]]:
        return zip(
            self.counts.tolist(), self.key_sums.tolist(), self.check_sums.tolist()
        )

    def rows_arrays(self):
        # The live cell arrays (read-only by contract; no copies).
        return self.counts, self.key_sums, self.check_sums

    def is_empty(self) -> bool:
        return not (
            self.counts.any() or self.key_sums.any() or self.check_sums.any()
        )

    def nonzero_cells(self) -> int:
        return int(
            ((self.counts != 0) | (self.key_sums != 0) | (self.check_sums != 0)).sum()
        )

    # ------------------------------------------------------------- peeling

    def pure_cells(self) -> list[int]:
        return self.pure_mask()[0].tolist()

    def pure_mask(self):
        """Vectorized pure-cell scan: one sign test + one checksum pass."""
        candidates = _np.flatnonzero(_np.abs(self.counts) == 1)
        keys = self.key_sums[candidates]
        expected = checksums_from_mix(
            splitmix64_many(keys), self._premix_u64, self._mask_u64
        )
        verified = candidates[self.check_sums[candidates] == expected]
        return verified, self.counts[verified]

    def gather_cells(self, indices):
        return self.key_sums[indices]
