"""The pure-Python reference backend.

This is the original list-based cell engine extracted verbatim from
``repro.iblt.table``; it has no dependencies and defines the semantics every
other backend must reproduce bit-for-bit.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator, Sequence

from repro.iblt.backends.base import Backend
from repro.iblt.hashing import splitmix64


class PureBackend(Backend):
    """List-of-int cell arrays mutated one key at a time."""

    name = "pure"

    def __init__(self, config):
        super().__init__(config)
        self._hashes = config.hash_family()
        self.counts = [0] * config.cells
        self.key_sums = [0] * config.cells
        self.check_sums = [0] * config.cells

    # ------------------------------------------------------------- mutation

    def apply(self, key: int, delta: int) -> None:
        self._check_key(key)
        key_mix = splitmix64(key)
        check = splitmix64(self._check_premix ^ key_mix) & self._check_mask
        counts, key_sums, check_sums = self.counts, self.key_sums, self.check_sums
        for index in self._hashes.indices_from_mix(key_mix):
            counts[index] += delta
            key_sums[index] ^= key
            check_sums[index] ^= check

    def apply_batch(self, keys: Sequence[int], delta) -> None:
        if hasattr(keys, "tolist"):
            # numpy batches (e.g. the strata estimator's bulk stratum
            # grouping): numpy integer scalars lack ``bit_length``, so run
            # the reference loop over Python ints.
            keys = keys.tolist()
        if hasattr(delta, "tolist"):
            delta = delta.tolist()
        deltas = repeat(delta) if isinstance(delta, int) else delta
        for key, key_delta in zip(keys, deltas):
            self.apply(key, key_delta)

    def subtract(self, other: "PureBackend") -> "PureBackend":
        result = PureBackend(self.config)
        result.counts = [a - b for a, b in zip(self.counts, other.counts)]
        result.key_sums = [a ^ b for a, b in zip(self.key_sums, other.key_sums)]
        result.check_sums = [a ^ b for a, b in zip(self.check_sums, other.check_sums)]
        return result

    def copy(self) -> "PureBackend":
        clone = PureBackend(self.config)
        clone.counts = list(self.counts)
        clone.key_sums = list(self.key_sums)
        clone.check_sums = list(self.check_sums)
        return clone

    @staticmethod
    def _column(values) -> list:
        # numpy columns (the vectorized wire codec's bulk path) convert to
        # Python ints in one C pass; anything else element-wise.
        if hasattr(values, "tolist"):
            return values.tolist()
        return [int(v) for v in values]

    def load_rows(self, counts, key_sums, check_sums) -> None:
        self.counts = self._column(counts)
        self.key_sums = self._column(key_sums)
        self.check_sums = self._column(check_sums)

    # -------------------------------------------------------------- reading

    def cell(self, index: int) -> tuple[int, int, int]:
        return self.counts[index], self.key_sums[index], self.check_sums[index]

    def rows(self) -> Iterator[tuple[int, int, int]]:
        return zip(self.counts, self.key_sums, self.check_sums)

    def rows_arrays(self):
        # The live column lists (read-only by contract; no copies).
        return self.counts, self.key_sums, self.check_sums

    def is_empty(self) -> bool:
        return (
            all(c == 0 for c in self.counts)
            and all(k == 0 for k in self.key_sums)
            and all(s == 0 for s in self.check_sums)
        )

    def nonzero_cells(self) -> int:
        return sum(
            1
            for count, key, check in zip(self.counts, self.key_sums, self.check_sums)
            if count or key or check
        )

    # ------------------------------------------------------- batch peeling

    def pure_mask(self):
        # One fused pass over the three lists instead of a cell() tuple
        # build plus checksum per index (the decoder calls this every round).
        premix = self._check_premix
        mask = self._check_mask
        indices: list[int] = []
        signs: list[int] = []
        for index, (count, key, check) in enumerate(
            zip(self.counts, self.key_sums, self.check_sums)
        ):
            if count == 1 or count == -1:
                if splitmix64(premix ^ splitmix64(key)) & mask == check:
                    indices.append(index)
                    signs.append(count)
        return indices, signs

    def gather_cells(self, indices):
        key_sums = self.key_sums
        return [key_sums[index] for index in indices]
