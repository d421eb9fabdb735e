"""Deterministic hash functions shared by both protocol parties.

All protocols in this library assume *public coins*: Alice and Bob derive
identical hash functions from a shared seed, so no bits are spent
communicating them.  Everything here is pure-Python, deterministic across
platforms and processes (no reliance on ``hash()``), and reasonably fast.

The workhorse is :func:`splitmix64`, a well-known 64-bit finaliser with good
avalanche behaviour.  On top of it we build:

* :func:`checksum64` — key checksums for IBLT cells,
* :class:`HashFamily` — ``q`` salted cell-index functions for a partitioned
  IBLT,
* :class:`TabulationHash` — simple tabulation hashing, used where stronger
  independence matters (the strata estimator's stratum assignment).
"""

from __future__ import annotations

import random

from repro.errors import BackendUnavailableError, ConfigError

try:  # soft dependency: only the bulk (array) paths use numpy
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

if _np is not None:
    _C_GOLDEN = _np.uint64(_GOLDEN)
    _C_MIX1 = _np.uint64(_MIX1)
    _C_MIX2 = _np.uint64(_MIX2)
    _S30, _S27, _S31 = _np.uint64(30), _np.uint64(27), _np.uint64(31)


def splitmix64(value: int) -> int:
    """Mix a 64-bit integer through the splitmix64 finaliser.

    Values wider than 64 bits are first folded down by XOR-ing 64-bit limbs,
    so arbitrarily wide packed keys can be hashed directly.
    """
    if value < 0:
        raise ConfigError(f"splitmix64 input must be non-negative, got {value}")
    while value > MASK64:
        value = (value & MASK64) ^ (value >> 64)
    z = (value + _GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def hash_with_salt(value: int, salt: int) -> int:
    """A salted 64-bit hash: mix the salt in before and after the finaliser."""
    return splitmix64(splitmix64(salt) ^ splitmix64(value))


def splitmix64_many(values: "_np.ndarray") -> "_np.ndarray":
    """Vectorized :func:`splitmix64` over a uint64 array.

    uint64 arithmetic wraps mod 2^64, matching the reference's explicit
    masking.  Callers gate on numpy availability.
    """
    z = values + _C_GOLDEN
    z = (z ^ (z >> _S30)) * _C_MIX1
    z = (z ^ (z >> _S27)) * _C_MIX2
    return z ^ (z >> _S31)


def hash_with_salt_many(values: "_np.ndarray", salt: int) -> "_np.ndarray":
    """Vectorized :func:`hash_with_salt` over a uint64 array (one salt)."""
    return splitmix64_many(_np.uint64(splitmix64(salt)) ^ splitmix64_many(values))


def checksum_premix(seed: int) -> int:
    """The pre-mixed checksum salt of a table seeded ``seed``: a key's cell
    checksum is ``splitmix64(checksum_premix(seed) ^ splitmix64(key))``
    masked to the checksum width (what :func:`checksum64` computes)."""
    return splitmix64(seed ^ 0xC0FFEE)


def checksum64(key: int, salt: int, width_bits: int = 32) -> int:
    """Checksum of a key, truncated to ``width_bits`` bits.

    IBLT cells store the XOR of the checksums of their keys; a cell whose
    ``checkSum`` matches the checksum of its ``keySum`` holds (w.h.p.) exactly
    one key.  32 bits keeps false-peel probability per decode below
    ``items / 2^32``.
    """
    if not 1 <= width_bits <= 64:
        raise ConfigError(f"checksum width must be in [1, 64], got {width_bits}")
    return splitmix64(checksum_premix(salt) ^ splitmix64(key)) & (
        (1 << width_bits) - 1
    )


class HashFamily:
    """``q`` independent cell-index functions for a partitioned IBLT.

    The table's ``m`` cells are split into ``q`` equal partitions and hash
    function ``i`` maps keys into partition ``i`` only.  Partitioning
    guarantees the ``q`` cell indices of a key are distinct, which the
    peeling analysis assumes.

    Parameters
    ----------
    q:
        Number of hash functions (hyperedge cardinality).
    cells:
        Total number of cells ``m``; must be divisible by ``q``.
    seed:
        Shared public-coin seed.
    """

    def __init__(self, q: int, cells: int, seed: int):
        if q < 2:
            raise ConfigError(f"need at least 2 hash functions, got {q}")
        if cells % q != 0:
            raise ConfigError(f"cells ({cells}) must be divisible by q ({q})")
        if cells <= 0:
            raise ConfigError(f"cells must be positive, got {cells}")
        self.q = q
        self.cells = cells
        self.seed = seed
        self._partition = cells // q
        self._salts = tuple(
            hash_with_salt(i, seed ^ 0xAB1E) for i in range(q)
        )
        # Pre-mix the salts so the per-key work is one splitmix64 of the key
        # plus one per index (identical outputs to hash_with_salt).
        self._premixed = tuple(splitmix64(salt) for salt in self._salts)

    @property
    def premixed_salts(self) -> tuple[int, ...]:
        """The per-function pre-mixed salts (``splitmix64`` of each salt).

        Index ``i`` of a key is ``i * (cells // q) +
        splitmix64(premixed_salts[i] ^ splitmix64(key)) % (cells // q)``;
        vectorized backends reproduce cell placement from these constants.
        """
        return self._premixed

    def indices(self, key: int) -> tuple[int, ...]:
        """Return the ``q`` distinct cell indices of ``key``."""
        return self.indices_from_mix(splitmix64(key))

    def indices_from_mix(self, key_mix: int) -> tuple[int, ...]:
        """Indices from a precomputed ``splitmix64(key)`` (hot-path form)."""
        partition = self._partition
        return tuple(
            i * partition + splitmix64(premixed ^ key_mix) % partition
            for i, premixed in enumerate(self._premixed)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HashFamily):
            return NotImplemented
        return (self.q, self.cells, self.seed) == (other.q, other.cells, other.seed)

    def __repr__(self) -> str:
        return f"HashFamily(q={self.q}, cells={self.cells}, seed={self.seed:#x})"


class TabulationHash:
    """Simple tabulation hashing over 64-bit inputs, 8 bits at a time.

    3-independent (and practically much stronger), deterministic given the
    seed.  Used where hash independence shows up in estimator variance.
    """

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.seed = seed
        # Immutable tables, filled in one pass (no list build + convert).
        # The draw order is load-bearing: one getrandbits(64) per entry,
        # row-major, keeps the values (and thus strata wire bytes) identical
        # to every previously recorded transcript.
        self._tables = tuple(
            tuple(rng.getrandbits(64) for _ in range(256)) for _ in range(8)
        )

    def __call__(self, value: int) -> int:
        """Hash a non-negative integer (wider inputs are folded to 64 bits)."""
        if value < 0:
            raise ConfigError(f"input must be non-negative, got {value}")
        while value > MASK64:
            value = (value & MASK64) ^ (value >> 64)
        result = 0
        for i in range(8):
            result ^= self._tables[i][(value >> (8 * i)) & 0xFF]
        return result

    def hash_many(self, values: "_np.ndarray") -> "_np.ndarray":
        """Hash a whole uint64 array (bit-identical to per-key ``__call__``).

        Eight table-lookup gathers replace the eight Python ops per key;
        the lookup tables are mirrored into one ``(8, 256)`` uint64 array
        lazily on first use.  Callers gate on numpy availability.
        """
        if _np is None:  # pragma: no cover - callers gate on numpy
            raise BackendUnavailableError("TabulationHash.hash_many requires numpy")
        tables = getattr(self, "_np_tables", None)
        if tables is None:
            tables = _np.array(self._tables, dtype=_np.uint64)
            self._np_tables = tables
        values = _np.asarray(values, dtype=_np.uint64)
        result = _np.zeros(values.shape, dtype=_np.uint64)
        mask = _np.uint64(0xFF)
        for i in range(8):
            result ^= tables[i][(values >> _np.uint64(8 * i)) & mask]
        return result


def trailing_zeros(value: int, limit: int) -> int:
    """Number of trailing zero bits of ``value``, capped at ``limit``.

    Used to assign items to geometric strata: stratum ``i`` captures a
    ``2^-(i+1)`` fraction of the universe.
    """
    if value == 0:
        return limit
    count = (value & -value).bit_length() - 1  # position of lowest set bit
    return count if count < limit else limit


def trailing_zeros_many(values: "_np.ndarray", limit: int) -> "_np.ndarray":
    """Vectorized :func:`trailing_zeros` over a uint64 array.

    The lowest set bit ``v & (~v + 1)`` is an exact power of two, which
    float64 represents exactly at every exponent up to 2^63, so ``log2``
    recovers its position without precision loss.  Zeros map to ``limit``,
    exactly like the scalar reference.  Callers gate on numpy availability.
    """
    if _np is None:  # pragma: no cover - callers gate on numpy
        raise BackendUnavailableError("trailing_zeros_many requires numpy")
    values = _np.asarray(values, dtype=_np.uint64)
    lowest = values & (~values + _np.uint64(1))
    lowest[values == 0] = 1  # placeholder; overwritten by the zero mask below
    positions = _np.log2(lowest.astype(_np.float64)).astype(_np.int64)
    positions = _np.minimum(positions, limit)
    positions[values == 0] = limit
    return positions
