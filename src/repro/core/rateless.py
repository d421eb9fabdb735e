"""Rateless reconciliation: stream sketch increments until decode succeeds.

The one-round protocol ships every grid level; the adaptive variant pays a
strata-estimation round plus conservatively sized sketches.  This variant
pays neither: Alice streams *increments* of IBLT cells — segment ``j`` is a
complete sketch of her keyspace under an independently salted hash family,
with a geometric cell-growth schedule — and Bob feeds each increment into a
resumable :class:`~repro.iblt.decode.PeelState`, replying STOP the instant
the union of everything received peels to empty.  No difference estimate is
ever exchanged, and the bytes on the wire track the *true* difference size:
a sync with ``d`` differing keys stops after ``O(d)`` cells no matter how
large the sets are.

The construction follows the rate-compatible / rateless IBLT line of work
("A rate-compatible solution to the set reconciliation problem",
arXiv:2211.05472; "Practical Rateless Set Reconciliation" and its
space-time-robustness successors, arXiv:2402.02668 / arXiv:2404.09607):
every difference key occupies ``q`` cells in *every* segment, so the
concatenation of segments received so far is always a valid (denser) code
for the same difference, and peeling can resume across segment boundaries
— exactly the :class:`~repro.iblt.decode.PeelState` contract.  A
configurable increment cap turns a difference too large for the schedule
into a typed :class:`~repro.errors.ReconciliationFailure` instead of an
unbounded stream.

Robustness comes from reconciling at a single fixed grid level (default:
the finest), like one level of the one-round hierarchy; the repair planner
then treats recovered cell keys exactly as the other variants do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.config import ProtocolConfig
from repro.core.protocol import HierarchicalReconciler, ReconcileResult
from repro.core.repair import apply_repair, plan_repair
from repro.errors import ConfigError, SerializationError
from repro.iblt.hashing import hash_with_salt
from repro.iblt.table import IBLT, IBLTConfig
from repro.net.bits import BitReader, BitWriter
from repro.net.channel import SimulatedChannel
from repro.net.transcript import Transcript

INCREMENT_MAGIC = 0xC7
ACK_MAGIC = 0xC8
VERSION = 1

#: Salt mixed into per-segment IBLT seeds (public coins, like 0x1EB1 for
#: the hierarchy levels): segments must hash independently or a stopping
#: set in one segment would repeat in every other.
_SEGMENT_SALT = 0x7A7E1E55


@dataclass(frozen=True)
class RatelessConfig:
    """Tuning knobs of the rateless variant (shared via public coins).

    Attributes
    ----------
    level:
        Grid level the stream reconciles at; 0 (the default) is the finest
        — exact repair, maximal robustness to near-duplicates.
    initial_cells:
        Cells in segment 0 (rounded up to a multiple of ``q``); the
        cheapest possible sync costs roughly this many cells.
    growth:
        Geometric factor between consecutive segment sizes.  Doubling
        keeps the total cells shipped within a constant factor of the
        final table size, i.e. of the true difference.
    max_increments:
        Hard cap on streamed segments; hitting it raises a typed
        :class:`~repro.errors.ReconciliationFailure` on both ends instead
        of streaming forever.
    """

    level: int = 0
    initial_cells: int = 32
    growth: float = 2.0
    max_increments: int = 16

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ConfigError(f"level must be >= 0, got {self.level}")
        if self.initial_cells < 4:
            raise ConfigError(
                f"initial_cells must be >= 4, got {self.initial_cells}"
            )
        if not 1.0 < self.growth <= 16.0:
            raise ConfigError(
                f"growth must be in (1, 16], got {self.growth}"
            )
        if self.max_increments < 1:
            raise ConfigError(
                f"max_increments must be >= 1, got {self.max_increments}"
            )


class RatelessReconciler:
    """Shared state of both rateless endpoints: the grid, the segment
    schedule, and (optionally) Alice's cached increments.

    ``reuse_alice_state=True`` opts into caching Alice's encoded increment
    payloads across sessions — safe only when every call passes the *same*
    point multiset (the serve layer's case); the cache is keyed on the
    points object's identity and resets if a different object shows up.
    """

    def __init__(
        self,
        config: ProtocolConfig,
        rateless: RatelessConfig | None = None,
        *,
        reuse_alice_state: bool = False,
    ):
        self.config = config
        self.rateless = rateless or RatelessConfig()
        self._one_round = HierarchicalReconciler(config)
        self.grid = self._one_round.grid
        if self.rateless.level > config.max_level:
            raise ConfigError(
                f"rateless level {self.rateless.level} exceeds the grid's "
                f"max level {config.max_level}"
            )
        self._reuse = reuse_alice_state
        # Keys are a deterministic function of the points; one identity-
        # keyed slot serves Alice's repeated increment builds.
        self._keys_points: object | None = None
        self._keys: list[int] | None = None
        self._increments: list[bytes] = []

    # ----------------------------------------------------------- schedule

    def segment_cells(self, index: int) -> int:
        """Cells in segment ``index`` (geometric, multiple-of-``q``)."""
        raw = self.rateless.initial_cells * self.rateless.growth ** index
        q = self.config.q
        cells = max(q, math.ceil(raw))
        return -(-cells // q) * q

    def segment_config(self, index: int) -> IBLTConfig:
        """Public-coin shape of segment ``index`` (independent seed)."""
        return IBLTConfig(
            cells=self.segment_cells(index),
            q=self.config.q,
            key_bits=self.grid.key_bits(self.rateless.level),
            checksum_bits=self.config.checksum_bits,
            seed=hash_with_salt(index, self.config.seed ^ _SEGMENT_SALT),
        )

    def keys_for(self, points) -> list[int]:
        """The reconciled keyspace: grid cell keys at the fixed level."""
        return self.grid.keys_for(points, self.rateless.level)

    def segment_table(self, keys, index: int) -> IBLT:
        table = IBLT(self.segment_config(index), backend=self.config.backend)
        table.insert_many(keys)
        return table

    # ------------------------------------------------------------- wire

    def build_increment(self, keys, n_points: int, index: int) -> bytes:
        writer = BitWriter()
        writer.write_uint(INCREMENT_MAGIC, 8)
        writer.write_uint(VERSION, 8)
        writer.write_varint(index)
        writer.write_varint(n_points)
        self.segment_table(keys, index).write_to(writer)
        return writer.getvalue()

    def alice_increment(self, alice_points, index: int) -> bytes:
        """Alice's ``index``-th increment (cached under state reuse)."""
        if self._keys_points is not alice_points:
            self._keys_points = alice_points
            self._keys = self.keys_for(alice_points)
            self._increments = []
        if not self._reuse:
            return self.build_increment(self._keys, len(alice_points), index)
        while len(self._increments) <= index:
            self._increments.append(
                self.build_increment(
                    self._keys, len(alice_points), len(self._increments)
                )
            )
        return self._increments[index]

    def warm_alice(self, alice_points, increments: int = 1) -> None:
        """Prebuild Alice's keys and her first ``increments`` encoded
        increment payloads for ``alice_points``.

        Only meaningful with ``reuse_alice_state=True`` (no-op otherwise).
        The serve layer calls this once before serving, so the opening
        increments are ready for the first stream; later increments are
        still encoded (and cached) on demand.
        """
        if not self._reuse or increments < 1:
            return
        last = min(increments, self.rateless.max_increments) - 1
        self.alice_increment(alice_points, last)

    def read_increment(self, payload: bytes, expected_index: int):
        """Parse one increment; returns ``(n_alice, segment_table)``."""
        reader = BitReader(payload)
        if reader.read_uint(8) != INCREMENT_MAGIC:
            raise SerializationError("bad magic byte; not a rateless increment")
        if reader.read_uint(8) != VERSION:
            raise SerializationError("unsupported rateless increment version")
        index = reader.read_varint()
        if index != expected_index:
            raise SerializationError(
                f"rateless increment out of order: got segment {index}, "
                f"expected {expected_index}"
            )
        n_alice = reader.read_varint()
        table = IBLT.read_from(
            reader, self.segment_config(index), backend=self.config.backend
        )
        reader.expect_end()
        return n_alice, table

    # ------------------------------------------------------------- repair

    def bob_repair(
        self, bob_points, alice_keys, bob_keys, strategy: str = "occurrence"
    ) -> ReconcileResult:
        """Plan and apply the repair once the stream has decoded."""
        level = self.rateless.level
        plan = plan_repair(
            bob_points, alice_keys, bob_keys, self.grid, level, strategy
        )
        return ReconcileResult(
            repaired=apply_repair(bob_points, plan),
            level=level,
            alice_surplus=len(alice_keys),
            bob_surplus=len(bob_keys),
            plan=plan,
            levels_probed=[level],
        )


def ack_bytes(stop: bool) -> bytes:
    """Bob's per-increment verdict: CONTINUE (0) or STOP (1)."""
    writer = BitWriter()
    writer.write_uint(ACK_MAGIC, 8)
    writer.write_uint(VERSION, 8)
    writer.write_uint(1 if stop else 0, 8)
    return writer.getvalue()


def parse_ack(payload: bytes) -> bool:
    """True when the ack says STOP (decode succeeded on Bob's side)."""
    reader = BitReader(payload)
    if reader.read_uint(8) != ACK_MAGIC:
        raise SerializationError("bad magic byte; not a rateless ack")
    if reader.read_uint(8) != VERSION:
        raise SerializationError("unsupported rateless ack version")
    status = reader.read_uint(8)
    if status not in (0, 1):
        raise SerializationError(f"unknown rateless ack status {status}")
    reader.expect_end()
    return status == 1


def reconcile_rateless(
    alice_points,
    bob_points,
    config: ProtocolConfig,
    rateless: RatelessConfig | None = None,
    channel: SimulatedChannel | None = None,
    strategy: str = "occurrence",
) -> ReconcileResult:
    """Run the full rateless exchange over a (simulated) channel.

    A thin driver pumping :class:`RatelessAliceSession` /
    :class:`RatelessBobSession` (:mod:`repro.session`) over the channel.
    A caller-supplied channel is left open for reuse; the transcript
    covers this run's messages only.
    """
    # Lazy import: repro.session layers above this module (see reconcile()).
    from repro.session import RatelessAliceSession, RatelessBobSession, pump

    owns_channel = channel is None
    channel = channel if channel is not None else SimulatedChannel()
    first_message = len(channel.messages)
    reconciler = RatelessReconciler(config, rateless)  # shared: one grid build
    alice = RatelessAliceSession(
        config, alice_points, rateless, reconciler=reconciler
    )
    bob = RatelessBobSession(
        config, bob_points, rateless, strategy=strategy, reconciler=reconciler
    )
    _, result = pump(alice, bob, channel)
    if owns_channel:
        channel.close()
    result.transcript = Transcript.from_messages(channel.messages[first_message:])
    return result
