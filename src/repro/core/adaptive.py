"""Two-round adaptive reconciliation: estimate first, then send one window.

The one-round protocol ships every grid level and therefore pays a
``log Δ`` factor over the lower bound.  This variant (an extension the
paper's lower-bound discussion invites; documented as ours in DESIGN.md)
spends one extra round to locate the decode level before any full-size
sketch is built:

1. **Bob → Alice**: tiny per-level strata estimators over *hashed* cell
   keys for a strided subset of levels.
2. **Alice → Bob**: IBLTs for a small window of levels around the finest
   level whose estimated difference fits the budget, each sized from the
   estimate (plus the coarsest level as a decode-of-last-resort).

Bob then proceeds exactly like the one-round protocol on the window.
Hashed 48-bit estimator keys keep round 1 small; the estimate only has to
be right within a factor ~2, which the window absorbs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import ProtocolConfig
from repro.core.protocol import HierarchicalReconciler, ReconcileResult
from repro.core.repair import apply_repair, plan_repair
from repro.core.sketch import level_iblt_config
from repro.errors import ConfigError, ReconciliationFailure, SerializationError
from repro.iblt.decode import decode
from repro.iblt.hashing import hash_with_salt
from repro.iblt.strata import StrataConfig, StrataEstimator
from repro.iblt.table import IBLT, recommended_cells
from repro.net.bits import BitReader, BitWriter
from repro.net.channel import SimulatedChannel
from repro.net.transcript import Transcript

REQUEST_MAGIC = 0xAD
RESPONSE_MAGIC = 0xAE
VERSION = 1


@dataclass(frozen=True)
class AdaptiveConfig:
    """Tuning knobs of the adaptive variant (shared via public coins)."""

    level_stride: int = 2
    estimator_strata: int = 8
    estimator_cells: int = 9
    estimator_key_bits: int = 40
    estimator_checksum_bits: int = 16
    headroom: float = 2.0
    include_fallback: bool = True

    def __post_init__(self) -> None:
        if self.level_stride < 1:
            raise ConfigError(f"level_stride must be >= 1, got {self.level_stride}")
        if self.headroom < 1:
            raise ConfigError(f"headroom must be >= 1, got {self.headroom}")
        if not 32 <= self.estimator_key_bits <= 64:
            raise ConfigError(
                f"estimator_key_bits must be in [32, 64], got {self.estimator_key_bits}"
            )


#: Bound on the reused-window-table cache (window shapes vary with client
#: estimates; a long-lived server must not grow per-peer state unbounded).
_WINDOW_CACHE_LIMIT = 64


class AdaptiveReconciler:
    """Both endpoints of the two-round protocol.

    ``reuse_alice_state=True`` opts into caching Alice's deterministic
    per-level work — her own strata estimators and the sized window
    tables — across calls to :meth:`alice_respond`.  Only safe when every
    call passes the *same* point multiset (the serve layer's case: one
    server-side point set, many connections); the cache is keyed on the
    points object's identity and resets if a different object shows up.
    """

    def __init__(
        self,
        config: ProtocolConfig,
        adaptive: AdaptiveConfig | None = None,
        *,
        reuse_alice_state: bool = False,
    ):
        self.config = config
        self.adaptive = adaptive or AdaptiveConfig()
        self._one_round = HierarchicalReconciler(config)
        self.grid = self._one_round.grid
        self._reuse = reuse_alice_state
        self._cached_points: object | None = None
        self._estimator_cache: dict[int, StrataEstimator] = {}
        self._window_cache: dict[tuple[int, int], IBLT] = {}

    # ----------------------------------------------------------- shared bits

    def sampled_levels(self) -> list[int]:
        """Levels carrying an estimator in round 1 (coarsest always included)."""
        all_levels = list(self.config.sketch_levels)
        if not all_levels:
            raise ConfigError(
                "adaptive reconciliation needs at least one sketch level; "
                "config.sketch_levels is empty"
            )
        sampled = all_levels[:: self.adaptive.level_stride]
        if all_levels[-1] not in sampled:
            sampled.append(all_levels[-1])
        return sampled

    def _estimator_config(self, level: int) -> StrataConfig:
        return StrataConfig(
            strata=self.adaptive.estimator_strata,
            cells_per_stratum=self.adaptive.estimator_cells,
            q=3,
            key_bits=self.adaptive.estimator_key_bits,
            checksum_bits=self.adaptive.estimator_checksum_bits,
            seed=hash_with_salt(level, self.config.seed ^ 0xE57),
        )

    def _hashed_keys(self, points, level: int):
        mask = (1 << self.adaptive.estimator_key_bits) - 1
        salt = self.config.seed ^ (level * 0x9E3779B9)
        for key in self.grid.keys_for(points, level):
            yield hash_with_salt(key, salt) & mask

    def _build_estimator(self, points, level: int) -> StrataEstimator:
        estimator = StrataEstimator(
            self._estimator_config(level), backend=self.config.backend
        )
        estimator.insert_all(self._hashed_keys(points, level))
        return estimator

    # ---------------------------------------------------- Alice state reuse

    def _check_reuse_points(self, points) -> None:
        """Drop the caches if a different point multiset shows up."""
        if self._cached_points is not points:
            self._estimator_cache.clear()
            self._window_cache.clear()
            self._cached_points = points

    def _alice_estimator(self, points, level: int) -> StrataEstimator:
        if not self._reuse:
            return self._build_estimator(points, level)
        estimator = self._estimator_cache.get(level)
        if estimator is None:
            estimator = self._build_estimator(points, level)
            self._estimator_cache[level] = estimator
        return estimator

    def _alice_window_table(self, points, level: int, cells: int) -> IBLT:
        if not self._reuse:
            return self._one_round.level_table(points, level, cells)
        key = (level, cells)
        table = self._window_cache.get(key)
        if table is None:
            if len(self._window_cache) >= _WINDOW_CACHE_LIMIT:
                self._window_cache.pop(next(iter(self._window_cache)))
            table = self._one_round.level_table(points, level, cells)
            self._window_cache[key] = table
        return table

    def warm_alice(self, alice_points) -> None:
        """Prebuild Alice's cached per-level estimators for ``alice_points``.

        Only meaningful with ``reuse_alice_state=True`` (no-op otherwise).
        The serve layer calls this once before forking worker processes so
        every worker inherits the estimators copy-on-write instead of each
        paying the build on its first adaptive request.  Window tables are
        *not* prewarmed — their shapes depend on client estimates — but
        the estimator decode is the per-request cost this removes.
        """
        if not self._reuse:
            return
        self._check_reuse_points(alice_points)
        for level in self.sampled_levels():
            self._alice_estimator(alice_points, level)

    # -------------------------------------------------------------- round 1

    def bob_request(self, bob_points) -> bytes:
        """Bob's opening message: strided per-level difference estimators."""
        writer = BitWriter()
        writer.write_uint(REQUEST_MAGIC, 8)
        writer.write_uint(VERSION, 8)
        writer.write_varint(len(bob_points))
        for level in self.sampled_levels():
            self._build_estimator(bob_points, level).write_to(writer)
        return writer.getvalue()

    # -------------------------------------------------------------- round 2

    def alice_respond(self, request_payload: bytes, alice_points) -> bytes:
        """Alice's reply: a sized IBLT window around the chosen level."""
        reader = BitReader(request_payload)
        if reader.read_uint(8) != REQUEST_MAGIC:
            raise SerializationError("bad magic byte; not an adaptive request")
        if reader.read_uint(8) != VERSION:
            raise SerializationError("unsupported adaptive request version")
        reader.read_varint()  # Bob's size; informational
        self._check_reuse_points(alice_points)
        estimates: dict[int, int] = {}
        for level in self.sampled_levels():
            bob_estimator = StrataEstimator.read_from(
                reader, self._estimator_config(level),
                backend=self.config.backend,
            )
            mine = self._alice_estimator(alice_points, level)
            estimates[level] = mine.estimate_difference(
                bob_estimator
            )
        reader.expect_end()

        window = self._choose_window(estimates)
        writer = BitWriter()
        writer.write_uint(RESPONSE_MAGIC, 8)
        writer.write_uint(VERSION, 8)
        writer.write_varint(len(alice_points))
        writer.write_varint(len(window))
        for level, cells in window:
            writer.write_varint(level)
            writer.write_varint(cells)
            table = self._alice_window_table(alice_points, level, cells)
            table.write_to(writer)
        return writer.getvalue()

    def _choose_window(self, estimates: dict[int, int]) -> list[tuple[int, int]]:
        """Pick (level, cells) pairs for the reply, finest first."""
        budget = int(2 * self.config.k * self.config.diff_margin)
        sampled = sorted(estimates)
        fitting = [
            level for level in sampled
            if estimates[level] * self.adaptive.headroom <= budget * 2
        ]
        best = fitting[0] if fitting else sampled[-1]
        best_estimate = max(estimates[best], 2 * self.config.k)

        window: list[tuple[int, int]] = []
        all_levels = [
            level for level in self.config.sketch_levels
            if best - self.adaptive.level_stride + 1 <= level <= best
        ]
        for level in all_levels:
            # Differences roughly double per finer level (split probability
            # is ~ EMD / 2^level); size finer tables accordingly.
            inflation = 1 << (best - level)
            expected = int(best_estimate * inflation * self.adaptive.headroom)
            window.append((level, recommended_cells(expected, q=self.config.q)))
        coarsest = self.config.sketch_levels[-1]
        if self.adaptive.include_fallback and all(
            level != coarsest for level, _ in window
        ):
            window.append(
                (coarsest, recommended_cells(budget, q=self.config.q))
            )
        return window

    # -------------------------------------------------------------- round 3

    def bob_finish(
        self, response_payload: bytes, bob_points, strategy: str = "occurrence"
    ) -> ReconcileResult:
        """Bob decodes the finest level of the reply window and repairs."""
        reader = BitReader(response_payload)
        if reader.read_uint(8) != RESPONSE_MAGIC:
            raise SerializationError("bad magic byte; not an adaptive response")
        if reader.read_uint(8) != VERSION:
            raise SerializationError("unsupported adaptive response version")
        n_alice = reader.read_varint()
        n_levels = reader.read_varint()
        window: list[tuple[int, IBLT]] = []
        seen_levels: set[int] = set()
        for _ in range(n_levels):
            level = reader.read_varint()
            cells = reader.read_varint()
            if level in seen_levels:
                # A malformed reply could carry one level twice and silently
                # shadow the first table; reject it at the wire boundary.
                raise SerializationError(
                    f"adaptive window carries level {level} twice"
                )
            seen_levels.add(level)
            table_config = level_iblt_config(self.config, self.grid, level, cells)
            window.append(
                (level, IBLT.read_from(reader, table_config, backend=self.config.backend))
            )
        reader.expect_end()

        probed: list[int] = []
        for level, alice_table in sorted(window, key=lambda pair: pair[0]):
            probed.append(level)
            bob_table = self._one_round.level_table(
                bob_points, level, alice_table.config.cells
            )
            result = decode(
                alice_table.subtract(bob_table),
                max_items=4 * alice_table.config.capacity + 8,
            )
            if not result.success:
                continue
            if len(result.alice_keys) - len(result.bob_keys) != n_alice - len(bob_points):
                continue
            plan = plan_repair(
                bob_points, result.alice_keys, result.bob_keys,
                self.grid, level, strategy,
            )
            return ReconcileResult(
                repaired=apply_repair(bob_points, plan),
                level=level,
                alice_surplus=len(result.alice_keys),
                bob_surplus=len(result.bob_keys),
                plan=plan,
                levels_probed=probed,
            )
        raise ReconciliationFailure(
            "no level of the adaptive window decoded "
            f"(probed {probed}; difference larger than estimated?)"
        )


def reconcile_adaptive(
    alice_points,
    bob_points,
    config: ProtocolConfig,
    adaptive: AdaptiveConfig | None = None,
    channel: SimulatedChannel | None = None,
    strategy: str = "occurrence",
) -> ReconcileResult:
    """Run the full two-round exchange over a (simulated) channel.

    A thin driver pumping :class:`AdaptiveAliceSession` /
    :class:`AdaptiveBobSession` (:mod:`repro.session`) over the channel.
    A caller-supplied channel is left open for reuse; the transcript
    covers this run's messages only.
    """
    # Lazy import: repro.session layers above this module (see reconcile()).
    from repro.session import AdaptiveAliceSession, AdaptiveBobSession, pump

    owns_channel = channel is None
    channel = channel if channel is not None else SimulatedChannel()
    first_message = len(channel.messages)
    reconciler = AdaptiveReconciler(config, adaptive)  # shared: one grid build
    alice = AdaptiveAliceSession(
        config, alice_points, adaptive, reconciler=reconciler
    )
    bob = AdaptiveBobSession(
        config, bob_points, adaptive, strategy=strategy, reconciler=reconciler
    )
    _, result = pump(alice, bob, channel)
    if owns_channel:
        channel.close()
    result.transcript = Transcript.from_messages(channel.messages[first_message:])
    return result
