"""Shared protocol parameters.

A :class:`ProtocolConfig` is the public-coin contract between the two
parties: both construct it identically (same seed) and never transmit it.
Everything a run needs — the grid geometry, the IBLT shape, the budget
parameter ``k`` — lives here and is validated once, up front.

Every protocol variant shares this one config: the one-round hierarchy
sketch, the adaptive two-round variant (plus
:class:`~repro.core.adaptive.AdaptiveConfig`), and the rateless stream
(plus :class:`~repro.core.rateless.RatelessConfig`, whose segment
schedule is seeded from this config's public coins).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.emd.metrics import validate_metric
from repro.errors import ConfigError
from repro.iblt.backends import get_backend
from repro.iblt.table import PEELING_THRESHOLDS, recommended_cells


@dataclass(frozen=True)
class ProtocolConfig:
    """Public-coin parameters of a robust reconciliation.

    Parameters
    ----------
    delta:
        Grid extent; every coordinate lies in ``[0, delta)``.
    dimension:
        Point dimension ``d``.
    k:
        Budget parameter: the number of genuinely-different points the
        sketch is sized for.  Communication is ``O(k log delta)`` cells and
        the guarantee is ``EMD(S_A, S'_B) <= O(d) * EMD_k(S_A, S_B)``.
    q:
        IBLT hash-function count.
    occupancy_bits:
        Width of the per-cell occurrence index inside packed keys; bounds
        the number of co-located points a single grid cell may hold
        (``2^occupancy_bits``).
    checksum_bits:
        Width of the IBLT key checksum.
    seed:
        Public-coin seed; drives the grid shift and every hash salt.
    diff_margin:
        Sketch sizing headroom: each level's IBLT is sized for
        ``diff_margin * 2k`` difference keys.  The analysis puts the
        expected difference at the target level near ``4k`` (2k from split
        close pairs, 2k from the genuinely different points), i.e.
        ``diff_margin = 2``; the default adds slack for variance.
    metric:
        Ground metric for reporting (``l1`` is the analysed case).
    levels:
        Explicit grid levels to sketch (finest first); ``None`` means every
        level from 0 to ``ceil(log2 delta)``.
    random_shift:
        ``False`` pins the grid shift to zero — the deterministic-quadtree
        ablation the analysis warns about (boundary-aligned noise defeats
        it); leave ``True`` outside of ablation studies.
    backend:
        IBLT cell-storage backend used for every table this run builds (see
        :mod:`repro.iblt.backends`).  ``"auto"`` (default) picks the fastest
        available engine per table and falls back to the pure-Python
        reference; all backends are bit-compatible on the wire, so the two
        parties may configure this independently.
    """

    delta: int
    dimension: int
    k: int
    q: int = 4
    occupancy_bits: int = 20
    checksum_bits: int = 32
    seed: int = 0
    diff_margin: float = 3.0
    metric: str = "l1"
    levels: tuple[int, ...] | None = field(default=None)
    random_shift: bool = True
    backend: str = "auto"

    def __post_init__(self) -> None:
        if self.delta < 2:
            raise ConfigError(f"delta must be >= 2, got {self.delta}")
        if self.dimension < 1:
            raise ConfigError(f"dimension must be >= 1, got {self.dimension}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.q not in PEELING_THRESHOLDS:
            raise ConfigError(
                f"q must be one of {sorted(PEELING_THRESHOLDS)}, got {self.q}"
            )
        if not 1 <= self.occupancy_bits <= 40:
            raise ConfigError(
                f"occupancy_bits must be in [1, 40], got {self.occupancy_bits}"
            )
        if not 8 <= self.checksum_bits <= 64:
            raise ConfigError(
                f"checksum_bits must be in [8, 64], got {self.checksum_bits}"
            )
        if self.diff_margin < 1:
            raise ConfigError(
                f"diff_margin must be >= 1, got {self.diff_margin}"
            )
        validate_metric(self.metric)
        if self.backend != "auto":
            get_backend(self.backend)  # raises ConfigError if unknown/unavailable
        if self.levels is not None:
            if not self.levels:
                raise ConfigError(
                    "levels must name at least one grid level (or be None "
                    "for the full hierarchy)"
                )
            max_level = self.max_level
            for level in self.levels:
                if not 0 <= level <= max_level:
                    raise ConfigError(
                        f"level {level} outside [0, {max_level}]"
                    )
            if list(self.levels) != sorted(set(self.levels)):
                raise ConfigError("levels must be strictly increasing")

    @property
    def max_level(self) -> int:
        """Coarsest level: one cell (per shift residue) covers the grid."""
        return max(1, (self.delta - 1).bit_length())

    @property
    def sketch_levels(self) -> tuple[int, ...]:
        """The levels actually sketched, finest first."""
        if self.levels is not None:
            return self.levels
        return tuple(range(self.max_level + 1))

    @property
    def cells_per_level(self) -> int:
        """IBLT cells allocated at each level."""
        expected_diff = int(2 * self.k * self.diff_margin)
        return recommended_cells(expected_diff, q=self.q)

    @property
    def decode_item_limit(self) -> int:
        """Reject a level whose decode exceeds this many keys (sanity guard)."""
        return int(4 * self.k * self.diff_margin) + 8
