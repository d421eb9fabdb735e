"""Peeling decoder for (subtracted) IBLTs.

Peeling repeatedly finds a *pure* cell — one whose count is ±1 and whose
checksum field matches the checksum of its key field — extracts the key, and
removes it from its other cells, which may expose new pure cells.  On a
subtracted table (Alice − Bob) the sign of the pure cell tells which side
owned the key.

The process is exactly the 2-core peeling of a random ``q``-uniform
hypergraph: it recovers everything iff the hypergraph of remaining keys has
an empty 2-core, which holds w.h.p. while the number of difference keys is
below ``PEELING_THRESHOLDS[q] * cells``.

Two strategies implement the same peeling:

``"batch"`` (default)
    Round-based: each round finds *all* currently pure cells with one
    vectorized scan (:meth:`~repro.iblt.table.IBLT.pure_mask`), gathers
    their keys, and removes them all with one signed batch update
    (:meth:`~repro.iblt.table.IBLT.apply_many` with the signs negated),
    repeating until no pure cell remains.  On array backends a whole round
    costs a handful of numpy kernels instead of a Python round-trip per key.

``"scalar"``
    The classic one-key-at-a-time stack peel, kept for diagnostics and as
    the differential-testing oracle.

Because peeling is confluent — every genuinely pure cell holds exactly one
net key, so removing one key never invalidates another simultaneously-pure
cell — both strategies recover identical key *sets* (same ``success``,
``alice_keys`` / ``bob_keys`` as multisets, same ``remaining_cells``) on
every input that does not trip the ``max_items`` guard; the differential
suite (``tests/test_decode_batch.py``) enforces this across backends.  Only
``peel_order`` differs: the batch decoder's order is **round-major,
index-ascending** (all round-1 extractions in cell-index order, then round
2, …), while the scalar decoder's is stack-driven.  On a guard abort both
report ``success=False`` after at most ``max_items`` applied extractions
(the cap is enforced *within* a round, not merely between rounds), but the
partial key lists are strategy-specific.

Resumable peeling
-----------------

:class:`PeelState` makes the peel loop a resumable object: whole tables
join over time via :meth:`PeelState.extend` (the rateless protocol streams
IBLT segments this way), and each arrival continues peeling from where the
previous one stalled instead of re-decoding from scratch.  The contract is
that **every difference key occupies its ``q`` cells in every segment**
(segments are same-keyspace sketches under independent seeds), so a key
recovered from any one segment is removed from all of them, and a late
segment has the keys recovered so far removed before it joins.
``decode()`` is a thin wrapper: one segment, peeled to exhaustion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.iblt.table import IBLT

try:  # soft dependency: only the batch-round dedup has a numpy fast path
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

#: Peeling strategies accepted by :func:`decode` and :class:`PeelState`.
DECODE_STRATEGIES = ("batch", "scalar")


@dataclass
class DecodeResult:
    """Outcome of peeling one subtracted IBLT.

    Attributes
    ----------
    success:
        True when the table peeled to empty.
    alice_keys:
        Keys recovered with positive sign (present only in the minuend).
    bob_keys:
        Keys recovered with negative sign (present only in the subtrahend).
    remaining_cells:
        Non-empty cells left when peeling stalled (0 on success).
    peel_order:
        Keys in the order they were extracted (diagnostics / ablations).
        Round-major and index-ascending under the batch strategy,
        stack-driven under the scalar one.
    """

    success: bool
    alice_keys: list[int] = field(default_factory=list)
    bob_keys: list[int] = field(default_factory=list)
    remaining_cells: int = 0
    peel_order: list[tuple[int, int]] = field(default_factory=list)

    @property
    def difference_size(self) -> int:
        """Total number of keys recovered from both sides."""
        return len(self.alice_keys) + len(self.bob_keys)


def decode(
    table: IBLT, *, max_items: int | None = None, strategy: str = "batch"
) -> DecodeResult:
    """Peel ``table`` (non-destructively) and return the recovered difference.

    Parameters
    ----------
    table:
        A subtracted IBLT.  (Peeling a single party's table also works and
        lists its contents.)
    max_items:
        Guard: abort with ``success=False`` once peeling would extract more
        than this many keys.  Protocols use it to reject levels that decode
        to an implausibly large difference.  Defaults to ``2 × cells``: a
        legitimate full peel can never extract more than the peeling
        threshold (~0.82 × cells) keys, while a *false* peel — a weak
        checksum admitting a garbage key — can otherwise churn the table
        forever (every bogus extraction re-perturbs cells and can expose
        further bogus "pure" cells).  The cap turns that pathology into a
        clean failure, and it is enforced per *extraction*: no run ever
        applies more than ``max_items`` extractions, even mid-round under
        the batch strategy.
    strategy:
        ``"batch"`` (default) or ``"scalar"`` — see the module docstring.
        Both recover the same key sets; only ``peel_order`` differs.

    Notes
    -----
    The copy-then-peel costs O(cells + difference); tables in this library
    are O(k)-sized so this is cheap compared to hashing the input sets.
    """
    if max_items is None:
        max_items = 2 * table.config.cells
    state = PeelState(strategy=strategy, max_items=max_items)
    state.extend(table)
    return state.result()


class PeelState:
    """Resumable peeling over a growing sequence of IBLT segments.

    The state owns working copies of every segment handed to it via
    :meth:`extend`, the keys recovered so far (with signs and extraction
    order), and the guard counters.  The rateless sessions feed each wire
    increment as one segment.

    All segments must share key and checksum widths, and every difference
    key must occupy its ``q`` cells in **every** segment (independent seeds
    over one keyspace); recovered keys are removed from all segments, and
    corrections for late segments are replayed when they join.

    ``max_items=None`` means a dynamic guard of ``2 × total cells``,
    re-evaluated as segments arrive.  Once the guard trips the state is
    poisoned (``failed``) — further segments join but never peel.

    With a single segment the peel — including ``peel_order`` — is exactly
    ``decode()``'s; resumed runs recover the same key multisets as a fresh
    decode of every segment would.
    """

    def __init__(self, *, strategy: str = "batch", max_items: int | None = None):
        if strategy not in DECODE_STRATEGIES:
            raise ConfigError(
                f"decode strategy must be one of {DECODE_STRATEGIES}, got {strategy!r}"
            )
        self._strategy = strategy
        self._max_items = max_items
        self._segments: list[IBLT] = []
        self._total_cells = 0
        self._alice: list[int] = []
        self._bob: list[int] = []
        self._order: list[tuple[int, int]] = []
        self._failed = False

    # ------------------------------------------------------------ properties

    @property
    def failed(self) -> bool:
        """True once the ``max_items`` guard tripped (state is poisoned)."""
        return self._failed

    @property
    def solved(self) -> bool:
        """True when peeling has provably recovered the whole difference:
        every segment is peeled to empty."""
        return (
            not self._failed
            and bool(self._segments)
            and all(segment.is_empty() for segment in self._segments)
        )

    @property
    def difference_size(self) -> int:
        """Keys recovered so far, both sides combined."""
        return len(self._order)

    # ------------------------------------------------------------- growing

    def extend(self, table: IBLT) -> None:
        """Append ``table`` as a segment and resume peeling.

        The table is copied (peeling is destructive), corrections for keys
        already recovered from earlier segments are replayed into the copy,
        and the peel continues until it stalls again.
        """
        config = table.config
        if self._segments:
            first = self._segments[0].config
            if (
                config.key_bits != first.key_bits
                or config.checksum_bits != first.checksum_bits
            ):
                raise ConfigError(
                    "peel segments must share key and checksum widths, got "
                    f"{config.key_bits}/{config.checksum_bits} bits after "
                    f"{first.key_bits}/{first.checksum_bits}"
                )
        work = table.copy()
        if self._order:
            keys = [key for key, _ in self._order]
            work.apply_many(keys, [-sign for _, sign in self._order])
        self._segments.append(work)
        self._total_cells += config.cells
        self._peel()

    # ------------------------------------------------------------- results

    def result(self) -> DecodeResult:
        """Snapshot the peel outcome as a :class:`DecodeResult`.

        ``success`` mirrors :attr:`solved`; ``remaining_cells`` counts
        non-empty cells across all segments.  May be called repeatedly;
        the state stays usable for further segments.
        """
        return DecodeResult(
            success=self.solved,
            alice_keys=list(self._alice),
            bob_keys=list(self._bob),
            remaining_cells=sum(
                segment.nonzero_cells() for segment in self._segments
            ),
            peel_order=list(self._order),
        )

    # ------------------------------------------------------------ internals

    def _limit(self) -> int:
        if self._max_items is not None:
            return self._max_items
        return 2 * self._total_cells

    def _record(self, keys, signs) -> None:
        # Backend-native arrays feed the removal batch; the result lists
        # hold Python ints (what every protocol layer downstream expects).
        key_list = keys.tolist() if hasattr(keys, "tolist") else keys
        sign_list = signs.tolist() if hasattr(signs, "tolist") else signs
        for key, sign in zip(key_list, sign_list):
            if sign > 0:
                self._alice.append(key)
            else:
                self._bob.append(key)
            self._order.append((key, sign))

    def _peel(self) -> None:
        if self._failed:
            return
        if self._strategy == "scalar":
            self._peel_scalar()
        else:
            self._peel_batch()

    # ------------------------------------------------------- batch rounds

    def _pure_round(self):
        """One round's worth of verified pure cells across all segments,
        (segment, index)-ascending."""
        gathered = []
        for segment in self._segments:
            indices, signs = segment.pure_mask()
            if len(indices) == 0:
                continue
            gathered.append((segment.gather_cells(indices), signs))
        if not gathered:
            return [], []
        if len(gathered) == 1:
            # Single-segment rounds keep the backend-native arrays — the
            # plain-decode fast path stays bit- and kernel-identical.
            return gathered[0]
        keys: list[int] = []
        signs_out: list[int] = []
        for segment_keys, segment_signs in gathered:
            keys.extend(
                segment_keys.tolist()
                if hasattr(segment_keys, "tolist")
                else segment_keys
            )
            signs_out.extend(
                segment_signs.tolist()
                if hasattr(segment_signs, "tolist")
                else segment_signs
            )
        return keys, signs_out

    def _peel_batch(self) -> None:
        """Round-based peel: find every pure cell, extract all keys, repeat."""
        while True:
            keys, signs = self._pure_round()
            if len(keys) == 0:
                return
            keys, signs = _dedup_first_key(keys, signs)
            allowed = self._limit() - len(self._order)
            if len(keys) > allowed:
                # Guard tripped mid-round: apply only the first ``allowed``
                # extractions so no run ever exceeds ``max_items``, then
                # poison the state.
                keys = keys[:allowed]
                signs = signs[:allowed]
                self._failed = True
            self._record(keys, signs)
            if len(keys):
                # Removing a key undoes its sign: Alice's (+1) keys are
                # deleted, Bob's (-1) keys re-inserted.
                removal = (
                    -signs if hasattr(signs, "dtype") else [-s for s in signs]
                )
                for segment in self._segments:
                    segment.apply_many(keys, removal)
            if self._failed:
                return

    # ------------------------------------------------------- scalar stack

    def _peel_scalar(self) -> None:
        """The reference one-key-at-a-time peel (stack-driven order)."""
        # Batch scan (vectorized on array backends); ascending order fixes
        # the peel order identically across backends.
        stack: list[tuple[int, int]] = []
        for seg, segment in enumerate(self._segments):
            stack.extend((seg, index) for index in segment.pure_cells())
        seen_pure = set(stack)

        while stack:
            entry = stack.pop()
            seen_pure.discard(entry)
            seg, index = entry
            segment = self._segments[seg]
            sign = segment.cell_is_pure(index)
            if sign == 0:
                continue  # became impure/empty since queued
            if len(self._order) >= self._limit():
                # The next extraction would exceed the guard — abort
                # without applying it.
                self._failed = True
                return
            key = segment.cell(index)[1]
            if sign > 0:
                self._alice.append(key)
            else:
                self._bob.append(key)
            self._order.append((key, sign))
            for other_seg, other in enumerate(self._segments):
                if sign > 0:
                    other.delete(key)
                else:
                    other.insert(key)
                for neighbour in other.hashes.indices(key):
                    candidate = (other_seg, neighbour)
                    if other.cell_is_pure(neighbour) and candidate not in seen_pure:
                        stack.append(candidate)
                        seen_pure.add(candidate)


# ------------------------------------------------------------- batch helpers


def _dedup_first_key(keys, signs):
    """Drop repeated keys within one round, keeping the first occurrence.

    A key alone in two of its ``q`` cells shows up behind *both* pure
    cells; extracting it twice in one round would corrupt the table (the
    scalar peel naturally skips the second cell, which turns impure after
    the first extraction).  Order is preserved, so the round stays
    index-ascending.
    """
    if _np is not None and isinstance(keys, _np.ndarray):
        unique, first = _np.unique(keys, return_index=True)
        if unique.size == keys.size:
            return keys, signs
        order = _np.sort(first)
        return keys[order], signs[order]
    seen: set[int] = set()
    out_keys: list[int] = []
    out_signs: list[int] = []
    for key, sign in zip(keys, signs):
        if key not in seen:
            seen.add(key)
            out_keys.append(key)
            out_signs.append(sign)
    return out_keys, out_signs
