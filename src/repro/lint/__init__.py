"""repro-lint — AST-based invariant checks for this codebase.

The repository rests on invariants no general-purpose linter knows about:
sessions and codecs are sans-I/O (PR 4), numpy is an optional extra with
bit-identical pure fallbacks (PRs 1/5), all protocol randomness derives
from the shared public-coin seed, library errors flow through the
``ReproError`` hierarchy, wire magic bytes are single-sourced, backends
honour the full primitive contract, and fan-out tasks stay executor-safe.
``repro.lint`` checks them mechanically on every PR::

    python -m repro.lint src/repro              # text output
    python -m repro.lint src/repro --format json

Rules (stable codes; see README "Static analysis" for the full table):

====== ======================= ==========================================
RPL001 sans-io-purity          no socket/asyncio/selectors/ssl/time in
                               the protocol core
RPL002 numpy-optional          numpy imports guarded, pure fallback bound
RPL003 typed-errors            raises are ReproError subclasses
RPL004 determinism             public-coin randomness only, no clocks
RPL005 wire-magic-uniqueness   magic bytes defined once, never re-typed
RPL006 backend-contract        registered backends implement the full
                               primitive set, signature-compatibly
RPL007 executor-safety         fan-out tasks mutate no shared state
====== ======================= ==========================================

Meta-codes: ``RPL900`` malformed waiver, ``RPL901`` stale waiver,
``RPL902`` unparsable file.

A reviewed exception is recorded inline, reason mandatory::

    # repro-lint: waive[RPL003] reason=control flow; caught below

Exit codes: ``0`` clean, ``1`` findings, ``2`` runner error.
"""

from __future__ import annotations

from repro.lint.engine import resolve_root, run_lint
from repro.lint.findings import Finding, LintReport
from repro.lint.rules import ALL_RULES, RULES_BY_CODE, WAIVABLE_CODES
from repro.lint.waivers import MALFORMED_WAIVER, STALE_WAIVER

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintReport",
    "MALFORMED_WAIVER",
    "RULES_BY_CODE",
    "STALE_WAIVER",
    "WAIVABLE_CODES",
    "resolve_root",
    "run_lint",
]
