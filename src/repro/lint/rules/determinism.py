"""RPL004 — protocol randomness derives from public coins only.

The paper's guarantees assume both parties draw their randomly-shifted
grids, tabulation tables, and hash salts from a *shared* seed; the wire
format, the level sketches, and golden transcripts are all reproducible
functions of that seed.  Any ambient entropy in protocol code — unseeded
``random`` module functions, ``os.urandom``, ``secrets``,
``random.SystemRandom`` — or any wall-clock read silently breaks
reproducibility in ways no differential test reliably catches.

``random.Random(seed)`` instances are explicitly allowed: that is exactly
how public coins are drawn.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.project import Project
from repro.lint.scopes import PROTOCOL, in_scope

CODE = "RPL004"
NAME = "determinism"
DESCRIPTION = (
    "no unseeded random.* functions, SystemRandom, os.urandom, secrets, "
    "or wall-clock reads in protocol code (random.Random(seed) allowed)"
)

#: ``random`` module attributes that consume the shared global (unseeded)
#: state or the OS entropy pool.
NONDETERMINISTIC_RANDOM = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gammavariate",
        "gauss", "getrandbits", "lognormvariate", "normalvariate",
        "paretovariate", "randbytes", "randint", "random", "randrange",
        "sample", "seed", "setstate", "shuffle", "triangular", "uniform",
        "vonmisesvariate", "weibullvariate", "SystemRandom",
    }
)

#: ``time`` module attributes that read the wall clock / CPU clock.
CLOCK_READS = frozenset(
    {
        "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
        "perf_counter_ns", "process_time", "process_time_ns", "sleep",
        "localtime", "gmtime",
    }
)


def check(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for module in project.modules:
        if not in_scope(module.relpath, PROTOCOL):
            continue
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                findings.extend(_check_import(module, node))
            elif isinstance(node, ast.Attribute):
                findings.extend(_check_attribute(module, node))
    return findings


def _check_import(module, node) -> list[Finding]:
    out: list[Finding] = []
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name.split(".")[0] == "secrets":
                out.append(
                    module.finding(
                        CODE,
                        node.lineno,
                        "protocol code imports 'secrets'; all protocol "
                        "randomness must derive from the shared public-coin "
                        "seed via random.Random(seed)",
                        rule=NAME,
                    )
                )
        return out
    if node.level:
        return out
    top = (node.module or "").split(".")[0]
    if top == "secrets":
        out.append(
            module.finding(
                CODE, node.lineno,
                "protocol code imports from 'secrets'; use the shared "
                "public-coin seed instead",
                rule=NAME,
            )
        )
    elif top == "random":
        for alias in node.names:
            if alias.name != "Random":
                out.append(
                    module.finding(
                        CODE,
                        node.lineno,
                        f"'from random import {alias.name}' pulls unseeded "
                        "global-state randomness into protocol code; only "
                        "random.Random(seed) instances are deterministic",
                        rule=NAME,
                    )
                )
    elif top == "time":
        out.append(
            module.finding(
                CODE, node.lineno,
                "protocol code imports from 'time'; protocol behaviour "
                "must not depend on the clock",
                rule=NAME,
            )
        )
    elif top == "os":
        for alias in node.names:
            if alias.name == "urandom":
                out.append(
                    module.finding(
                        CODE, node.lineno,
                        "'from os import urandom' draws OS entropy in "
                        "protocol code; use the shared public-coin seed",
                        rule=NAME,
                    )
                )
    return out


def _check_attribute(module, node: ast.Attribute) -> list[Finding]:
    base = node.value
    if not isinstance(base, ast.Name):
        return []
    if base.id == "random" and node.attr in NONDETERMINISTIC_RANDOM:
        what = (
            "random.SystemRandom draws OS entropy"
            if node.attr == "SystemRandom"
            else f"random.{node.attr} uses the unseeded global generator"
        )
        return [
            module.finding(
                CODE,
                node.lineno,
                f"{what}; protocol randomness must come from "
                "random.Random(seed) over the shared public coins",
                rule=NAME,
            )
        ]
    if base.id == "os" and node.attr == "urandom":
        return [
            module.finding(
                CODE, node.lineno,
                "os.urandom draws OS entropy in protocol code; use the "
                "shared public-coin seed",
                rule=NAME,
            )
        ]
    if base.id == "time" and node.attr in CLOCK_READS:
        return [
            module.finding(
                CODE, node.lineno,
                f"time.{node.attr} makes protocol behaviour clock-"
                "dependent; timing belongs in the transport layer",
                rule=NAME,
            )
        ]
    if base.id == "secrets":
        return [
            module.finding(
                CODE, node.lineno,
                f"secrets.{node.attr} draws OS entropy in protocol code; "
                "use the shared public-coin seed",
                rule=NAME,
            )
        ]
    return []
