"""RPL005 — wire magic bytes are defined once and imported, never re-typed.

Every framed payload opens with a one-byte magic (``0xB5`` sketch, ``0xB7``
level sketch, ``0xAD``/``0xAE`` adaptive rounds,
``0xC7`` rateless increment, ``0xC8`` rateless ack).  Each value must be
bound to exactly one ``*_MAGIC`` module constant, and every other mention
must reference that name: a re-typed hex literal is how two frame types end
up sharing a byte — a corruption that decodes cleanly on the wrong parser.

The rule finds all module-level ``<NAME ending in MAGIC> = <int>``
assignments, flags duplicate values, then flags any *hex-written* integer
literal equal to a registered magic outside its defining assignment.
(Hex spelling is the signature of a re-typed wire constant; matching every
decimal occurrence of small integers would drown the rule in noise.)
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.findings import Finding
from repro.lint.project import Project, SourceModule

CODE = "RPL005"
NAME = "wire-magic-uniqueness"
DESCRIPTION = (
    "each *_MAGIC wire byte is assigned exactly once and referenced by "
    "name, never re-typed as a hex literal"
)


@dataclass(frozen=True)
class MagicDef:
    value: int
    name: str
    relpath: str
    line: int


def magic_definitions(project: Project) -> list[MagicDef]:
    """Every module-level ``X*MAGIC = <int literal>`` in the tree."""
    defs: list[MagicDef] = []
    for module in project.modules:
        for node in module.tree.body:
            targets: list[ast.expr]
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if not (isinstance(value, ast.Constant) and isinstance(value.value, int)):
                continue
            if isinstance(value.value, bool):
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id.endswith("MAGIC"):
                    defs.append(
                        MagicDef(value.value, target.id, module.relpath, node.lineno)
                    )
    return defs


def _is_hex_literal(module: SourceModule, node: ast.Constant) -> bool:
    line = module.line(node.lineno)
    return line[node.col_offset : node.col_offset + 2].lower() == "0x"


def check(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    defs = magic_definitions(project)
    by_value: dict[int, list[MagicDef]] = {}
    for definition in defs:
        by_value.setdefault(definition.value, []).append(definition)

    # One value, one definition.
    for value, definitions in sorted(by_value.items()):
        definitions.sort(key=lambda d: (d.relpath, d.line))
        for extra in definitions[1:]:
            first = definitions[0]
            findings.append(
                Finding(
                    path=extra.relpath,
                    line=extra.line,
                    code=CODE,
                    message=(
                        f"wire magic {value:#x} defined again as "
                        f"{extra.name}; already bound to {first.name} at "
                        f"{first.relpath}:{first.line} — import that name"
                    ),
                    rule=NAME,
                )
            )

    # No re-typed hex occurrences outside the defining assignment line.
    def_lines = {(d.relpath, d.line) for d in defs}
    magic_values = set(by_value)
    for module in project.modules:
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Constant)
                and isinstance(node.value, int)
                and not isinstance(node.value, bool)
            ):
                continue
            if node.value not in magic_values:
                continue
            if (module.relpath, node.lineno) in def_lines:
                continue
            if not _is_hex_literal(module, node):
                continue
            owner = by_value[node.value][0]
            findings.append(
                module.finding(
                    CODE,
                    node.lineno,
                    f"wire magic {node.value:#x} re-typed as a literal; "
                    f"import {owner.name} from {owner.relpath} instead",
                    rule=NAME,
                )
            )
    return findings
