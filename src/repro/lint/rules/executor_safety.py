"""RPL007 — functions submitted to the encode's executor must not mutate
shared state.

Alice's encode builds one IBLT per grid level as one task each, run
inline or over a thread pool (see ``build_level_sketches`` and its
``_build_level`` task in :mod:`repro.core.sketch`).  The same task
function must be correct both ways, which it is only when it communicates
through its arguments and return value alone: a task that mutates a
module global or a closed-over mutable is a data race under the thread
pool, and one that passes inline can still corrupt a table when threaded
— far nastier to debug than this rule is to satisfy.

This is a race-detector-*lite*: it analyses the body of every function
whose *name* is passed to a ``.map(...)`` / ``.submit(...)`` call inside
``core/sketch.py`` (plus lambdas submitted inline), flagging

* ``global`` / ``nonlocal`` declarations,
* stores through subscripts or attributes whose base name is not bound
  locally (``CACHE[k] = v``, ``obj.attr = v``),
* known mutating method calls on names not bound locally
  (``RESULTS.append(...)``, ``SEEN.update(...)``).

Reads of globals (constants, other functions) are fine; calls into other
functions are not followed.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.project import Project, SourceModule

CODE = "RPL007"
NAME = "executor-safety"
DESCRIPTION = (
    "level tasks submitted to core/sketch.py's executor must not mutate "
    "module globals or closed-over mutables"
)

#: Method names that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "add", "append", "appendleft", "clear", "discard", "extend",
        "extendleft", "insert", "pop", "popitem", "remove", "reverse",
        "setdefault", "sort", "update",
    }
)

#: The one module that fans work out to an executor.
_SCOPE_PREFIX = "core/sketch.py"


def check(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for module in project.modules:
        if not module.relpath.startswith(_SCOPE_PREFIX):
            continue
        functions = {
            node.name: node
            for node in module.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        analysed: set[str] = set()
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("map", "submit")
                and node.args
            ):
                continue
            submitted = node.args[0]
            if isinstance(submitted, ast.Lambda):
                findings.extend(
                    _analyse(module, submitted, f"<lambda:{submitted.lineno}>",
                             node.lineno)
                )
            elif isinstance(submitted, ast.Name) and submitted.id in functions:
                if submitted.id in analysed:
                    continue
                analysed.add(submitted.id)
                findings.extend(
                    _analyse(module, functions[submitted.id], submitted.id,
                             node.lineno)
                )
    return findings


def _local_names(fn) -> set[str]:
    """Names bound anywhere inside ``fn`` (over-approximate, so flagged
    names are definitely non-local)."""
    names: set[str] = set()
    args = fn.args
    for arg in (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    ):
        names.add(arg.arg)
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    body = fn.body if isinstance(fn.body, list) else [fn.body]
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                names.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    inner = node.args
                    for arg in (
                        list(inner.posonlyargs)
                        + list(inner.args)
                        + list(inner.kwonlyargs)
                    ):
                        names.add(arg.arg)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    names.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ExceptHandler) and node.name:
                names.add(node.name)
            elif isinstance(node, ast.Lambda):
                inner = node.args
                for arg in (
                    list(inner.posonlyargs)
                    + list(inner.args)
                    + list(inner.kwonlyargs)
                ):
                    names.add(arg.arg)
    return names


def _base_name(node: ast.expr) -> str | None:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _analyse(
    module: SourceModule, fn, label: str, call_line: int
) -> list[Finding]:
    findings: list[Finding] = []
    local = _local_names(fn)

    def flag(lineno: int, message: str) -> None:
        findings.append(
            module.finding(
                CODE,
                lineno,
                f"{label} (submitted to an executor at line {call_line}) "
                f"{message}; executor tasks must communicate only through "
                "arguments and return values",
                rule=NAME,
            )
        )

    body = fn.body if isinstance(fn.body, list) else [fn.body]
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Global):
                flag(node.lineno,
                     f"declares global {', '.join(node.names)}")
            elif isinstance(node, ast.Nonlocal):
                flag(node.lineno,
                     f"declares nonlocal {', '.join(node.names)}")
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if not isinstance(target, (ast.Subscript, ast.Attribute)):
                        continue
                    base = _base_name(target)
                    if base is not None and base not in local and base != "self":
                        flag(node.lineno,
                             f"writes through non-local name {base!r}")
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if not isinstance(target, (ast.Subscript, ast.Attribute)):
                        continue
                    base = _base_name(target)
                    if base is not None and base not in local:
                        flag(node.lineno,
                             f"deletes through non-local name {base!r}")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_METHODS
            ):
                base = _base_name(node.func.value)
                if base is not None and base not in local:
                    flag(
                        node.lineno,
                        f"calls mutating method .{node.func.attr}() on "
                        f"non-local name {base!r}",
                    )
    return findings
