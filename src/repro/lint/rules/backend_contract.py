"""RPL006 — registered IBLT backends implement the full primitive set.

Backends promise bit-compatibility with the pure reference; the engine,
codec, and decoder reach them only through the primitives declared on
:class:`repro.iblt.backends.base.Backend`.  A backend that silently drops
or reshapes a primitive keeps working on the paths tests happen to cover
and corrupts the rest.  Unlike the other rules this one inspects *live
classes* from the backend registry (so it also covers third-party
backends registered at import time), not just source ASTs:

* every primitive must be present and callable;
* no abstract method may be left unimplemented;
* overridden primitives must be :func:`inspect.signature`-compatible with
  the base declaration — same leading parameters (name, kind, order);
  extra trailing parameters must carry defaults;
* ``available()`` must answer without raising (resolution calls it on
  every table build).
"""

from __future__ import annotations

import inspect
from pathlib import Path

from repro.lint.findings import Finding
from repro.lint.project import Project

CODE = "RPL006"
NAME = "backend-contract"
DESCRIPTION = (
    "every registered IBLT backend implements the full primitive set of "
    "backends/base.py with signature-compatible overrides"
)

#: The complete primitive surface the library calls on a backend.
PRIMITIVES = (
    "available",
    "supports",
    "apply",
    "apply_batch",
    "subtract",
    "copy",
    "load_rows",
    "cell",
    "rows",
    "rows_arrays",
    "is_empty",
    "nonzero_cells",
    "cell_is_pure",
    "pure_cells",
    "pure_mask",
    "gather_cells",
)

_VARIADIC = (
    inspect.Parameter.VAR_POSITIONAL,
    inspect.Parameter.VAR_KEYWORD,
)


def _class_location(project: Project, cls) -> tuple[str, int]:
    """Best-effort (path, line) for a live class, relative to the root."""
    try:
        filename = inspect.getsourcefile(cls)
        line = inspect.getsourcelines(cls)[1]
    except (OSError, TypeError):
        return f"<{cls.__module__}.{cls.__qualname__}>", 1
    path = Path(filename or "")
    try:
        return path.resolve().relative_to(project.root.resolve()).as_posix(), line
    except ValueError:
        return path.as_posix(), line


def _signature_problems(base_fn, impl_fn) -> list[str]:
    """Why ``impl_fn`` cannot stand in for ``base_fn`` (empty = compatible)."""
    try:
        base_params = list(inspect.signature(base_fn).parameters.values())
        impl_params = list(inspect.signature(impl_fn).parameters.values())
    except (TypeError, ValueError):
        return ["signature is not introspectable"]
    problems: list[str] = []
    impl_variadic = any(p.kind in _VARIADIC for p in impl_params)
    positional = [p for p in impl_params if p.kind not in _VARIADIC]
    for index, base_param in enumerate(base_params):
        if base_param.kind in _VARIADIC:
            continue
        if index >= len(positional):
            if not impl_variadic:
                problems.append(f"missing parameter {base_param.name!r}")
            continue
        impl_param = positional[index]
        if impl_param.name != base_param.name:
            problems.append(
                f"parameter {index} is {impl_param.name!r}, base declares "
                f"{base_param.name!r}"
            )
        elif impl_param.kind != base_param.kind:
            problems.append(
                f"parameter {impl_param.name!r} is {impl_param.kind.name}, "
                f"base declares {base_param.kind.name}"
            )
    required = sum(1 for p in base_params if p.kind not in _VARIADIC)
    for extra in positional[required:]:
        if extra.default is inspect.Parameter.empty:
            problems.append(
                f"extra parameter {extra.name!r} has no default; callers "
                "use the base signature"
            )
    return problems


def check(project: Project, registry=None) -> list[Finding]:
    if registry is None:
        registry = _live_registry(project)
        if registry is None:
            return []
    from repro.iblt.backends.base import Backend

    findings: list[Finding] = []
    for name in sorted(registry):
        cls = registry[name]
        path, line = _class_location(project, cls)

        def flag(message: str, at_line: int = line) -> None:
            findings.append(
                Finding(path=path, line=at_line, code=CODE,
                        message=f"backend {name!r}: {message}", rule=NAME)
            )

        leftover = sorted(getattr(cls, "__abstractmethods__", ()) or ())
        if leftover:
            flag("abstract primitives left unimplemented: " + ", ".join(leftover))
        try:
            if not isinstance(cls.available(), bool):
                flag("available() must return a bool")
        except Exception as exc:  # noqa: BLE001 - report, don't crash the lint
            flag(f"available() raised {type(exc).__name__}: {exc}")
        for primitive in PRIMITIVES:
            impl = getattr(cls, primitive, None)
            if impl is None or not callable(impl):
                flag(f"missing primitive {primitive}()")
                continue
            base_fn = getattr(Backend, primitive)
            if getattr(impl, "__func__", impl) is getattr(
                base_fn, "__func__", base_fn
            ):
                continue  # inherited unchanged: compatible by construction
            for problem in _signature_problems(base_fn, impl):
                impl_line = line
                try:
                    impl_line = inspect.getsourcelines(impl)[1]
                except (OSError, TypeError):
                    pass
                flag(f"{primitive}() signature incompatible with the base "
                     f"contract: {problem}", at_line=impl_line)
    return findings


def _live_registry(project: Project):
    """The real backend registry — only when linting the installed package.

    When the project root is some *other* tree (rule fixtures in tests, a
    vendored copy), inspecting this process's registry would attribute
    findings to files that are not part of the run, so the rule opts out.
    """
    import repro
    from repro.iblt.backends import registered_backends

    package_root = Path(repro.__file__).resolve().parent
    if project.root.resolve() != package_root:
        return None
    return registered_backends()
