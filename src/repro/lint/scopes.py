"""Which parts of the tree each invariant protects.

Scopes are posix path prefixes relative to the ``repro`` package root.
They are defined once here — not inside the rules — so the protected
surface is reviewable at a glance and rules cannot drift apart on what
"protocol code" means.
"""

from __future__ import annotations

from typing import Iterable

#: Modules that must stay sans-I/O: the protocol state machines and every
#: substrate they are built on.  The transports (``serve/``, ``net/channel``)
#: and the drivers wrapping sessions for asyncio live *outside* this set on
#: purpose — they are the I/O layer.
SANS_IO = (
    "session/",
    "core/",
    "iblt/",
    "gf/",
    "net/bits.py",
    "net/codec.py",
)

#: Protocol code whose behaviour must be a pure function of inputs and the
#: shared public-coin seed: the sans-I/O set.
PROTOCOL = SANS_IO

#: The one module allowed to assume numpy exists at *use* time (it is the
#: numpy backend); even it must keep the import itself guarded because the
#: backend registry imports it unconditionally.
NUMPY_BACKEND = "iblt/backends/vector.py"


def in_scope(relpath: str, prefixes: Iterable[str]) -> bool:
    """True when ``relpath`` is one of, or lies under, the given prefixes."""
    for prefix in prefixes:
        if prefix.endswith("/"):
            if relpath.startswith(prefix):
                return True
        elif relpath == prefix:
            return True
    return False
