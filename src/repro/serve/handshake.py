"""Connection handshake: agree on variant, config digest, and version.

Protocol parameters are public coins — both parties must construct the
*same* :class:`~repro.core.config.ProtocolConfig` (and, per variant, the
:class:`~repro.core.adaptive.AdaptiveConfig` /
:class:`~repro.core.rateless.RatelessConfig` knobs) out of band.  The
handshake does not transmit the config; it transmits a **digest** of the
wire-relevant fields so a drifted peer is rejected before any sketch
bytes flow, with an error message naming the mismatch.

Exchange: the client opens with a ``hello`` frame (magic, version,
variant, digest, and — when resuming an interrupted rateless stream —
a resume token plus next-increment index); the server answers
``welcome`` on agreement (for rateless sessions carrying the resume
token the client may present later), ``error`` (a human-readable
reason, with a machine-readable ``code`` for refusals the client must
react to specially) or a binary ``RETRY_LATER`` frame when shedding
load, before closing.  Handshake frames carry JSON — a few dozen bytes
once per connection, in exchange for painless extensibility; the two
control frames that machines (not humans) consume — the retry-later
refusal and the resume token blob — are fixed binary layouts with their
own magics.
"""

from __future__ import annotations

import hashlib
import json

from repro.core.adaptive import AdaptiveConfig
from repro.core.config import ProtocolConfig
from repro.core.rateless import RatelessConfig
from repro.errors import (
    SerializationError,
    ServerOverloadedError,
    SessionError,
    StaleResumeTokenError,
    SyncRefusedError,
)
from repro.net.bits import BitReader, BitWriter

MAGIC = "repro-serve"
#: Version 2: the hierarchy sketch carries fixed-width level blobs.  A
#: version-1 peer is refused at the hello, before any sketch bytes flow.
WIRE_VERSION = 2

#: First byte of the binary retry-later refusal the server sends instead
#: of a JSON welcome when shedding load.  Distinct from every sketch
#: magic and from ``{`` (0x7B), the first byte of every JSON handshake
#: frame, so the client can dispatch on one byte.
RETRY_LATER_MAGIC = 0xC9

#: First byte of a rateless resume token blob (hex-encoded inside the
#: JSON frames; the client treats the token as opaque).
RESUME_TOKEN_MAGIC = 0xCA

#: Refusal code carried in an ``error`` frame when the presented resume
#: token is unknown/expired — the client reacts by dropping its resume
#: state and retrying from scratch, unlike ordinary (fatal) refusals.
STALE_RESUME_CODE = "stale-resume"

#: ProtocolConfig fields that shape wire bytes (the public-coin contract).
#: The private ``backend`` knob is deliberately absent: peers may differ
#: on it.
_WIRE_FIELDS = (
    "delta", "dimension", "k", "q", "occupancy_bits", "checksum_bits",
    "seed", "diff_margin", "metric", "levels", "random_shift",
)

#: AdaptiveConfig fields that shape wire bytes (all of them).
_ADAPTIVE_FIELDS = (
    "level_stride", "estimator_strata", "estimator_cells",
    "estimator_key_bits", "estimator_checksum_bits", "headroom",
    "include_fallback",
)

#: RatelessConfig fields that shape wire bytes (all of them: the segment
#: schedule is a public coin — both sides must derive identical segment
#: shapes and seeds from it).
_RATELESS_FIELDS = ("level", "initial_cells", "growth", "max_increments")


def config_digest(
    config: ProtocolConfig,
    variant: str = "one-round",
    adaptive: AdaptiveConfig | None = None,
    rateless: RatelessConfig | None = None,
) -> str:
    """Stable 16-hex digest of every parameter that shapes this variant's
    wire bytes."""
    record = {name: getattr(config, name) for name in _WIRE_FIELDS}
    if record["levels"] is not None:
        record["levels"] = list(record["levels"])
    if variant == "adaptive":
        adaptive = adaptive or AdaptiveConfig()
        record["adaptive"] = {
            name: getattr(adaptive, name) for name in _ADAPTIVE_FIELDS
        }
    if variant == "rateless":
        rateless = rateless or RatelessConfig()
        record["rateless"] = {
            name: getattr(rateless, name) for name in _RATELESS_FIELDS
        }
    canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _dump(record: dict) -> bytes:
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


def _load(payload: bytes, kind: str) -> dict:
    try:
        record = json.loads(payload.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"unparseable {kind} frame: {exc}") from exc
    if not isinstance(record, dict):
        raise SerializationError(f"{kind} frame is not a JSON object")
    return record


def hello_bytes(
    variant: str,
    digest: str,
    resume: tuple[str, int] | None = None,
) -> bytes:
    """The client's opening frame.

    ``resume`` — ``(token_hex, next_increment)`` — asks the server to
    continue a previously interrupted rateless stream at increment
    ``next_increment`` instead of restarting from 0.  A plain hello
    (``resume=None``) is byte-identical to previous wire versions.
    """
    record = {
        "magic": MAGIC,
        "version": WIRE_VERSION,
        "variant": variant,
        "digest": digest,
    }
    if resume is not None:
        token, next_index = resume
        record["resume"] = {"token": token, "next": next_index}
    return _dump(record)


def parse_hello(payload: bytes) -> tuple[str, str, int]:
    """Parse a hello frame into ``(variant, digest, version)``.

    Bad JSON or a wrong magic raises
    :class:`~repro.errors.SerializationError` (not our protocol at all);
    a *version* we don't speak raises
    :class:`~repro.errors.SessionError` (our protocol, incompatible
    peer), so the server can answer with a typed refusal.
    """
    variant, digest, version, _ = parse_hello_record(payload)
    return variant, digest, version


def parse_hello_record(
    payload: bytes,
) -> tuple[str, str, int, tuple[str, int] | None]:
    """Parse a hello frame including the optional resume request.

    Returns ``(variant, digest, version, resume)`` where ``resume`` is
    ``(token_hex, next_increment)`` or ``None``.  A malformed resume
    object raises :class:`~repro.errors.SerializationError`.
    """
    record = _load(payload, "hello")
    if record.get("magic") != MAGIC:
        raise SerializationError(
            f"hello magic {record.get('magic')!r} is not {MAGIC!r}"
        )
    version = record.get("version")
    if version != WIRE_VERSION:
        raise SessionError(
            f"peer speaks serve-protocol version {version!r}, "
            f"this build speaks {WIRE_VERSION}"
        )
    variant = record.get("variant")
    digest = record.get("digest")
    if not isinstance(variant, str) or not isinstance(digest, str):
        raise SerializationError("hello frame missing variant/digest strings")
    resume = None
    if "resume" in record:
        request = record["resume"]
        if (
            not isinstance(request, dict)
            or not isinstance(request.get("token"), str)
            or not isinstance(request.get("next"), int)
            or isinstance(request.get("next"), bool)
            or request["next"] < 1
        ):
            raise SerializationError(
                "hello resume request must carry a token string and a "
                "next-increment index >= 1"
            )
        resume = (request["token"], request["next"])
    return variant, digest, version, resume


def welcome_bytes(
    variant: str,
    digest: str,
    token: str | None = None,
    resume_from: int | None = None,
    recovered: dict | None = None,
) -> bytes:
    """The server's acceptance frame.

    Rateless sessions carry ``token`` — the resume handle the client
    presents if this connection dies mid-stream — and, when the server
    accepted a resume request, ``resume_from``, the increment index the
    stream continues at.  A store-backed server additionally stamps its
    ``recovered`` summary (source / generation / replayed records),
    diagnostic only — clients must not branch on it — and a store-less
    welcome (``recovered=None``) stays byte-identical to previous wire
    versions.
    """
    record = {
        "magic": MAGIC,
        "version": WIRE_VERSION,
        "ok": True,
        "variant": variant,
        "digest": digest,
    }
    if token is not None:
        record["token"] = token
    if resume_from is not None:
        record["resume_from"] = resume_from
    if recovered is not None:
        record["recovered"] = recovered
    return _dump(record)


def error_bytes(reason: str, code: str | None = None) -> bytes:
    """The server's refusal frame (sent just before closing).

    ``code`` tags refusals the client must react to mechanically (today
    only :data:`STALE_RESUME_CODE`); human-readable ``reason`` carries
    the rest.
    """
    record = {"magic": MAGIC, "version": WIRE_VERSION, "error": reason}
    if code is not None:
        record["code"] = code
    return _dump(record)


def parse_welcome(payload: bytes) -> dict:
    """Parse the server's reply; refusals raise typed errors.

    A retry-later control frame raises
    :class:`~repro.errors.ServerOverloadedError` (retryable, carries the
    server's backoff hint); an ``error`` frame tagged
    :data:`STALE_RESUME_CODE` raises
    :class:`~repro.errors.StaleResumeTokenError` (retryable after
    dropping resume state); any other ``error`` frame raises
    :class:`~repro.errors.SyncRefusedError` (fatal — the same hello
    would be refused again).
    """
    retry_after = parse_retry_later(payload)
    if retry_after is not None:
        raise ServerOverloadedError(
            f"server overloaded; asked to retry after {retry_after:g}s",
            retry_after=retry_after,
        )
    record = _load(payload, "welcome")
    if record.get("magic") != MAGIC:
        raise SerializationError(
            f"welcome magic {record.get('magic')!r} is not {MAGIC!r}"
        )
    if "error" in record:
        reason = record["error"]
        if record.get("code") == STALE_RESUME_CODE:
            raise StaleResumeTokenError(
                f"server rejected the resume token: {reason}"
            )
        raise SyncRefusedError(f"server refused the session: {reason}")
    if record.get("ok") is not True:
        raise SerializationError("welcome frame is neither ok nor an error")
    return record


# ------------------------------------------------------- control frames


def retry_later_bytes(retry_after: float) -> bytes:
    """The server's overload refusal: binary, fixed layout, with a
    retry-after hint in milliseconds (varint; sub-millisecond hints
    round up so a positive hint never collapses to zero)."""
    millis = max(0, -(-int(retry_after * 1_000_000) // 1000))
    writer = BitWriter()
    writer.write_uint(RETRY_LATER_MAGIC, 8)
    writer.write_uint(WIRE_VERSION, 8)
    writer.write_varint(millis)
    return writer.getvalue()


def parse_retry_later(payload: bytes) -> float | None:
    """Retry-after seconds if ``payload`` is a retry-later frame, else
    ``None``.  A frame that opens with the magic but is malformed raises
    :class:`~repro.errors.SerializationError`."""
    if not payload or payload[0] != RETRY_LATER_MAGIC:
        return None
    reader = BitReader(payload)
    reader.read_uint(8)
    if reader.read_uint(8) != WIRE_VERSION:
        raise SerializationError("unsupported retry-later frame version")
    millis = reader.read_varint()
    reader.expect_end()
    return millis / 1000.0


def resume_token(nonce: int, entry_id: int) -> str:
    """Encode one server-issued resume token (opaque hex to the client).

    ``nonce`` distinguishes server processes (a token minted by a
    previous incarnation must not validate against the entry counter of
    a new one); ``entry_id`` is the server's running session counter.
    """
    writer = BitWriter()
    writer.write_uint(RESUME_TOKEN_MAGIC, 8)
    writer.write_uint(WIRE_VERSION, 8)
    writer.write_uint(nonce & 0xFFFFFFFF, 32)
    writer.write_varint(entry_id)
    return writer.getvalue().hex()


def parse_resume_token(token: str) -> tuple[int, int]:
    """Decode and validate a resume token; returns ``(nonce, entry_id)``.

    Garbage — non-hex text, wrong magic, trailing bytes — raises
    :class:`~repro.errors.SerializationError` so a corrupted token is a
    typed rejection, never a lookup with undefined behaviour.
    """
    try:
        blob = bytes.fromhex(token)
    except ValueError as exc:
        raise SerializationError(f"resume token is not hex: {token!r}") from exc
    reader = BitReader(blob)
    if not blob or reader.read_uint(8) != RESUME_TOKEN_MAGIC:
        raise SerializationError("bad magic byte; not a resume token")
    if reader.read_uint(8) != WIRE_VERSION:
        raise SerializationError("unsupported resume token version")
    nonce = reader.read_uint(32)
    entry_id = reader.read_varint()
    reader.expect_end()
    return nonce, entry_id
