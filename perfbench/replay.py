"""Record one real sync's frames, then replay Bob's side and verify.

A replayed session speaks Bob's recorded frames to a live server and
byte-compares every frame the server sends back after the welcome.
The welcome itself is parsed but not compared: a rateless welcome
carries a resume token seeded from the clock.  Bob's decode is never
run, so a replay measures the server and the serve layer alone.

Any difference from the recording is a :class:`ReplayMismatch`, which
fails the benchmark run; it is never folded into a timing.
"""

from __future__ import annotations

import asyncio
import hashlib
from dataclasses import dataclass

from repro.net.channel import Direction, Message, SimulatedChannel, count_rounds
from repro.serve import handshake, service


class ReplayMismatch(Exception):
    """A server frame differed from the recording."""


@dataclass(frozen=True)
class Recording:
    """The frames of one sync, in the order the client saw them."""

    hello: bytes
    messages: tuple[Message, ...]

    @property
    def payload_bytes(self) -> int:
        return sum(len(message.payload) for message in self.messages)

    @property
    def rounds(self) -> int:
        return count_rounds(self.messages)

    def digest(self) -> str:
        h = hashlib.sha256(self.hello)
        for message in self.messages:
            h.update(message.direction.name.encode())
            h.update(len(message.payload).to_bytes(8, "big"))
            h.update(message.payload)
        return h.hexdigest()


async def record(host, port, config, points, variant: str, **sync_kwargs):
    """Run one real sync and keep its frames; returns (recording, result)."""
    channel = SimulatedChannel()
    result = await service.sync(
        host, port, config, points, variant=variant, channel=channel,
        **sync_kwargs,
    )
    digest = handshake.config_digest(config, variant)
    recording = Recording(
        hello=handshake.hello_bytes(variant, digest),
        messages=tuple(channel.messages),
    )
    return recording, result


async def replay(host, port, recording: Recording, timeout: float = 30.0):
    """One replayed session; raises :class:`ReplayMismatch` on any drift.

    Frames go through ``repro.serve.service``'s framing names, looked up
    at call time, so a traced run counts the client's frames alongside
    the server's.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        await service.write_frame(writer, recording.hello, timeout=timeout)
        handshake.parse_welcome(
            await service.read_frame(reader, timeout=timeout)
        )
        for index, message in enumerate(recording.messages):
            if message.direction is Direction.BOB_TO_ALICE:
                await service.write_frame(
                    writer, message.payload, timeout=timeout
                )
                continue
            got = await service.read_frame(reader, timeout=timeout)
            if got != message.payload:
                raise ReplayMismatch(
                    f"server frame {index} differs from the recording "
                    f"({len(got)} B vs {len(message.payload)} B recorded)"
                )
    finally:
        await service.close_writer(writer)
