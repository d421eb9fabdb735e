"""Failure injection at the session/transport boundary.

Contract under test (mirrors ``test_failure_injection.py`` one layer up):
**no truncated, duplicated, or mismatched exchange may ever hang or
escape as a non-library exception.**  Truncated frames, stray/duplicated
frames, handshake version and config-digest mismatches, and mid-session
disconnects must all surface as :class:`~repro.errors.SessionError` /
:class:`~repro.errors.SerializationError` within a bounded time.
"""

import asyncio

import pytest

from repro.core.config import ProtocolConfig
from repro.core.rateless import RatelessConfig, reconcile_rateless
from repro.errors import SerializationError, SessionError, StaleResumeTokenError
from repro.net.channel import Direction
from repro.net.faults import ChaosProxy, FaultPlan
from repro.serve import (
    FrameDecoder,
    MAX_FRAME_BYTES,
    ReconciliationServer,
    encode_frame,
    read_frame,
    sync,
)
from repro.serve import handshake
from repro.serve.frames import HEADER
from repro.session.rateless import RatelessResumeState
from repro.workloads.synthetic import perturbed_pair

DELTA = 2048
#: Every async scenario must finish well within this (never hang).
SCENARIO_TIMEOUT = 20.0


def _workload(seed=0):
    return perturbed_pair(seed, 60, DELTA, 2, 3, 2)


def _config(**kwargs):
    defaults = dict(delta=DELTA, dimension=2, k=6, seed=9)
    defaults.update(kwargs)
    return ProtocolConfig(**defaults)


def run_scenario(coro):
    """Run one async scenario with a hard timeout (hang = failure)."""
    async def bounded():
        return await asyncio.wait_for(coro, SCENARIO_TIMEOUT)

    return asyncio.run(bounded())


class TestFrameCodec:
    def test_roundtrip(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frame(b"alpha") + encode_frame(b""))
        assert decoder.next_frame() == b"alpha"
        assert decoder.next_frame() == b""
        assert decoder.next_frame() is None
        assert decoder.at_boundary

    def test_byte_at_a_time(self):
        decoder = FrameDecoder()
        frames = []
        for byte in encode_frame(b"slow"):
            decoder.feed(bytes([byte]))
            frame = decoder.next_frame()
            if frame is not None:
                frames.append(frame)
        assert frames == [b"slow"]

    def test_truncated_frame_is_typed_error_at_eof(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frame(b"whole-frame")[:-3])
        assert decoder.next_frame() is None
        with pytest.raises(SessionError):
            decoder.finish()

    def test_oversized_header_rejected(self):
        decoder = FrameDecoder()
        decoder.feed(HEADER.pack(MAX_FRAME_BYTES + 1))
        with pytest.raises(SerializationError):
            decoder.next_frame()

    def test_encode_rejects_non_bytes(self):
        with pytest.raises(SerializationError):
            encode_frame("text")


def _with_version(hello: bytes, version: int) -> bytes:
    """A hello frame claiming another serve-protocol version."""
    current = b'"version":%d' % handshake.WIRE_VERSION
    assert current in hello
    return hello.replace(current, b'"version":%d' % version)


class TestHandshakeParsing:
    def test_hello_roundtrip(self):
        config = _config()
        digest = handshake.config_digest(config, "adaptive")
        variant, parsed_digest, version = handshake.parse_hello(
            handshake.hello_bytes("adaptive", digest)
        )
        assert (variant, parsed_digest) == ("adaptive", digest)
        assert version == handshake.WIRE_VERSION

    def test_garbage_hello_is_serialization_error(self):
        with pytest.raises(SerializationError):
            handshake.parse_hello(b"\xff\xfe not json")

    def test_wrong_magic_rejected(self):
        with pytest.raises(SerializationError):
            handshake.parse_hello(b'{"magic": "other-protocol"}')

    def test_version_mismatch_is_session_error(self):
        payload = _with_version(handshake.hello_bytes("one-round", "0" * 16), 999)
        with pytest.raises(SessionError, match="version"):
            handshake.parse_hello(payload)

    def test_version_one_hello_is_session_error(self):
        """A peer built before the fixed-width sketch layout speaks
        version 1; it is refused typed at the hello."""
        payload = _with_version(handshake.hello_bytes("one-round", "0" * 16), 1)
        with pytest.raises(SessionError, match="version 1"):
            handshake.parse_hello(payload)

    def test_error_frame_surfaces_reason(self):
        with pytest.raises(SessionError, match="digest mismatch"):
            handshake.parse_welcome(handshake.error_bytes("digest mismatch"))

    def test_digest_separates_wire_relevant_fields(self):
        base = _config()
        assert handshake.config_digest(base) == handshake.config_digest(
            ProtocolConfig(
                delta=DELTA, dimension=2, k=6, seed=9, backend="pure",
            )
        ), "private knobs must not change the digest"
        assert handshake.config_digest(base) != handshake.config_digest(
            _config(seed=10)
        )


class TestHandshakeRejection:
    def test_config_digest_mismatch(self):
        workload = _workload()

        async def scenario():
            async with ReconciliationServer(_config(), workload.alice) as server:
                host, port = server.address
                with pytest.raises(SessionError, match="digest mismatch"):
                    await sync(
                        host, port, _config(seed=10), workload.bob, timeout=5
                    )
                await server.wait_for_sessions(1)
                return server.stats

        (stats,) = run_scenario(scenario())
        assert not stats.ok
        assert "digest mismatch" in stats.error

    def test_unknown_variant_refused(self):
        workload = _workload()

        async def scenario():
            config = _config()
            async with ReconciliationServer(config, workload.alice) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(encode_frame(
                    handshake.hello_bytes("three-round", "0" * 16)
                ))
                await writer.drain()
                reply = await read_frame(reader, timeout=5)
                writer.close()
                with pytest.raises(SessionError, match="variant"):
                    handshake.parse_welcome(reply)

        run_scenario(scenario())

    def test_version_mismatch_refused(self):
        workload = _workload()

        async def scenario():
            config = _config()
            async with ReconciliationServer(config, workload.alice) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                bad_hello = _with_version(
                    handshake.hello_bytes("one-round", server.digest("one-round")),
                    1,
                )
                writer.write(encode_frame(bad_hello))
                await writer.drain()
                reply = await read_frame(reader, timeout=5)
                writer.close()
                with pytest.raises(SessionError, match="version"):
                    handshake.parse_welcome(reply)

        run_scenario(scenario())


class TestWireCorruption:
    def test_truncated_frame_then_disconnect(self):
        """A client dying mid-frame must leave a typed failure, no hang."""
        workload = _workload()

        async def scenario():
            config = _config()
            async with ReconciliationServer(config, workload.alice) as server:
                host, port = server.address
                _, writer = await asyncio.open_connection(host, port)
                whole = encode_frame(
                    handshake.hello_bytes("one-round", server.digest("one-round"))
                )
                writer.write(whole[: len(whole) - 4])
                await writer.drain()
                writer.close()
                await server.wait_for_sessions(1)
                return server.stats

        (stats,) = run_scenario(scenario())
        assert not stats.ok
        assert stats.error  # disconnect surfaced as a typed library error

    def test_probe_connection_ignored(self):
        """Connect-and-close (a health check) is not a session."""
        workload = _workload()

        async def scenario():
            async with ReconciliationServer(_config(), workload.alice) as server:
                host, port = server.address
                _, writer = await asyncio.open_connection(host, port)
                writer.close()
                await writer.wait_closed()
                await asyncio.sleep(0.2)
                assert list(server.stats) == []
                assert server.summary()["sessions"] == 0

        run_scenario(scenario())

    def test_garbage_hello_recorded_as_failure(self):
        workload = _workload()

        async def scenario():
            async with ReconciliationServer(_config(), workload.alice) as server:
                host, port = server.address
                _, writer = await asyncio.open_connection(host, port)
                writer.write(encode_frame(b"\x00garbage, not a hello"))
                await writer.drain()
                writer.close()
                await server.wait_for_sessions(1)
                return server.stats

        (stats,) = run_scenario(scenario())
        assert not stats.ok
        assert "SerializationError" in stats.error

    def test_duplicated_frame_rejected_typed(self):
        """Replaying Bob's adaptive request after the session finished is a
        protocol violation the server must fail typed, never rerun."""
        workload = _workload()

        async def scenario():
            config = _config()
            async with ReconciliationServer(config, workload.alice) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(encode_frame(
                    handshake.hello_bytes("adaptive", server.digest("adaptive"))
                ))
                await writer.drain()
                handshake.parse_welcome(await read_frame(reader, timeout=5))
                from repro.core.adaptive import AdaptiveReconciler

                request = AdaptiveReconciler(config).bob_request(workload.bob)
                # Send the request twice: the Alice session completes on the
                # first and must reject the duplicate.
                writer.write(encode_frame(request) + encode_frame(request))
                await writer.drain()
                window = await read_frame(reader, timeout=5)
                assert window  # the first request was answered normally
                writer.close()
                await server.wait_for_sessions(1)
                return server.stats

        (stats,) = run_scenario(scenario())
        # The server session finished; the duplicate either raced the
        # session teardown (connection closed) or was rejected typed.
        assert stats.variant == "adaptive"

    def test_mid_session_disconnect_client_side(self):
        """A server hanging up after the handshake must raise on the client."""
        workload = _workload()

        async def scenario():
            config = _config()

            async def rude_server(reader, writer):
                await read_frame(reader, timeout=5)  # swallow the hello
                writer.write(encode_frame(handshake.welcome_bytes(
                    "one-round", handshake.config_digest(config)
                )))
                await writer.drain()
                writer.close()  # hang up instead of sending the sketch

            server = await asyncio.start_server(rude_server, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                with pytest.raises(SessionError, match="disconnect"):
                    await sync(
                        "127.0.0.1", port, config, workload.bob, timeout=5
                    )
            finally:
                server.close()
                await server.wait_closed()

        run_scenario(scenario())

    def test_read_timeout_is_session_error(self):
        """A silent peer trips the timeout as a typed error, not a hang."""

        async def scenario():
            async def silent_server(reader, writer):
                await asyncio.sleep(30)

            server = await asyncio.start_server(silent_server, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                with pytest.raises(SessionError, match="timed out"):
                    await read_frame(reader, timeout=0.2)
                writer.close()
            finally:
                server.close()
                await server.wait_closed()

        run_scenario(scenario())

    def test_unreachable_server_is_session_error(self):
        workload = _workload()

        async def scenario():
            # Bind-and-release to get a port nothing listens on.
            probe = await asyncio.start_server(
                lambda r, w: None, "127.0.0.1", 0
            )
            port = probe.sockets[0].getsockname()[1]
            probe.close()
            await probe.wait_closed()
            with pytest.raises(SessionError, match="cannot reach"):
                await sync("127.0.0.1", port, _config(), workload.bob, timeout=5)

        run_scenario(scenario())


class TestRatelessWireFaults:
    """Rateless-specific wire faults: the streaming variant adds frame
    kinds (increments, acks, resume handshakes) with their own failure
    modes, injected here through the chaos proxy."""

    RATELESS = RatelessConfig(initial_cells=8)

    def _rateless_workload(self):
        # A difference large enough that the stream spans several
        # increments — room for faults *between* increment frames.
        return perturbed_pair(3, 120, DELTA, 2, 8, 2)

    def _server(self, workload, **kwargs):
        kwargs.setdefault("rateless", self.RATELESS)
        return ReconciliationServer(_config(), workload.alice, **kwargs)

    async def _sync(self, address, workload, **kwargs):
        kwargs.setdefault("timeout", 5)
        return await sync(
            *address, _config(), workload.bob,
            variant="rateless", rateless=self.RATELESS, **kwargs,
        )

    def test_duplicated_increment_frame_is_typed(self):
        """A replayed increment frame must fail the in-order check with a
        typed SerializationError, never be double-counted into the peel."""
        workload = self._rateless_workload()
        plan = FaultPlan(duplicate=1.0, window=1, only="A->B")

        async def scenario():
            async with self._server(workload, timeout=1.5) as server:
                async with ChaosProxy(*server.address, plan) as proxy:
                    with pytest.raises(
                        SerializationError, match="out of order"
                    ):
                        await self._sync(proxy.address, workload, timeout=0.7)
                    return proxy.trace

        trace = run_scenario(scenario())
        assert ("A->B", 0, "duplicate", 0, 0) in trace

    def test_dropped_increment_frame_times_out_typed(self):
        workload = self._rateless_workload()
        plan = FaultPlan(drop=1.0, window=1, only="A->B")

        async def scenario():
            async with self._server(workload, timeout=1.5) as server:
                async with ChaosProxy(*server.address, plan) as proxy:
                    with pytest.raises(SessionError, match="timed out"):
                        await self._sync(proxy.address, workload, timeout=0.5)
                    return proxy.trace

        trace = run_scenario(scenario())
        assert ("A->B", 0, "drop", 0, 0) in trace

    def test_disconnect_between_increments_then_fresh_sync(self):
        """A cut stream leaves the server consistent: the very next plain
        (resume-free) sync over the same proxy completes correctly."""
        workload = self._rateless_workload()
        clean = reconcile_rateless(
            workload.alice, workload.bob, _config(), self.RATELESS
        )
        plan = FaultPlan(disconnect=(Direction.ALICE_TO_BOB, 1))

        async def scenario():
            async with self._server(workload, timeout=2.0) as server:
                async with ChaosProxy(*server.address, plan) as proxy:
                    with pytest.raises(SessionError):
                        await self._sync(proxy.address, workload, timeout=0.7)
                    # The injector's frame counters are already past the
                    # pinned cut, so the retry sails through untouched.
                    result = await self._sync(proxy.address, workload)
                await server.wait_for_sessions(2)
                return result, server.summary()

        result, summary = run_scenario(scenario())
        assert sorted(result.repaired) == sorted(clean.repaired)
        assert summary == {**summary, "ok": 1, "failed": 1, "resumed": 0}

    def test_fabricated_resume_token_rejected_typed(self):
        """A token the server never issued is refused as a typed
        StaleResumeTokenError — and plain sync() must NOT auto-reset the
        caller's resume state (that is resilient_sync's decision)."""
        workload = self._rateless_workload()

        async def scenario():
            from repro.iblt.decode import PeelState

            resume = RatelessResumeState()
            resume.token = handshake.resume_token(0xBEEF, 3)
            resume.peel = PeelState()
            resume.next_index = 2
            async with self._server(workload) as server:
                with pytest.raises(StaleResumeTokenError, match="unknown"):
                    await self._sync(server.address, workload, resume=resume)
                await server.wait_for_sessions(1)
                return resume, server.summary()

        resume, summary = run_scenario(scenario())
        assert resume.token is not None, "sync() must not reset resume state"
        assert resume.next_index == 2
        assert summary == {**summary, "ok": 0, "failed": 1, "resumed": 0}

    def test_garbage_resume_token_rejected_typed(self):
        workload = self._rateless_workload()

        async def scenario():
            from repro.iblt.decode import PeelState

            resume = RatelessResumeState()
            resume.token = "zzz-not-a-token"
            resume.peel = PeelState()
            resume.next_index = 1
            async with self._server(workload) as server:
                with pytest.raises(
                    StaleResumeTokenError, match="unparseable"
                ):
                    await self._sync(server.address, workload, resume=resume)

        run_scenario(scenario())

    def test_resume_index_beyond_watermark_rejected_typed(self):
        """A token the server DID issue cannot resume past what was
        actually streamed on it."""
        workload = self._rateless_workload()

        async def scenario():
            from repro.iblt.decode import PeelState

            resume = RatelessResumeState()
            async with self._server(workload) as server:
                first = await self._sync(
                    server.address, workload, resume=resume
                )
                assert resume.completed and resume.token is not None
                # Forge an in-progress state far beyond the watermark.
                beyond = RatelessResumeState()
                beyond.token = resume.token
                beyond.peel = PeelState()
                beyond.next_index = 10_000
                with pytest.raises(
                    StaleResumeTokenError, match="cannot resume"
                ):
                    await self._sync(server.address, workload, resume=beyond)
                return first

        run_scenario(scenario())
