"""Transport differential: simulation vs asyncio loopback vs real TCP.

Acceptance contract of the sans-I/O refactor: for every protocol variant,
a simulated-channel run, an in-process asyncio loopback run, and a
loopback-TCP run must produce (a) **equal repaired multisets** and (b)
**equal payload bytes per message**, in the same order with the same
labels.  The transports may only move bytes — never shape them.

The shared-core leg extends the same contract across servers: several
servers over one warmed :class:`~repro.serve.ServerCore` ship the same
bytes as a cold one.
"""

import asyncio

import pytest

from repro.core.adaptive import reconcile_adaptive
from repro.core.config import ProtocolConfig
from repro.core.protocol import reconcile
from repro.core.rateless import RatelessConfig, reconcile_rateless
from repro.errors import ConfigError
from repro.net.channel import LoopbackChannel, SimulatedChannel
from repro.serve import ReconciliationServer, ServerCore, handshake, sync
from repro.serve.frames import read_frame, write_frame
from repro.session import make_session, run_async
from repro.session.driver import outbound_messages
from repro.workloads.synthetic import perturbed_pair

DELTA = 4096

#: (variant, config kwargs, simulated-channel runner)
VARIANTS = [
    ("one-round", {}, reconcile),
    ("adaptive", {}, reconcile_adaptive),
    ("rateless", {}, reconcile_rateless),
]


def _setup(variant_kwargs, seed):
    workload = perturbed_pair(seed, 90, DELTA, 2, 4, 2)
    config = ProtocolConfig(
        delta=DELTA, dimension=2, k=10, seed=seed, **variant_kwargs
    )
    return workload, config


def _message_triples(channel):
    return [
        (m.direction, m.label, m.payload) for m in channel.messages
    ]


@pytest.mark.parametrize("variant,kwargs,runner", VARIANTS,
                         ids=[v for v, _, _ in VARIANTS])
class TestTransportDifferential:
    def test_tcp_equals_simulated(self, variant, kwargs, runner):
        workload, config = _setup(kwargs, seed=11)
        simulated_channel = SimulatedChannel()
        simulated = runner(
            workload.alice, workload.bob, config, channel=simulated_channel
        )

        async def over_tcp():
            tcp_channel = SimulatedChannel()
            async with ReconciliationServer(config, workload.alice) as server:
                host, port = server.address
                result = await sync(
                    host, port, config, workload.bob,
                    variant=variant, channel=tcp_channel, timeout=10,
                )
            return result, tcp_channel

        result, tcp_channel = asyncio.run(over_tcp())
        # (a) equal repaired multisets.
        assert sorted(result.repaired) == sorted(simulated.repaired)
        # (b) equal payload bytes per message, same order/direction/label.
        assert _message_triples(tcp_channel) == _message_triples(
            simulated_channel
        )
        assert result.transcript == simulated.transcript

    def test_loopback_asyncio_equals_simulated(self, variant, kwargs, runner):
        workload, config = _setup(kwargs, seed=12)
        simulated_channel = SimulatedChannel()
        simulated = runner(
            workload.alice, workload.bob, config, channel=simulated_channel
        )

        async def over_loopback():
            channel = LoopbackChannel()
            alice = make_session(variant, "alice", config, workload.alice)
            bob = make_session(variant, "bob", config, workload.bob)
            _, result = await asyncio.gather(
                run_async(alice, channel), run_async(bob, channel)
            )
            return result, channel

        result, loopback_channel = asyncio.run(over_loopback())
        assert sorted(result.repaired) == sorted(simulated.repaired)
        assert _message_triples(loopback_channel) == _message_triples(
            simulated_channel
        )


class TestServerReuse:
    def test_one_server_many_variants_and_clients(self):
        """One server instance serves every variant, sequentially and
        concurrently, with per-session stats for each."""
        workload, config = _setup({}, seed=13)
        expected = {
            variant: runner(workload.alice, workload.bob,
                            ProtocolConfig(delta=DELTA, dimension=2, k=10,
                                           seed=13, **kw))
            for variant, kw, runner in VARIANTS
        }

        async def scenario():
            async with ReconciliationServer(config, workload.alice) as server:
                host, port = server.address
                results = await asyncio.gather(*[
                    sync(host, port, config, workload.bob,
                         variant=variant, timeout=10)
                    for variant, _, _ in VARIANTS
                ])
                return server, dict(zip([v for v, _, _ in VARIANTS], results))

        server, results = asyncio.run(scenario())
        for variant, result in results.items():
            assert sorted(result.repaired) == sorted(
                expected[variant].repaired
            ), variant
        summary = server.summary()
        assert summary["sessions"] == len(VARIANTS)
        assert summary["ok"] == len(VARIANTS)
        assert {s.variant for s in server.stats} == {
            "one-round", "adaptive", "rateless",
        }
        for stats in server.stats:
            assert stats.transcript is not None
            assert stats.duration_s > 0
            assert stats.to_dict()["transcript"]["total_bits"] > 0

    def test_concurrency_bounded_by_semaphore(self):
        """max_sessions=1 still serves every client (queued, not dropped)."""
        workload, config = _setup({}, seed=14)

        async def scenario():
            async with ReconciliationServer(
                config, workload.alice, max_sessions=1
            ) as server:
                host, port = server.address
                results = await asyncio.gather(*[
                    sync(host, port, config, workload.bob, timeout=10)
                    for _ in range(5)
                ])
                return server, results

        server, results = asyncio.run(scenario())
        assert len(results) == 5
        assert server.summary()["ok"] == 5
        first = sorted(results[0].repaired)
        assert all(sorted(r.repaired) == first for r in results)

    def test_close_drains_in_flight_session(self):
        """``close()`` mid-session stops accepting but lets the session
        it is serving finish, and records it."""
        workload, config = _setup({}, seed=17)
        expected = sorted(
            reconcile_rateless(workload.alice, workload.bob, config).repaired
        )

        async def scenario():
            server = ReconciliationServer(config, workload.alice)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            await write_frame(writer, handshake.hello_bytes(
                "rateless", server.digest("rateless")
            ))
            handshake.parse_welcome(await read_frame(reader))
            first = await read_frame(reader)  # increment 0 in flight
            closing = asyncio.ensure_future(server.close())
            await asyncio.sleep(0.1)
            with pytest.raises(OSError):
                await asyncio.open_connection(host, port)
            session = make_session("rateless", "bob", config, workload.bob)
            for message in outbound_messages(session.start()):
                await write_frame(writer, message.payload)
            output = session.feed(first)
            while True:
                for message in outbound_messages(output):
                    await write_frame(writer, message.payload)
                if session.done:
                    break
                output = session.feed(await read_frame(reader))
            writer.close()
            await closing
            return session.result, server.summary()

        result, summary = asyncio.run(asyncio.wait_for(scenario(), 30))
        assert sorted(result.repaired) == expected
        assert summary["sessions"] == 1 and summary["ok"] == 1


class TestSharedCore:
    """One :class:`ServerCore` warmed up front and served by several
    servers: the warm changes no byte, and the servers agree."""

    RATELESS = RatelessConfig(initial_cells=8)

    def test_warm_prebuilds_every_cache(self):
        workload, config = _setup({}, seed=15)
        core = ServerCore(
            config, workload.alice, rateless=self.RATELESS
        ).warm()
        assert "one-round" in core._encoded
        # The warmed payload is exactly what a cold encode produces.
        cold = ServerCore(config, workload.alice, rateless=self.RATELESS)
        assert core.encoded("one-round") == cold.encoded("one-round")
        assert core.reconciler("rateless").alice_increment(
            core.points, 0
        ) == cold.reconciler("rateless").alice_increment(cold.points, 0)

    def test_core_and_config_are_mutually_exclusive(self):
        workload, config = _setup({}, seed=15)
        core = ServerCore(config, workload.alice)
        with pytest.raises(ConfigError):
            ReconciliationServer(config, workload.alice, core=core)
        with pytest.raises(ConfigError):
            ReconciliationServer()
        with pytest.raises(ConfigError):
            ReconciliationServer(core=core, rateless=self.RATELESS)

    def test_one_core_many_servers_identical_payloads(self):
        """Two servers over one core ship byte-identical sessions."""
        workload, config = _setup({}, seed=16)
        core = ServerCore(
            config, workload.alice, rateless=self.RATELESS
        ).warm()

        async def scenario():
            triples = []
            for _ in range(2):
                async with ReconciliationServer(core=core) as server:
                    channel = SimulatedChannel()
                    await sync(
                        *server.address, config, list(workload.bob),
                        variant="one-round", channel=channel, timeout=10,
                    )
                    triples.append(_message_triples(channel))
            return triples

        triples = asyncio.run(scenario())
        core.close()
        assert triples[0] == triples[1]


class TestStoreDifferential:
    """Durable store on vs off: the store may not shape a single payload
    byte.  A server answering from a bulk-loaded store, and a server
    answering from a *recovered* store (fresh process over the same
    directory), must both ship payload sequences byte-identical to the
    storeless server, for every variant."""

    @pytest.mark.parametrize("variant,kwargs,runner", VARIANTS,
                             ids=[v for v, _, _ in VARIANTS])
    def test_store_backed_payloads_byte_identical(
        self, variant, kwargs, runner, tmp_path
    ):
        from repro.serve import ServerCore
        from repro.store import DurableSketchStore

        workload, config = _setup(kwargs, seed=19)

        def run_against(make_core):
            async def scenario():
                channel = SimulatedChannel()
                core = make_core()
                if core is None:
                    server = ReconciliationServer(config, workload.alice)
                else:
                    server = ReconciliationServer(core=core)
                async with server:
                    result = await sync(
                        *server.address, config, workload.bob,
                        variant=variant, channel=channel, timeout=10,
                    )
                return result, channel

            return asyncio.run(scenario())

        plain_result, plain_channel = run_against(lambda: None)

        store = DurableSketchStore.open(config, str(tmp_path))
        store.bulk_load(workload.alice)
        live_result, live_channel = run_against(
            lambda: ServerCore(config, workload.alice, store=store)
        )
        assert _message_triples(live_channel) == _message_triples(
            plain_channel
        )
        assert sorted(live_result.repaired) == sorted(plain_result.repaired)

        recovered = DurableSketchStore.open(config, str(tmp_path))
        rec_result, rec_channel = run_against(
            lambda: ServerCore(config, workload.alice, store=recovered)
        )
        assert _message_triples(rec_channel) == _message_triples(
            plain_channel
        )
        assert sorted(rec_result.repaired) == sorted(plain_result.repaired)
        # The recovery diagnostic rides the welcome, not the payloads.
        assert getattr(plain_result, "recovered", None) is None
        assert rec_result.recovered["source"] == "snapshot"
