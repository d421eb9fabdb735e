"""Retry policy, typed failure classification, resumption, and shedding.

The resilience contract: transient transport failures are retried with
seeded (deterministic) backoff, interrupted rateless streams resume
instead of restarting, stale resume tokens reset and restart, fatal
refusals surface immediately, and a saturated server sheds load with a
typed ``RETRY_LATER`` carrying a retry-after hint the client honours.
"""

import asyncio

import pytest

from repro.core.config import ProtocolConfig
from repro.core.rateless import RatelessConfig, reconcile_rateless
from repro.errors import (
    ChannelError,
    ConfigError,
    ReconciliationFailure,
    RetryExhaustedError,
    SerializationError,
    ServerOverloadedError,
    SessionError,
    StaleResumeTokenError,
    SyncRefusedError,
)
from repro.net.channel import Direction
from repro.net.faults import ChaosProxy, FaultPlan
from repro.serve import (
    FATAL,
    RESET,
    RETRY,
    ReconciliationServer,
    RetryPolicy,
    classify,
    resilient_sync,
    sync,
)
from repro.session.rateless import RatelessResumeState
from repro.workloads.synthetic import perturbed_pair

DELTA = 2048
SCENARIO_TIMEOUT = 20.0
#: Rateless knob forcing a multi-increment stream (room to interrupt it).
RATELESS = RatelessConfig(initial_cells=8)


def run_scenario(coro):
    async def bounded():
        return await asyncio.wait_for(coro, SCENARIO_TIMEOUT)

    return asyncio.run(bounded())


def _config(**kwargs):
    defaults = dict(delta=DELTA, dimension=2, k=6, seed=9)
    defaults.update(kwargs)
    return ProtocolConfig(**defaults)


def _workload(seed=3):
    return perturbed_pair(seed, 120, DELTA, 2, 8, 2)


def _fast_policy(**kwargs):
    defaults = dict(attempts=5, base_delay=0.005, max_delay=0.02, seed=1)
    defaults.update(kwargs)
    return RetryPolicy(**defaults)


class TestClassify:
    @pytest.mark.parametrize("error,verdict", [
        (SessionError("timed out"), RETRY),
        (SerializationError("mangled frame"), RETRY),
        (ChannelError("closed"), RETRY),
        (ServerOverloadedError("shed", retry_after=0.1), RETRY),
        (StaleResumeTokenError("unknown token"), RESET),
        (SyncRefusedError("digest mismatch"), FATAL),
        (ReconciliationFailure("cap exceeded"), FATAL),
        (ConfigError("bad k"), FATAL),
        (ValueError("not even a library error"), FATAL),
    ])
    def test_verdicts(self, error, verdict):
        assert classify(error) == verdict


class TestRetryPolicy:
    def test_same_seed_same_delays(self):
        a = RetryPolicy(seed=42)
        b = RetryPolicy(seed=42)
        assert [a.backoff(i) for i in range(6)] == [
            b.backoff(i) for i in range(6)
        ]

    def test_different_seeds_different_jitter(self):
        a = [RetryPolicy(seed=1).backoff(i) for i in range(6)]
        b = [RetryPolicy(seed=2).backoff(i) for i in range(6)]
        assert a != b

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(
            base_delay=0.1, multiplier=2.0, max_delay=0.8, jitter=0.0, seed=0
        )
        delays = [policy.backoff(i) for i in range(8)]
        assert delays[:4] == [0.1, 0.2, 0.4, 0.8]
        assert all(d == 0.8 for d in delays[3:])

    def test_jitter_stretches_within_bound(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5, seed=3)
        for attempt in range(20):
            delay = policy.backoff(0)
            assert 0.1 <= delay <= 0.1 * 1.5

    def test_server_hint_is_a_floor(self):
        policy = RetryPolicy(base_delay=0.001, jitter=0.0, seed=0)
        assert policy.backoff(0, hint=0.5) == 0.5
        assert policy.backoff(5, hint=0.0) < 0.5

    def test_validation_is_typed(self):
        with pytest.raises(ConfigError):
            RetryPolicy(attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(base_delay=-1)
        with pytest.raises(ConfigError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter=-0.1)
        with pytest.raises(ConfigError):
            RetryPolicy(deadline=0)


class TestResilientSync:
    def test_fatal_refusal_is_not_retried(self):
        workload = _workload()

        async def scenario():
            async with ReconciliationServer(
                _config(), workload.alice
            ) as server:
                with pytest.raises(SyncRefusedError, match="digest mismatch"):
                    await resilient_sync(
                        *server.address, _config(seed=10), workload.bob,
                        policy=_fast_policy(), timeout=5,
                    )
                await server.wait_for_sessions(1)
                return server.summary()

        summary = run_scenario(scenario())
        assert summary["sessions"] == 1, "a fatal refusal must not burn retries"

    def test_exhaustion_carries_typed_history(self):
        workload = _workload()
        slept = []

        async def fake_sleep(delay):
            slept.append(delay)

        async def scenario():
            # Bind-and-release: a port nothing listens on -> retryable
            # SessionError on every attempt.
            probe = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
            port = probe.sockets[0].getsockname()[1]
            probe.close()
            await probe.wait_closed()
            with pytest.raises(RetryExhaustedError) as excinfo:
                await resilient_sync(
                    "127.0.0.1", port, _config(), workload.bob,
                    policy=_fast_policy(attempts=3), sleep=fake_sleep,
                    timeout=1,
                )
            return excinfo.value

        error = run_scenario(scenario())
        assert len(error.attempts) == 3
        assert all(v == RETRY for _, _, v in error.attempts)
        assert all(name == "SessionError" for _, name, _ in error.attempts)
        assert isinstance(error.__cause__, SessionError)
        assert len(slept) == 2, "no sleep after the final attempt"

    def test_deadline_budget_bounds_the_sequence(self):
        workload = _workload()

        async def scenario():
            probe = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
            port = probe.sockets[0].getsockname()[1]
            probe.close()
            await probe.wait_closed()
            policy = RetryPolicy(
                attempts=50, base_delay=10.0, jitter=0.0, deadline=0.5, seed=0
            )
            with pytest.raises(RetryExhaustedError, match="deadline budget"):
                await resilient_sync(
                    "127.0.0.1", port, _config(), workload.bob,
                    policy=policy, timeout=1,
                )

        run_scenario(scenario())

    def test_resumes_after_mid_stream_disconnect(self):
        """The headline property: a cut rateless stream resumes where it
        died and the resumed connection ships only remaining increments."""
        workload = _workload()
        config = _config()
        clean = reconcile_rateless(
            workload.alice, workload.bob, config, RATELESS
        )
        plan = FaultPlan(disconnect=(Direction.ALICE_TO_BOB, 2))

        async def scenario():
            resume = RatelessResumeState()
            async with ReconciliationServer(
                config, workload.alice, rateless=RATELESS, timeout=2.0
            ) as server:
                async with ChaosProxy(*server.address, plan) as proxy:
                    result = await resilient_sync(
                        *proxy.address, config, workload.bob,
                        variant="rateless", rateless=RATELESS,
                        policy=_fast_policy(), resume=resume, timeout=2,
                    )
                await server.wait_for_sessions(2)
                return result, resume, server

        result, resume, server = run_scenario(scenario())
        assert sorted(result.repaired) == sorted(clean.repaired)
        assert resume.completed
        summary = server.summary()
        assert summary["resumed"] == 1
        resumed_stats = [
            s for s in server.stats if s.resumed_from is not None
        ]
        assert [s.resumed_from for s in resumed_stats] == [2]
        # The resumed connection shipped strictly fewer sketch bytes than
        # a from-scratch run: that is what resumption buys.
        (ok_stats,) = [s for s in server.stats if s.ok]
        assert (
            ok_stats.transcript.alice_to_bob_bytes
            < clean.transcript.alice_to_bob_bytes
        )

    def test_truncated_increment_retries_to_success(self):
        """A truncated increment fails its parse with a typed
        ``SerializationError`` *before* anything is absorbed — the resume
        checkpoint stays unmoved — and the classification is RETRY, so
        the resilient client rides out the mangled frames and completes
        with the correct repair once clean ones arrive."""
        workload = _workload()
        config = _config()
        clean = reconcile_rateless(
            workload.alice, workload.bob, config, RATELESS
        )
        # Truncate the first two increment frames the proxy ever carries
        # (the injector counts across reconnects, so the retries advance
        # through — and past — the faulty window).
        plan = FaultPlan(
            seed="c1", truncate=1.0, window=2, only="A->B",
        )

        async def scenario():
            async with ReconciliationServer(
                config, workload.alice, rateless=RATELESS, timeout=2.0
            ) as server:
                async with ChaosProxy(*server.address, plan) as proxy:
                    result = await resilient_sync(
                        *proxy.address, config, workload.bob,
                        variant="rateless", rateless=RATELESS,
                        policy=_fast_policy(attempts=6), timeout=2,
                    )
                    return result, proxy.trace

        result, trace = run_scenario(scenario())
        assert sorted(result.repaired) == sorted(clean.repaired)
        assert any(kind == "truncate" for _, _, kind, _, _ in trace)

    def test_stale_resume_token_resets_and_succeeds(self):
        workload = _workload()
        config = _config()
        clean = reconcile_rateless(
            workload.alice, workload.bob, config, RATELESS
        )

        async def scenario():
            from repro.iblt.decode import PeelState
            from repro.serve import handshake

            # A token this server never issued, with a plausible-looking
            # in-progress peel: the server must refuse it typed, and the
            # resilient client must reset and complete from scratch.
            resume = RatelessResumeState()
            resume.token = handshake.resume_token(0xDEAD, 17)
            resume.peel = PeelState()
            resume.next_index = 3
            async with ReconciliationServer(
                config, workload.alice, rateless=RATELESS
            ) as server:
                result = await resilient_sync(
                    *server.address, config, workload.bob,
                    variant="rateless", rateless=RATELESS,
                    policy=_fast_policy(), resume=resume, timeout=5,
                )
                await server.wait_for_sessions(2)
                return result, resume, server.summary()

        result, resume, summary = run_scenario(scenario())
        assert sorted(result.repaired) == sorted(clean.repaired)
        assert resume.completed
        assert summary["resumed"] == 0, "stale token must not resume"
        assert summary["failed"] == 1 and summary["ok"] == 1

    def test_ingest_invalidates_outstanding_resume_tokens(self):
        """A stream cut before ``ServerCore.ingest`` must not resume: its
        increments were encoded over the old point set, and peeling them
        together with post-ingest increments mixes two sketches.  The
        server refuses the token typed, and the client resets and repairs
        towards the grown set."""
        workload = _workload()
        config = _config()
        extra = [(5, 7), (1500, 900)]
        clean = reconcile_rateless(
            list(workload.alice) + extra, workload.bob, config, RATELESS
        )
        plan = FaultPlan(disconnect=(Direction.ALICE_TO_BOB, 2))

        async def scenario():
            async with ReconciliationServer(
                config, workload.alice, rateless=RATELESS, timeout=2.0
            ) as server:
                ingested = []

                async def ingest_while_backing_off(delay):
                    if not ingested:
                        ingested.append(server.core.ingest(extra))

                async with ChaosProxy(*server.address, plan) as proxy:
                    result = await resilient_sync(
                        *proxy.address, config, workload.bob,
                        variant="rateless", rateless=RATELESS,
                        policy=_fast_policy(), timeout=2,
                        sleep=ingest_while_backing_off,
                    )
                return result, ingested, server.summary()

        result, ingested, summary = run_scenario(scenario())
        assert ingested == [len(extra)]
        assert sorted(result.repaired) == sorted(clean.repaired)
        assert summary["resumed"] == 0, "a pre-ingest token must not resume"


class TestOverloadShedding:
    def test_saturated_server_sheds_typed_with_hint(self):
        workload = _workload()
        config = _config()

        async def scenario():
            async with ReconciliationServer(
                config, workload.alice, max_sessions=1, max_pending=0,
                retry_after_hint=0.02,
            ) as server:
                results = await asyncio.gather(*[
                    sync(*server.address, config, workload.bob, timeout=5)
                    for _ in range(6)
                ], return_exceptions=True)
                await server.wait_for_sessions(6)
                return results, server.summary()

        results, summary = run_scenario(scenario())
        shed = [r for r in results if isinstance(r, ServerOverloadedError)]
        ok = [r for r in results if not isinstance(r, Exception)]
        assert len(ok) >= 1
        assert shed, "a 1-slot server hit by 6 clients must shed"
        # max_pending=0: nobody waits, so every hint is the unscaled base.
        assert all(e.retry_after == pytest.approx(0.02) for e in shed)
        assert summary["shed"] == len(shed)
        assert summary["ok"] == len(ok)

    def test_resilient_clients_ride_out_the_shed(self):
        workload = _workload()
        config = _config()

        async def scenario():
            async with ReconciliationServer(
                config, workload.alice, max_sessions=1, max_pending=0,
                retry_after_hint=0.01,
            ) as server:
                results = await asyncio.gather(*[
                    resilient_sync(
                        *server.address, config, workload.bob, timeout=5,
                        policy=_fast_policy(attempts=10, seed=i),
                    )
                    for i in range(5)
                ])
                # Every client has its result; wait for the server side of
                # each final (successful) session to be recorded too.
                while server.summary()["ok"] < 5:
                    await asyncio.sleep(0.005)
                return results, server.summary()

        results, summary = run_scenario(scenario())
        first = sorted(results[0].repaired)
        assert all(sorted(r.repaired) == first for r in results)
        assert summary["ok"] == 5
        assert summary["shed"] >= 1

    def test_unbounded_queueing_remains_the_default(self):
        workload = _workload()
        config = _config()

        async def scenario():
            async with ReconciliationServer(
                config, workload.alice, max_sessions=1
            ) as server:
                results = await asyncio.gather(*[
                    sync(*server.address, config, workload.bob, timeout=10)
                    for _ in range(4)
                ])
                await server.wait_for_sessions(4)
                return results, server.summary()

        results, summary = run_scenario(scenario())
        assert len(results) == 4
        assert summary["shed"] == 0 and summary["ok"] == 4


class TestSessionDeadline:
    def test_stalling_client_cannot_pin_a_slot(self):
        """A client that handshakes and then stalls forever is evicted by
        the per-connection deadline with a typed failure."""
        workload = _workload()
        config = _config()

        async def scenario():
            async with ReconciliationServer(
                config, workload.alice, timeout=5.0, session_deadline=0.3,
            ) as server:
                from repro.serve import handshake
                from repro.serve.frames import encode_frame, read_frame

                reader, writer = await asyncio.open_connection(*server.address)
                writer.write(encode_frame(handshake.hello_bytes(
                    "adaptive", server.digest("adaptive")
                )))
                await writer.drain()
                handshake.parse_welcome(await read_frame(reader, timeout=5))
                # Stall: never send the adaptive request.
                await server.wait_for_sessions(1)
                writer.close()
                return server.stats

        (stats,) = run_scenario(scenario())
        assert not stats.ok
        assert "deadline budget" in stats.error
