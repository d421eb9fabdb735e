"""The pre-fork worker pool: lifecycle, drain, crash recovery, shedding.

Contract under test (ROADMAP item 2 / the multi-core serve work):

* N workers over one listen address serve every protocol variant with
  the same correct repairs as the single-process server, in both
  distribution modes (SO_REUSEPORT and shared-socket pre-fork accept).
* The shared :class:`~repro.serve.service.ServerCore` is built and
  warmed once, pre-fork; workers inherit it copy-on-write.
* SIGTERM drains in-flight sessions to completion before workers exit;
  a SIGKILL'd (crashed) worker surfaces to its client as a typed
  retryable error and is reforked by the parent, after which
  ``resilient_sync`` completes the interrupted rateless stream (the
  stale cross-incarnation token resets it, trading saved bytes for
  correctness — never a wrong repair).
* Overload shedding stays per worker: the ``retry_after`` hint scales
  with the shedding worker's own backlog, not the pool-wide burst.
"""

import asyncio
import os
import signal

import pytest

from repro.core.config import ProtocolConfig
from repro.core.rateless import RatelessConfig, reconcile_rateless
from repro.errors import ConfigError, ServerOverloadedError, SessionError
from repro.iblt.decode import PeelState
from repro.net.channel import SimulatedChannel
from repro.serve import (
    RESET,
    RETRY,
    ReconciliationServer,
    RetryPolicy,
    ServerCore,
    WorkerPoolServer,
    classify,
    handshake,
    resilient_sync,
    reuse_port_available,
    sync,
)
from repro.serve.frames import read_frame, write_frame
from repro.serve.pool import fork_available
from repro.session import make_session
from repro.session.driver import outbound_messages
from repro.session.rateless import RatelessResumeState
from repro.workloads.synthetic import perturbed_pair

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="worker pool requires the fork start method"
)

DELTA = 2048
SCENARIO_TIMEOUT = 60.0
#: Forces a long multi-increment rateless stream (room to crash it).
RATELESS = RatelessConfig(initial_cells=8, growth=1.3, max_increments=64)

CONFIG = ProtocolConfig(delta=DELTA, dimension=2, k=6, seed=9)


def run_scenario(coro):
    async def bounded():
        return await asyncio.wait_for(coro, SCENARIO_TIMEOUT)

    return asyncio.run(bounded())


def _workload(seed=3, n=120, diff=8):
    return perturbed_pair(seed, n, DELTA, 2, diff, 2)


MODES = [False] + ([True] if reuse_port_available() else [])


@pytest.mark.parametrize(
    "reuse_port", MODES,
    ids=["shared-socket", "reuse-port"][: len(MODES)],
)
class TestPoolServesCorrectly:
    def test_all_variants_across_workers(self, reuse_port):
        workload = _workload()
        expected = sorted(
            reconcile_rateless(
                workload.alice, list(workload.bob), CONFIG, RATELESS
            ).repaired
        )

        async def scenario():
            async with WorkerPoolServer(
                CONFIG, workload.alice, workers=2, rateless=RATELESS,
                reuse_port=reuse_port,
            ) as pool:
                host, port = pool.address
                assert pool.mode == (
                    "reuse-port" if reuse_port else "shared-socket"
                )
                seen = set()
                for variant in ("one-round", "adaptive", "rateless"):
                    for _ in range(4):
                        result = await sync(
                            host, port, CONFIG, list(workload.bob),
                            variant=variant, rateless=RATELESS,
                        )
                        if variant == "rateless":
                            assert sorted(result.repaired) == expected
                        seen.add(result.served_by)
                await pool.wait_for_sessions(12)
                summary = pool.summary()
                # Both workers stamped welcomes (the kernel spread load).
                assert seen <= {0, 1} and len(seen) == 2
                assert summary["sessions"] == 12
                assert summary["ok"] == 12
                assert summary["failed"] == 0
                assert summary["restarts"] == 0
                assert summary["bytes_out"] > 0

        run_scenario(scenario())


class TestSharedCore:
    def test_warm_prebuilds_every_cache(self):
        workload = _workload()
        core = ServerCore(CONFIG, workload.alice, rateless=RATELESS).warm()
        assert "one-round" in core._encoded
        # The warmed payload is exactly what a cold encode produces.
        cold = ServerCore(CONFIG, workload.alice, rateless=RATELESS)
        assert core.encoded("one-round") == cold.encoded("one-round")
        assert core.reconciler("rateless").alice_increment(
            core.points, 0
        ) == cold.reconciler("rateless").alice_increment(cold.points, 0)

    def test_core_and_config_are_mutually_exclusive(self):
        workload = _workload()
        core = ServerCore(CONFIG, workload.alice)
        with pytest.raises(ConfigError):
            ReconciliationServer(CONFIG, workload.alice, core=core)
        with pytest.raises(ConfigError):
            ReconciliationServer()
        with pytest.raises(ConfigError):
            WorkerPoolServer(CONFIG, workload.alice, core=core)
        with pytest.raises(ConfigError):
            WorkerPoolServer(core=core, rateless=RATELESS)
        with pytest.raises(ConfigError):
            WorkerPoolServer(CONFIG, workload.alice, workers=0)

    def test_one_core_many_servers_identical_payloads(self):
        """Two servers over one core (the worker arrangement, sans fork)
        ship byte-identical sessions."""
        workload = _workload()
        core = ServerCore(CONFIG, workload.alice, rateless=RATELESS).warm()

        async def scenario():
            triples = []
            for _ in range(2):
                async with ReconciliationServer(core=core) as server:
                    channel = SimulatedChannel()
                    await sync(
                        *server.address, CONFIG, list(workload.bob),
                        variant="one-round", channel=channel,
                    )
                    triples.append(
                        [(m.direction, m.label, m.payload)
                         for m in channel.messages]
                    )
            assert triples[0] == triples[1]

        run_scenario(scenario())
        core.close()


class TestGracefulShutdown:
    def test_sigterm_drains_in_flight_session(self):
        """SIGTERM mid-session: the worker stops accepting but finishes
        the session it is serving before exiting 0 (no crash restart)."""
        workload = _workload()
        expected = sorted(
            reconcile_rateless(
                workload.alice, list(workload.bob), CONFIG, RATELESS
            ).repaired
        )

        async def scenario():
            async with WorkerPoolServer(
                CONFIG, workload.alice, workers=2, rateless=RATELESS,
            ) as pool:
                host, port = pool.address
                reader, writer = await asyncio.open_connection(host, port)
                digest = pool.digest("rateless")
                await write_frame(
                    writer, handshake.hello_bytes("rateless", digest)
                )
                handshake.parse_welcome(await read_frame(reader))
                first = await read_frame(reader)  # increment 0 in flight
                for pid in pool.worker_pids():
                    os.kill(pid, signal.SIGTERM)
                await asyncio.sleep(0.3)  # workers are draining now
                session = make_session(
                    "rateless", "bob", CONFIG, list(workload.bob),
                    rateless=RATELESS,
                )
                for message in outbound_messages(session.start()):
                    await write_frame(writer, message.payload)
                output = session.feed(first)
                while True:
                    for message in outbound_messages(output):
                        await write_frame(writer, message.payload)
                    if session.done:
                        break
                    output = session.feed(await read_frame(reader))
                result = session.result
                writer.close()
                assert sorted(result.repaired) == expected
                # Drained workers exit 0 and are not reforked.
                deadline = asyncio.get_running_loop().time() + 10
                while any(p is not None for p in pool.worker_pids()):
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.05)
                summary = pool.summary()
                assert summary["restarts"] == 0
                assert summary["ok"] == 1

        run_scenario(scenario())


class TestCrashRecovery:
    def test_crash_mid_session_is_retryable_and_resumable(self):
        """SIGKILL every worker mid-rateless-stream: the in-flight sync
        fails with a RETRY-classified typed error, the parent reforks
        replacements, and resilient_sync completes against them (the
        stale token from the dead incarnation resets the stream)."""
        workload = _workload(seed=5, n=160, diff=40)
        expected = sorted(
            reconcile_rateless(
                workload.alice, list(workload.bob), CONFIG, RATELESS
            ).repaired
        )

        async def scenario():
            async with WorkerPoolServer(
                CONFIG, workload.alice, workers=2, rateless=RATELESS,
            ) as pool:
                host, port = pool.address
                before = list(pool.worker_pids())
                resume = RatelessResumeState()
                task = asyncio.ensure_future(
                    sync(
                        host, port, CONFIG, list(workload.bob),
                        variant="rateless", rateless=RATELESS, resume=resume,
                    )
                )
                # Let the stream advance, then kill every worker.
                while resume.next_index < 1 and not task.done():
                    await asyncio.sleep(0.001)
                for pid in pool.worker_pids():
                    os.kill(pid, signal.SIGKILL)
                with pytest.raises(SessionError) as excinfo:
                    await task
                assert classify(excinfo.value) == RETRY
                assert resume.in_progress  # transferred increments survive

                # The monitor reforks crashed workers from the parent,
                # which still holds the sockets and the warmed core.
                deadline = asyncio.get_running_loop().time() + 10
                while pool.summary()["restarts"] < 2:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.05)
                after = list(pool.worker_pids())
                assert all(pid is not None for pid in after)
                assert set(after).isdisjoint(before)

                # Resume against the fresh incarnation: the old token is
                # typed-stale there, resilient_sync resets and restarts.
                result = await resilient_sync(
                    host, port, CONFIG, list(workload.bob),
                    variant="rateless", rateless=RATELESS, resume=resume,
                    policy=RetryPolicy(
                        attempts=6, base_delay=0.05, max_delay=0.5, seed=7,
                    ),
                )
                assert sorted(result.repaired) == expected
                assert resume.completed

        run_scenario(scenario())

    def test_cross_incarnation_token_is_typed_reset(self):
        """A structurally valid token no live worker minted is refused
        with the stale-token error (classify == RESET), never resumed."""
        workload = _workload()

        async def scenario():
            async with WorkerPoolServer(
                CONFIG, workload.alice, workers=2, rateless=RATELESS,
            ) as pool:
                host, port = pool.address
                forged = RatelessResumeState()
                forged.token = handshake.resume_token(0xDEAD, 1)
                forged.peel = PeelState()
                forged.next_index = 1
                assert forged.in_progress
                with pytest.raises(Exception) as excinfo:
                    await sync(
                        host, port, CONFIG, list(workload.bob),
                        variant="rateless", rateless=RATELESS, resume=forged,
                    )
                assert classify(excinfo.value) == RESET

        run_scenario(scenario())


class TestPerWorkerShedding:
    def test_retry_after_scales_with_worker_backlog_not_burst(self):
        """Regression (multi-core satellite): with ``max_pending=0`` no
        connection ever waits, so every shed's hint must be exactly
        ``retry_after_hint * (1 + 0)`` — per-worker backlog — no matter
        how large the pool-wide burst is.  Pre-pool code computed the
        hint from one process's ``_waiting``; under N workers that is
        still the right (per-worker) signal, which this pins down."""
        workload = _workload()
        hint = 0.02

        async def scenario():
            async with WorkerPoolServer(
                CONFIG, workload.alice, workers=2, rateless=RATELESS,
                max_sessions=1, max_pending=0, retry_after_hint=hint,
                timeout=10.0,
            ) as pool:
                host, port = pool.address
                burst = [
                    sync(
                        host, port, CONFIG, list(workload.bob),
                        variant="rateless", rateless=RATELESS,
                    )
                    for _ in range(12)
                ]
                outcomes = await asyncio.gather(*burst, return_exceptions=True)
                shed = [
                    e for e in outcomes
                    if isinstance(e, ServerOverloadedError)
                ]
                ok = [r for r in outcomes if not isinstance(r, Exception)]
                assert ok, "a saturated pool must still serve someone"
                assert shed, "a 12-burst against 2x1 slots must shed"
                for error in shed:
                    assert classify(error) == RETRY
                    # Per-worker watermark: zero waiters ahead, so the
                    # hint is the base — never scaled by the global burst.
                    assert error.retry_after == pytest.approx(hint)
                await pool.wait_for_sessions(12)
                summary = pool.summary()
                assert summary["shed"] == len(shed)
                assert summary["sessions"] == 12

        run_scenario(scenario())
