"""Chaos matrix: the crash-only property over every variant.

Every fault plan crossed with every protocol variant, driven over a real
TCP connection through the chaos proxy.  The property under test is
crash-only behaviour: **each run either produces the correct repaired
multiset or raises a typed** :class:`~repro.errors.ReproError` **within
the scenario deadline** — never a hang, never a silently wrong answer.

When a cell of the matrix fails, the full reproduction recipe (plan
fields, fault trace, variant, observed outcome) is dumped as JSON into
``$CHAOS_TRACE_DIR`` (when set) so CI can upload it as an artifact; the
plan is a pure function of its seed, so the dump replays the failure
bit-identically.
"""

import asyncio
import dataclasses
import json
import multiprocessing
import os
import signal

import pytest

from repro.core.config import ProtocolConfig
from repro.core.rateless import RatelessConfig
from repro.errors import ReproError, StaleResumeTokenError
from repro.net.channel import Direction
from repro.net.faults import ChaosProxy, FaultPlan
from repro.serve import (
    RESET,
    ReconciliationServer,
    RetryPolicy,
    ServerCore,
    classify,
    resilient_sync,
    sync,
)
from repro.session.rateless import RatelessResumeState
from repro.store import DurableSketchStore
from repro.workloads.synthetic import perturbed_pair

DELTA = 2048
#: Hard hang guard: every cell of the matrix must finish within this.
SCENARIO_TIMEOUT = 20.0
#: Client-side per-read timeout: small, so dropped frames surface as a
#: typed timeout quickly instead of stalling a cell.
CLIENT_TIMEOUT = 0.7
#: Server-side per-read timeout: outlives the client's so the server is
#: never the reason a healthy run fails, yet bounded so dead peers
#: cannot pin handler tasks past the scenario guard.
SERVER_TIMEOUT = 1.5

CONFIG = ProtocolConfig(delta=DELTA, dimension=2, k=6, seed=9)
RATELESS = RatelessConfig(initial_cells=8)
VARIANTS = ("one-round", "adaptive", "rateless")

#: The fault plans of the matrix.  Probabilistic plans roll per frame in
#: both directions; the pinned plan cuts the first post-handshake server
#: frame, which every variant must survive with a typed error.
PLANS = [
    ("drop", FaultPlan(seed="mx-drop", drop=0.1)),
    ("truncate", FaultPlan(seed="mx-trunc", truncate=0.1)),
    ("corrupt", FaultPlan(seed="mx-corrupt", corrupt=0.15)),
    ("duplicate", FaultPlan(seed="mx-dup", duplicate=0.1)),
    ("mixed", FaultPlan(
        seed="mx-mixed", drop=0.05, truncate=0.05, corrupt=0.05,
        duplicate=0.05, delay=0.1, delay_ms=1,
    )),
    ("cut", FaultPlan(seed="mx-cut", disconnect=(Direction.ALICE_TO_BOB, 0))),
]


def _workload():
    return perturbed_pair(3, 120, DELTA, 2, 8, 2)


def _plan_record(plan: FaultPlan) -> dict:
    record = dataclasses.asdict(plan)
    if record["disconnect"] is not None:
        direction, index = record["disconnect"]
        record["disconnect"] = [getattr(direction, "value", direction), index]
    if record["only"] is not None:
        record["only"] = getattr(record["only"], "value", record["only"])
    return record


def _dump_trace(name: str, variant: str, plan: FaultPlan, trace, outcome):
    """Write the reproduction recipe for one failed cell (CI artifact)."""
    trace_dir = os.environ.get("CHAOS_TRACE_DIR")
    if not trace_dir:
        return
    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir, f"chaos_{name}_{variant}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "plan_name": name,
                "variant": variant,
                "plan": _plan_record(plan),
                "trace": [list(entry) for entry in trace],
                "outcome": outcome,
            },
            handle,
            indent=2,
            sort_keys=True,
        )


_CLEAN: dict[str, list] = {}


def _clean_repaired(variant: str) -> list:
    """The correct repaired multiset per variant, via a fault-free TCP
    run (computed once, cached for the whole matrix)."""
    if variant not in _CLEAN:
        workload = _workload()

        async def scenario():
            async with ReconciliationServer(
                CONFIG, workload.alice, rateless=RATELESS
            ) as server:
                return await sync(
                    *server.address, CONFIG, workload.bob,
                    variant=variant, rateless=RATELESS, timeout=10,
                )

        result = asyncio.run(
            asyncio.wait_for(scenario(), SCENARIO_TIMEOUT)
        )
        _CLEAN[variant] = sorted(result.repaired)
    return _CLEAN[variant]


async def _chaos_cell(variant: str, plan: FaultPlan):
    """Run one cell of the matrix; returns (outcome, trace)."""
    workload = _workload()
    async with ReconciliationServer(
        CONFIG, workload.alice, rateless=RATELESS, timeout=SERVER_TIMEOUT
    ) as server:
        async with ChaosProxy(*server.address, plan) as proxy:
            try:
                result = await sync(
                    *proxy.address, CONFIG, workload.bob,
                    variant=variant, rateless=RATELESS,
                    timeout=CLIENT_TIMEOUT,
                )
                outcome = ("ok", sorted(result.repaired))
            except ReproError as exc:
                outcome = ("error", type(exc).__name__, str(exc))
        return outcome, proxy.trace


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize(
    "name,plan", PLANS, ids=[name for name, _ in PLANS]
)
class TestChaosMatrix:
    def test_crash_only(self, name, plan, variant):
        trace = ()
        outcome = ("unknown",)
        try:
            outcome, trace = asyncio.run(
                asyncio.wait_for(_chaos_cell(variant, plan), SCENARIO_TIMEOUT)
            )
        except asyncio.TimeoutError:
            outcome = ("hang", f"exceeded the {SCENARIO_TIMEOUT:g}s guard")
            _dump_trace(name, plan=plan, variant=variant, trace=trace,
                        outcome=list(outcome))
            pytest.fail(f"{name} x {variant}: scenario hung")
        except Exception as exc:  # noqa: BLE001 — untyped escape = failure
            outcome = ("untyped", type(exc).__name__, str(exc))
            _dump_trace(name, plan=plan, variant=variant, trace=trace,
                        outcome=list(outcome))
            raise
        try:
            if outcome[0] == "ok":
                # Never a wrong answer: a run that claims success must
                # have repaired to exactly the clean multiset.
                assert outcome[1] == _clean_repaired(variant)
            else:
                # Typed failure: acceptable crash-only outcome.
                assert outcome[0] == "error"
        except AssertionError:
            _dump_trace(name, plan=plan, variant=variant, trace=trace,
                        outcome=[outcome[0], str(outcome[1:])])
            raise


@pytest.mark.parametrize("variant", VARIANTS)
def test_pinned_cut_always_observed(variant):
    """The pinned-disconnect plan is the one cell where the outcome is
    fully determined: the first server frame after the welcome is cut on
    every variant, so a typed error is guaranteed."""
    plan = dict(PLANS)["cut"]
    outcome, trace = asyncio.run(
        asyncio.wait_for(_chaos_cell(variant, plan), SCENARIO_TIMEOUT)
    )
    assert outcome[0] == "error", (variant, outcome)
    assert ("A->B", 0, "disconnect", 0, 0) in trace


#: Cuts the third server frame of a rateless stream: the client has the
#: welcome (resume token) and one fed increment when the wire dies, so
#: its resume state is worth presenting to the next incarnation.
RESTART_CUT = FaultPlan(
    seed="mx-restart", disconnect=(Direction.ALICE_TO_BOB, 2)
)


def _serve_in_child(core, kwargs, conn) -> None:
    """Forked child: serve ``core`` until killed; report the address."""

    async def serve():
        server = ReconciliationServer(core=core, **kwargs)
        conn.send(await server.start())
        conn.close()
        await server.serve_forever()

    asyncio.run(serve())


class _ForkedServer:
    """A plain :class:`ReconciliationServer` in a forked child process,
    so a test can SIGKILL the serving process: no shutdown path runs in
    it, exactly as in a crash.  The child inherits the parent's core
    (store included) and binds its own ephemeral port."""

    def __init__(self, core, **kwargs):
        self.core = core
        self.kwargs = kwargs
        self.process = None
        self.address = None

    async def start(self) -> "_ForkedServer":
        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_serve_in_child,
            args=(self.core, self.kwargs, child_conn),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        try:
            while not parent_conn.poll():
                assert self.process.is_alive(), "forked server died at start"
                await asyncio.sleep(0.01)
            self.address = parent_conn.recv()
        finally:
            parent_conn.close()
        return self

    def kill(self) -> None:
        """``kill -9`` the serving process (idempotent) and reap it."""
        if self.process.is_alive():
            os.kill(self.process.pid, signal.SIGKILL)
        self.process.join()

    async def __aenter__(self) -> "_ForkedServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        self.kill()


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="SIGKILLing a separate serving process needs the fork start method",
)


@needs_fork
class TestRestartFromStore:
    """Restart plans: SIGKILL the serving process, restart from the
    durable store, and prove the client-visible contract — a resume
    token minted by a dead incarnation is refused *typed*
    (:class:`~repro.errors.StaleResumeTokenError`, classified
    :data:`~repro.serve.RESET`) and a fresh sync against the recovered
    state repairs correctly."""

    def _store_core(self, directory: str, points) -> tuple:
        store = DurableSketchStore.open(CONFIG, directory)
        if store.sketch.n_points == 0:
            store.bulk_load(points)
        core = ServerCore(CONFIG, points, store=store, rateless=RATELESS)
        return store, core

    def test_sigkill_then_stale_token_refused_then_repair(self, tmp_path):
        workload = _workload()
        state = RatelessResumeState()

        async def scenario():
            store_a, core_a = self._store_core(str(tmp_path), workload.alice)
            async with _ForkedServer(
                core_a, timeout=SERVER_TIMEOUT
            ) as incarnation_a:
                async with ChaosProxy(
                    *incarnation_a.address, RESTART_CUT
                ) as proxy:
                    with pytest.raises(ReproError):
                        await sync(
                            *proxy.address, CONFIG, workload.bob,
                            variant="rateless", rateless=RATELESS,
                            resume=state, timeout=CLIENT_TIMEOUT,
                        )
                # kill -9: incarnation A dies without any shutdown path.
                incarnation_a.kill()
            assert state.in_progress, "cut left nothing worth resuming"

            store_b, core_b = self._store_core(str(tmp_path), workload.alice)
            assert store_b.recovery.source == "snapshot"
            assert store_b.one_round_encode() == store_a.one_round_encode()
            async with ReconciliationServer(
                core=core_b, timeout=SERVER_TIMEOUT
            ) as server:
                with pytest.raises(StaleResumeTokenError) as refusal:
                    await sync(
                        *server.address, CONFIG, workload.bob,
                        variant="rateless", rateless=RATELESS,
                        resume=state, timeout=CLIENT_TIMEOUT,
                    )
                assert classify(refusal.value) == RESET
                state.reset()
                return await sync(
                    *server.address, CONFIG, workload.bob,
                    variant="rateless", rateless=RATELESS,
                    resume=state, timeout=CLIENT_TIMEOUT,
                )

        result = asyncio.run(asyncio.wait_for(scenario(), SCENARIO_TIMEOUT))
        assert sorted(result.repaired) == _clean_repaired("rateless")
        assert result.recovered is not None
        assert result.recovered["source"] == "snapshot"

    def test_resilient_sync_rides_through_the_restart(self, tmp_path):
        """The full ladder, hands-free: attempt 1 dies mid-stream (cut),
        the server is SIGKILLed and a new incarnation recovers from the
        store on the same address; attempt 2's stale token is refused →
        RESET; attempt 3 repairs.  ``resilient_sync`` absorbs all of it."""
        workload = _workload()
        incarnation_b: list = []

        async def scenario():
            store_a, core_a = self._store_core(str(tmp_path), workload.alice)
            incarnation_a = _ForkedServer(core_a, timeout=SERVER_TIMEOUT)
            await incarnation_a.start()
            proxy = ChaosProxy(*incarnation_a.address, RESTART_CUT)
            await proxy.start()
            host, port = proxy.address
            backoffs = []

            async def swap_on_first_backoff(delay):
                backoffs.append(delay)
                if len(backoffs) > 1:
                    return
                incarnation_a.kill()
                await proxy.close()
                _, core_b = self._store_core(str(tmp_path), workload.alice)
                last_error = None
                for _ in range(40):  # the freed port may linger briefly
                    server = ReconciliationServer(
                        core=core_b, host=host, port=port,
                        timeout=SERVER_TIMEOUT,
                    )
                    try:
                        await server.start()
                    except OSError as exc:
                        last_error = exc
                        await asyncio.sleep(0.05)
                        continue
                    incarnation_b.append(server)
                    return
                raise last_error

            try:
                result = await resilient_sync(
                    host, port, CONFIG, workload.bob,
                    variant="rateless", rateless=RATELESS,
                    policy=RetryPolicy(attempts=4, base_delay=0.0, jitter=0.0),
                    sleep=swap_on_first_backoff, timeout=CLIENT_TIMEOUT,
                )
            finally:
                incarnation_a.kill()
                if incarnation_b:
                    await incarnation_b[0].close()
                else:
                    await proxy.close()
            return result, len(backoffs)

        result, retries = asyncio.run(
            asyncio.wait_for(scenario(), SCENARIO_TIMEOUT)
        )
        # Attempt 1 (cut) and attempt 2 (stale token) each backed off.
        assert retries == 2
        assert sorted(result.repaired) == _clean_repaired("rateless")
        assert result.recovered is not None
        assert result.recovered["source"] == "snapshot"
