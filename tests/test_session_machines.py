"""The sans-I/O session layer: state-machine contract, drivers, parity.

Contract under test: sessions produce byte-identical exchanges to the
pre-session monolithic drivers (pinned independently by the golden
transcripts), enforce their state machine with typed
:class:`~repro.errors.SessionError`\\ s, and the public ``reconcile*``
functions no longer close channels they did not create.
"""

import asyncio
import random

import pytest

from repro.core.adaptive import reconcile_adaptive
from repro.core.config import ProtocolConfig
from repro.core.protocol import reconcile
from repro.core.rateless import RatelessConfig, reconcile_rateless
from repro.errors import ChannelError, ReconciliationFailure, SessionError
from repro.net.channel import Direction, LoopbackChannel, SimulatedChannel
from repro.session import (
    AdaptiveAliceSession,
    AdaptiveBobSession,
    Done,
    OneRoundAliceSession,
    OneRoundBobSession,
    RatelessAliceSession,
    RatelessBobSession,
    Session,
    make_session,
    pump,
    run_async,
)
from repro.workloads.synthetic import perturbed_pair

DELTA = 2048


def _workload(seed=0, n=80, true_k=3, noise=2):
    return perturbed_pair(seed, n, DELTA, 2, true_k, noise)


def _config(**kwargs):
    defaults = dict(delta=DELTA, dimension=2, k=8, seed=5)
    defaults.update(kwargs)
    return ProtocolConfig(**defaults)


class TestStateMachine:
    def test_one_round_alice_speaks_once_and_is_done(self):
        workload = _workload()
        session = OneRoundAliceSession(_config(), workload.alice)
        out = session.start()
        assert isinstance(out, Done)
        assert len(out.messages) == 1
        assert out.messages[0].label == "hierarchy-sketch"
        assert session.done
        assert session.result is None

    def test_one_round_bob_consumes_sketch(self):
        workload = _workload()
        config = _config()
        alice = OneRoundAliceSession(config, workload.alice)
        bob = OneRoundBobSession(config, workload.bob)
        sketch = alice.start().messages[0].payload
        assert bob.start() == []
        out = bob.feed(sketch)
        assert isinstance(out, Done)
        assert bob.done
        assert len(bob.result.repaired) == len(workload.alice)

    def test_adaptive_roles_alternate(self):
        workload = _workload(seed=1)
        config = _config(seed=1)
        alice = AdaptiveAliceSession(config, workload.alice)
        bob = AdaptiveBobSession(config, workload.bob)
        request = bob.start()
        assert [m.label for m in request] == ["adaptive-request"]
        assert not bob.done
        assert alice.start() == []
        window = alice.feed(request[0].payload)
        assert isinstance(window, Done)
        assert [m.label for m in window.messages] == ["adaptive-window"]
        final = bob.feed(window.messages[0].payload)
        assert isinstance(final, Done)
        assert len(bob.result.repaired) == len(workload.alice)

    def test_start_twice_raises(self):
        session = OneRoundBobSession(_config(), [(1, 1)])
        session.start()
        with pytest.raises(SessionError):
            session.start()

    def test_feed_before_start_raises(self):
        session = OneRoundBobSession(_config(), [(1, 1)])
        with pytest.raises(SessionError):
            session.feed(b"early")

    def test_feed_after_done_raises(self):
        """A duplicated message must be a typed error, not a rerun."""
        workload = _workload()
        config = _config()
        sketch = OneRoundAliceSession(config, workload.alice).start()
        bob = OneRoundBobSession(config, workload.bob)
        bob.start()
        payload = sketch.messages[0].payload
        bob.feed(payload)
        with pytest.raises(SessionError):
            bob.feed(payload)

    def test_result_before_done_raises(self):
        session = OneRoundBobSession(_config(), [(1, 1)])
        with pytest.raises(SessionError):
            session.result

    def test_non_bytes_payload_raises(self):
        session = OneRoundBobSession(_config(), [(1, 1)])
        session.start()
        with pytest.raises(SessionError):
            session.feed("not bytes")

    def test_memoryview_payload_accepted(self):
        """Zero-copy transports hand sessions buffer slices; feed must
        copy them out rather than reject them (regression)."""
        workload = _workload()
        config = _config()
        sketch = OneRoundAliceSession(config, workload.alice).start()
        payload = sketch.messages[0].payload
        for view in (memoryview(payload), bytearray(payload)):
            bob = OneRoundBobSession(config, workload.bob)
            bob.start()
            out = bob.feed(view)
            assert isinstance(out, Done)
            assert len(bob.result.repaired) == len(workload.alice)

    def test_make_session_unknown_variant(self):
        with pytest.raises(SessionError):
            make_session("three-round", "alice", _config(), [])

    def test_make_session_builds_every_variant(self):
        config = _config()
        for variant in ("one-round", "adaptive", "rateless"):
            for role in ("alice", "bob"):
                session = make_session(variant, role, config, [(1, 1)])
                assert session.variant == variant
                assert session.role == role


class _LabelProbe(Session):
    """Pin for inbound_label ordering: sessions routinely read their own
    position mid-feed (e.g. to parse the payload by expected type)."""

    variant = "probe"
    role = "bob"
    inbound_labels = ("first", "second", "third")

    def __init__(self):
        super().__init__()
        self.seen_during_feed = []

    def _feed(self, payload):
        self.seen_during_feed.append(self.inbound_label())
        if payload == b"boom":
            raise SessionError("probe exploded")
        return []


class TestInboundLabelOrdering:
    def test_label_names_the_in_flight_message(self):
        """Regression: ``_fed`` must advance *after* ``_feed`` so a
        mid-feed ``inbound_label()`` names the message being processed,
        never the next one (the old ordering was off by one)."""
        probe = _LabelProbe()
        probe.start()
        assert probe.inbound_label() == "first"     # next expected
        probe.feed(b"a")
        assert probe.seen_during_feed == ["first"]  # was "second" before fix
        assert probe.inbound_label() == "second"
        probe.feed(b"b")
        assert probe.seen_during_feed == ["first", "second"]

    def test_failed_feed_leaves_the_position_unchanged(self):
        probe = _LabelProbe()
        probe.start()
        probe.feed(b"a")
        with pytest.raises(SessionError, match="probe exploded"):
            probe.feed(b"boom")
        # The failed message was never consumed: the label still names it.
        assert probe.inbound_label() == "second"
        probe.feed(b"retry")
        assert probe.seen_during_feed == ["first", "second", "second"]

    def test_explicit_index_unaffected(self):
        probe = _LabelProbe()
        probe.start()
        assert probe.inbound_label(2) == "third"
        assert probe.inbound_label(9) == "message"


class TestRatelessStateMachine:
    def test_ping_pong_small_diff_stops_on_first_increment(self):
        workload = _workload(seed=11, n=40, true_k=2, noise=0)
        config = _config(seed=11)
        alice = RatelessAliceSession(config, workload.alice)
        bob = RatelessBobSession(config, workload.bob)
        opening = alice.start()
        assert [m.label for m in opening] == ["rateless-cells"]
        assert not alice.done
        assert bob.start() == []
        verdict = bob.feed(opening[0].payload)
        assert isinstance(verdict, Done)
        assert [m.label for m in verdict.messages] == ["rateless-ack"]
        assert sorted(bob.result.repaired) == sorted(workload.alice)
        closing = alice.feed(verdict.messages[0].payload)
        assert isinstance(closing, Done)
        assert closing.messages == ()
        assert alice.result is None

    def test_continue_ack_yields_the_next_increment(self):
        # Enough difference that segment 0 (initial_cells=8) cannot decode.
        workload = _workload(seed=12, n=60, true_k=8, noise=0)
        config = _config(seed=12)
        knobs = RatelessConfig(initial_cells=8, max_increments=8)
        alice = RatelessAliceSession(config, workload.alice, knobs)
        bob = RatelessBobSession(config, workload.bob, knobs)
        message = alice.start()[0]
        bob.start()
        increments = 1
        while True:
            out = bob.feed(message.payload)
            if isinstance(out, Done):
                break
            assert [m.label for m in out] == ["rateless-ack"]
            next_out = alice.feed(out[0].payload)
            assert [m.label for m in next_out] == ["rateless-cells"]
            message = next_out[0]
            increments += 1
        assert increments > 1
        assert sorted(bob.result.repaired) == sorted(workload.alice)

    def test_cap_raises_typed_failure_on_both_ends(self):
        workload = _workload(seed=13, n=80, true_k=12, noise=2)
        config = _config(seed=13)
        knobs = RatelessConfig(initial_cells=4, growth=1.1, max_increments=2)
        alice = RatelessAliceSession(config, workload.alice, knobs)
        bob = RatelessBobSession(config, workload.bob, knobs)
        message = alice.start()[0]
        bob.start()
        acks = []
        with pytest.raises(ReconciliationFailure, match="stream budget"):
            while True:
                out = bob.feed(message.payload)
                assert not isinstance(out, Done)
                acks.append(out[0])
                message = alice.feed(out[0].payload)[0]
        # Alice independently enforces the same shared cap.
        with pytest.raises(ReconciliationFailure, match="cap"):
            alice.feed(acks[-1].payload)

    def test_rateless_pump_matches_reconcile_rateless(self):
        workload = _workload(seed=14, n=50, true_k=4, noise=0)
        config = _config(seed=14)
        direct = reconcile_rateless(workload.alice, workload.bob, config)
        channel = SimulatedChannel()
        _, result = pump(
            RatelessAliceSession(config, workload.alice),
            RatelessBobSession(config, workload.bob),
            channel,
        )
        assert sorted(result.repaired) == sorted(direct.repaired)
        assert sorted(result.repaired) == sorted(workload.alice)
        assert channel.total_bits == direct.transcript.total_bits
        labels = [m.label for m in channel.messages]
        assert labels[0] == "rateless-cells"
        assert labels[-1] == "rateless-ack"
        assert set(labels) == {"rateless-cells", "rateless-ack"}


class TestPumpParity:
    """The session pump must reproduce the monolithic drivers exactly."""

    def test_one_round_pump_matches_reconcile(self):
        workload = _workload(seed=2)
        config = _config(seed=2)
        direct = reconcile(workload.alice, workload.bob, config)
        channel = SimulatedChannel()
        alice = OneRoundAliceSession(config, workload.alice)
        bob = OneRoundBobSession(config, workload.bob)
        _, result = pump(alice, bob, channel)
        assert sorted(result.repaired) == sorted(direct.repaired)
        assert [m.payload for m in channel.messages] and (
            channel.total_bits == direct.transcript.total_bits
        )

    def test_adaptive_pump_matches_reconcile_adaptive(self):
        workload = _workload(seed=3)
        config = _config(seed=3)
        direct = reconcile_adaptive(workload.alice, workload.bob, config)
        channel = SimulatedChannel()
        _, result = pump(
            AdaptiveAliceSession(config, workload.alice),
            AdaptiveBobSession(config, workload.bob),
            channel,
        )
        assert sorted(result.repaired) == sorted(direct.repaired)
        assert channel.rounds == 2
        assert [m.label for m in channel.messages] == [
            "adaptive-request", "adaptive-window",
        ]
        assert channel.messages[0].direction is Direction.BOB_TO_ALICE

    def test_pump_stalls_loudly_on_mispaired_sessions(self):
        """Two passive endpoints deadlock; the pump must raise, not hang."""
        config = _config()
        alice = AdaptiveAliceSession(config, [(1, 1)])  # waits for request
        bob = OneRoundBobSession(config, [(1, 1)])      # waits for sketch
        with pytest.raises(SessionError, match="stalled"):
            pump(alice, bob, SimulatedChannel())


class TestAsyncLoopback:
    def test_adaptive_over_loopback_matches_simulated(self):
        workload = _workload(seed=6)
        config = _config(seed=6)
        direct = reconcile_adaptive(workload.alice, workload.bob, config)

        async def run():
            channel = LoopbackChannel()
            alice = AdaptiveAliceSession(config, workload.alice)
            bob = AdaptiveBobSession(config, workload.bob)
            results = await asyncio.gather(
                run_async(alice, channel), run_async(bob, channel)
            )
            return channel, results[1]

        channel, result = asyncio.run(run())
        assert sorted(result.repaired) == sorted(direct.repaired)
        assert channel.total_bits == direct.transcript.total_bits

    def test_loopback_close_wakes_receiver(self):
        """A dead peer must never leave the other side awaiting forever."""

        async def run():
            channel = LoopbackChannel()

            async def receiver():
                await channel.receive(Direction.ALICE_TO_BOB)

            task = asyncio.create_task(receiver())
            await asyncio.sleep(0.01)
            channel.close()
            with pytest.raises(ChannelError):
                await asyncio.wait_for(task, timeout=2)

        asyncio.run(run())


class TestChannelOwnership:
    """Regression: reconcile* must not close caller-supplied channels."""

    @pytest.mark.parametrize("runner,kwargs", [
        (reconcile, {}),
        (reconcile_adaptive, {}),
        (reconcile_rateless, {}),
    ])
    def test_caller_channel_stays_open_and_reusable(self, runner, kwargs):
        workload = _workload(seed=7)
        config = _config(seed=7)
        channel = SimulatedChannel()
        first = runner(workload.alice, workload.bob, config, channel=channel)
        assert not channel.closed
        messages_after_first = len(channel.messages)
        # The same channel is usable for a second run (the old behavior
        # raised ChannelError here).
        second = runner(workload.alice, workload.bob, config, channel=channel)
        assert not channel.closed
        assert len(channel.messages) == 2 * messages_after_first
        # Each run's transcript covers only its own messages.
        assert first.transcript.total_bits == second.transcript.total_bits
        assert first.transcript.rounds == second.transcript.rounds

    def test_owned_channel_transcript_unchanged(self):
        workload = _workload(seed=8)
        config = _config(seed=8)
        channel = SimulatedChannel()
        via_channel = reconcile(
            workload.alice, workload.bob, config, channel=channel
        )
        owned = reconcile(workload.alice, workload.bob, config)
        assert owned.transcript == via_channel.transcript


class TestRandomizedParity:
    def test_many_seeds_one_round(self):
        """Session-pumped runs equal direct reconciler runs across seeds."""
        for seed in range(5):
            rng = random.Random(seed)
            workload = _workload(seed=seed, n=40 + rng.randrange(40))
            config = _config(seed=seed, k=4 + rng.randrange(8))
            direct = reconcile(workload.alice, workload.bob, config)
            channel = SimulatedChannel()
            _, result = pump(
                OneRoundAliceSession(config, workload.alice),
                OneRoundBobSession(config, workload.bob),
                channel,
            )
            assert sorted(result.repaired) == sorted(direct.repaired), seed
            assert channel.total_bits == direct.transcript.total_bits, seed
