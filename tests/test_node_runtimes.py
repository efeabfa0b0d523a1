"""Per-node data planes: sources, relays, destinations, unicast FIFOs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emulator.node import (
    CodedDestinationRuntime,
    CodedRelayRuntime,
    CodedSourceRuntime,
    FlowDestinationRuntime,
    FlowPacket,
    FlowRelayRuntime,
    FlowSourceRuntime,
    InterSessionXorRelay,
    MultiSessionNodeRuntime,
    UnicastRuntime,
)
from repro.emulator.plan import CodingParams

from tests.dormancy import assert_fixed_point

PACKET_BYTES = 1000


def exact_source(rate=2000.0, blocks=4, queue_limit=10):
    return CodedSourceRuntime(
        0, 1, blocks, rate, PACKET_BYTES, np.random.default_rng(0),
        queue_limit=queue_limit,
    )


class TestCodedSource:
    def test_generates_at_rate(self):
        source = exact_source(rate=2000.0)  # 2 packets/second
        for _ in range(10):
            source.on_slot(0.5)  # 5 seconds -> 10 packets
        assert source.packets_generated == 10

    def test_backlog_and_pop(self):
        source = exact_source()
        source.on_slot(1.0)
        assert source.backlog() == 2.0
        packet = source.pop_transmission()
        assert packet is not None
        assert source.queue_length() == 1

    def test_pop_empty_returns_none(self):
        assert exact_source().pop_transmission() is None

    def test_queue_limit_drops(self):
        source = exact_source(rate=1e6, queue_limit=5)
        source.on_slot(1.0)
        assert source.queue_length() == 5
        assert source.packets_dropped > 0

    def test_generation_advance_flushes_queue(self):
        source = exact_source()
        source.on_slot(1.0)
        source.advance_generation(1)
        assert source.queue_length() == 0
        source.on_slot(1.0)
        assert source.pop_transmission().generation_id == 1

    def test_stale_advance_ignored(self):
        source = exact_source()
        source.advance_generation(2)
        source.advance_generation(1)  # ignored
        source.on_slot(1.0)
        assert source.pop_transmission().generation_id == 2

    def test_demand_rate(self):
        source = exact_source(rate=2000.0)
        assert source.demand_rate(0.5) == pytest.approx(1.0)


class TestCodedRelay:
    def _relay(self, mode="rate", **kwargs):
        defaults = dict(rate_bps=2000.0) if mode == "rate" else dict(
            tx_credit=1.0, upstream=(0,)
        )
        defaults.update(kwargs)
        return CodedRelayRuntime(
            1, 1, 4, PACKET_BYTES, np.random.default_rng(1), mode=mode, **defaults
        )

    def _packet(self, vector, generation=0):
        from repro.coding.packet import CodedPacket

        return CodedPacket(1, generation, np.asarray(vector, dtype=np.uint8))

    def test_rate_relay_needs_content(self):
        relay = self._relay()
        relay.on_slot(1.0)  # credit accrues but buffer empty
        assert relay.backlog() == 0.0
        relay.on_receive(self._packet([1, 0, 0, 0]), sender=0)
        relay.on_slot(1.0)
        assert relay.backlog() > 0

    def test_credit_cap_limits_burst(self):
        relay = self._relay()
        for _ in range(100):
            relay.on_slot(1.0)  # bank credit far beyond the cap
        relay.on_receive(self._packet([1, 0, 0, 0]), sender=0)
        relay.on_slot(0.0001)
        assert relay.queue_length() <= 4  # cap (3) + the slot's accrual

    def test_credit_relay_earns_on_upstream_hearing(self):
        relay = self._relay(mode="credit")
        relay.on_receive(self._packet([1, 0, 0, 0]), sender=0)
        assert relay.packets_generated == 1  # credit 1.0 -> one packet

    def test_credit_relay_ignores_downstream_senders(self):
        relay = self._relay(mode="credit")
        relay.on_receive(self._packet([1, 0, 0, 0]), sender=5)  # not upstream
        assert relay.packets_generated == 0
        assert relay.buffered == 1  # still stored (innovative)

    def test_noninnovative_still_earns_credit(self):
        relay = self._relay(mode="credit", tx_credit=0.5)
        relay.on_receive(self._packet([1, 0, 0, 0]), sender=0)
        relay.on_receive(self._packet([1, 0, 0, 0]), sender=0)  # duplicate
        assert relay.packets_accepted == 1
        assert relay.packets_heard == 2
        assert relay.packets_generated == 1  # 0.5 + 0.5 credits

    def test_newer_generation_flushes(self):
        relay = self._relay()
        relay.on_receive(self._packet([1, 0, 0, 0], generation=0), sender=0)
        relay.on_receive(self._packet([0, 1, 0, 0], generation=2), sender=0)
        assert relay.buffered == 1
        packet = None
        relay.on_slot(1.0)
        packet = relay.pop_transmission()
        assert packet.generation_id == 2

    def test_generation_size_switch_starts_from_an_empty_filter(self):
        relay = self._relay()
        relay.on_receive(self._packet([1, 2, 3, 4]), sender=0)
        relay.on_receive(self._packet([1, 2, 3, 4]), sender=0)
        assert relay.packets_accepted == 1
        relay.apply_plan(coding=CodingParams(blocks=6))
        relay.advance_generation(1)
        assert relay.buffered == 0
        # A stale-sized packet is dropped; the same direction at the new
        # size is innovative again in the new generation.
        relay.on_receive(self._packet([1, 2, 3, 4], generation=1), sender=0)
        assert relay.buffered == 0
        relay.on_receive(self._packet([1, 2, 3, 4, 0, 0], generation=1), sender=0)
        relay.on_receive(self._packet([1, 2, 3, 4, 0, 0], generation=1), sender=0)
        assert relay.buffered == 1
        assert relay.packets_accepted == 2

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            CodedRelayRuntime(
                1, 1, 4, PACKET_BYTES, np.random.default_rng(0), mode="x"
            )


class TestCodedDestination:
    def test_ack_fires_exactly_at_full_rank(self):
        from repro.coding.packet import CodedPacket

        acks = []
        destination = CodedDestinationRuntime(9, 1, 3, acks.append)
        identity = np.eye(3, dtype=np.uint8)
        for k in range(3):
            destination.on_receive(CodedPacket(1, 0, identity[k]), sender=0)
        assert acks == [0]
        assert destination.generations_decoded == 1

    def test_ignores_other_sessions_and_generations(self):
        from repro.coding.packet import CodedPacket

        destination = CodedDestinationRuntime(9, 1, 3, lambda g: None)
        destination.on_receive(
            CodedPacket(2, 0, np.eye(3, dtype=np.uint8)[0]), sender=0
        )
        destination.on_receive(
            CodedPacket(1, 5, np.eye(3, dtype=np.uint8)[0]), sender=0
        )
        assert destination.packets_heard == 0
        assert destination.rank == 0


class TestFlowRuntimes:
    def test_flow_source_packets_carry_full_content(self):
        source = FlowSourceRuntime(0, 1, 40, 2000.0, PACKET_BYTES)
        source.on_slot(1.0)
        packet = source.pop_transmission()
        assert packet.content == 40.0

    def test_flow_relay_gains_only_from_ahead_senders(self):
        relay = FlowRelayRuntime(1, 1, 40, PACKET_BYTES, mode="rate", rate_bps=1000)
        relay.on_receive(FlowPacket(1, 0, 5.0), sender=0)
        assert relay.information == 1.0
        relay.on_receive(FlowPacket(1, 0, 0.5), sender=0)  # behind: useless
        assert relay.information == 1.0

    def test_flow_relay_caps_at_blocks(self):
        relay = FlowRelayRuntime(1, 1, 2, PACKET_BYTES, mode="rate", rate_bps=1000)
        for _ in range(5):
            relay.on_receive(FlowPacket(1, 0, 10.0), sender=0)
        assert relay.information == 2.0

    def test_flow_destination_acks_at_blocks(self):
        acks = []
        destination = FlowDestinationRuntime(9, 1, 3, acks.append)
        for _ in range(3):
            destination.on_receive(FlowPacket(1, 0, 40.0), sender=0)
        assert acks == [0]
        assert destination.generations_decoded == 1

    def test_flow_generation_advance(self):
        relay = FlowRelayRuntime(1, 1, 4, PACKET_BYTES, mode="credit",
                                 tx_credit=1.0, upstream=(0,))
        relay.on_receive(FlowPacket(1, 0, 4.0), sender=0)
        relay.on_receive(FlowPacket(1, 3, 4.0), sender=0)
        assert relay.information == 1.0  # reset then one new unit


class TestUnicastRuntime:
    def test_source_generates_and_forwards(self):
        delivered = []
        source = UnicastRuntime(0, 1, rate_bps=2000.0, packet_bytes=PACKET_BYTES)
        sink = UnicastRuntime(1, None, on_delivered=delivered.append)
        source.on_slot(1.0)
        assert source.backlog() == 2.0
        seq = source.peek_sequence()
        source.complete_transmission(True)
        sink.receive_sequence(seq)
        assert delivered == [0]
        assert sink.packets_delivered == 1

    def test_failed_transmission_keeps_head(self):
        source = UnicastRuntime(0, 1, rate_bps=1000.0, packet_bytes=PACKET_BYTES)
        source.on_slot(1.0)
        head = source.peek_sequence()
        source.complete_transmission(False)
        assert source.peek_sequence() == head  # MAC retransmission

    def test_destination_has_no_backlog(self):
        sink = UnicastRuntime(1, None)
        sink.receive_sequence(0)
        assert sink.backlog() == 0.0
        assert sink.peek_sequence() is None

    def test_relay_queue_limit(self):
        relay = UnicastRuntime(1, 2, queue_limit=2)
        for seq in range(5):
            relay.receive_sequence(seq)
        assert relay.queue_length() == 2
        assert relay.packets_dropped == 3

    def test_complete_without_packet_raises(self):
        with pytest.raises(RuntimeError):
            UnicastRuntime(0, 1).complete_transmission(True)

    def test_demand_hint(self):
        node = UnicastRuntime(
            0, 1, packet_bytes=PACKET_BYTES, demand_hint_bps=2000.0
        )
        assert node.demand_rate(0.5) == pytest.approx(1.0)

    @pytest.mark.parametrize("field", ["rate_bps", "demand_hint_bps"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan"), -1.0])
    def test_a_rate_must_be_finite_and_non_negative(self, field, value):
        # An infinite rate banks infinite credit, and the tick's one-credit
        # loop never ends; a NaN one becomes a NaN lottery weight.
        with pytest.raises(ValueError, match=field):
            UnicastRuntime(0, 1, packet_bytes=PACKET_BYTES, **{field: value})
        node = UnicastRuntime(0, 1, packet_bytes=PACKET_BYTES)
        with pytest.raises(ValueError, match=field):
            node.apply_plan(**{field: value})
        assert node._rate == 0.0 and node._demand_hint == 0.0

    @pytest.mark.parametrize("packet_bytes", [0, -1000])
    def test_a_packet_must_have_bytes(self, packet_bytes):
        with pytest.raises(ValueError, match="packet_bytes"):
            UnicastRuntime(0, 1, rate_bps=1000.0, packet_bytes=packet_bytes)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_a_flow_sender_refuses_a_rate_that_is_not_finite(self, value):
        with pytest.raises(ValueError, match="rate_bps"):
            FlowSourceRuntime(0, 1, 4, value, PACKET_BYTES)
        relay = FlowRelayRuntime(1, 1, 4, PACKET_BYTES, mode="rate", rate_bps=500.0)
        with pytest.raises(ValueError, match="rate_bps"):
            relay.apply_plan(rate_bps=value)
        assert relay._rate == 500.0


# -- the dormant() fixed-point contract ----------------------------------------

RATES = (0.0, 300.0, 2000.0, 1e6)
SLOTS = (0.05, 0.5, 1.0)


def _ignore(_generation):
    return None


def _exact_packets(blocks, generation_id, count=3):
    from repro.coding.encoder import SourceEncoder
    from repro.coding.generation import Generation

    encoder = SourceEncoder(
        1,
        Generation(generation_id, np.zeros((blocks, 1), dtype=np.uint8)),
        np.random.default_rng(5),
        payload=False,
    )
    return [encoder.next_packet() for _ in range(count)]


class _Driver:
    """One runtime plus how to poke it: the operations a session performs."""

    def __init__(self, runtime, family):
        self.runtime = runtime
        self.family = family  # "exact" | "flow" | "unicast" | "multi"
        self.generation = 0
        self.sequence = 0

    def receive(self, sender):
        runtime = self.runtime
        if self.family == "unicast":
            runtime.receive_sequence(self.sequence)
            self.sequence += 1
        elif self.family == "exact":
            for packet in _exact_packets(4, self.generation, count=1 + sender):
                runtime.on_receive(packet, sender)
        else:
            for session_id in (1, 2):
                runtime.on_receive(FlowPacket(session_id, self.generation, 4.0), sender)

    def pop(self, _argument):
        runtime = self.runtime
        if self.family == "unicast":
            if runtime.peek_sequence() is not None:
                runtime.complete_transmission(self.sequence % 2 == 0)
        else:
            runtime.pop_transmission()

    def advance(self, _argument):
        self.generation += 1
        if self.family == "multi":
            for session_id in (1, 2):
                self.runtime.advance_session_generation(session_id, self.generation)
        elif self.family != "unicast":
            self.runtime.advance_generation(self.generation)

    def plan(self, rate):
        if self.family == "multi":
            self.runtime.session_runtime(1).apply_plan(rate_bps=rate)
        else:
            self.runtime.apply_plan(rate_bps=rate)

    def churn(self, choice):
        if self.family == "multi":
            session_id = 1 + choice % 2
            if choice < 2:
                self.runtime.deactivate_session(session_id)
            else:
                self.runtime.activate_session(session_id)


def _flow_relay(mode, rate, node=1, session_id=1):
    return FlowRelayRuntime(
        node, session_id, 4, PACKET_BYTES, mode=mode, rate_bps=rate,
        tx_credit=1.5, upstream=(0,), queue_limit=6,
    )


def _composite(kind, rate):
    if kind == "xor":
        composite = InterSessionXorRelay(1, [(1, 2)])
    else:
        composite = MultiSessionNodeRuntime(1)
    composite.add_session(1, _flow_relay("rate", rate, session_id=1))
    composite.add_session(
        2, FlowDestinationRuntime(1, 2, 4, _ignore), active=(kind != "late")
    )
    return composite


DRIVERS = {
    "coded-source": lambda rate: _Driver(exact_source(rate=rate), "exact"),
    "coded-relay-rate": lambda rate: _Driver(
        CodedRelayRuntime(
            1, 1, 4, PACKET_BYTES, np.random.default_rng(1),
            mode="rate", rate_bps=rate, queue_limit=6,
        ),
        "exact",
    ),
    "coded-relay-credit": lambda rate: _Driver(
        CodedRelayRuntime(
            1, 1, 4, PACKET_BYTES, np.random.default_rng(1),
            mode="credit", tx_credit=1.5, upstream=(0,), queue_limit=6,
        ),
        "exact",
    ),
    "coded-destination": lambda rate: _Driver(
        CodedDestinationRuntime(2, 1, 4, _ignore), "exact"
    ),
    "flow-source": lambda rate: _Driver(
        FlowSourceRuntime(0, 1, 4, rate, PACKET_BYTES, queue_limit=6), "flow"
    ),
    "flow-relay-rate": lambda rate: _Driver(_flow_relay("rate", rate), "flow"),
    "flow-relay-credit": lambda rate: _Driver(_flow_relay("credit", rate), "flow"),
    "flow-destination": lambda rate: _Driver(
        FlowDestinationRuntime(2, 1, 4, _ignore), "flow"
    ),
    "unicast-source": lambda rate: _Driver(
        UnicastRuntime(0, 1, rate_bps=rate, packet_bytes=PACKET_BYTES, queue_limit=6),
        "unicast",
    ),
    "unicast-relay": lambda rate: _Driver(
        UnicastRuntime(1, 2, packet_bytes=PACKET_BYTES, queue_limit=6), "unicast"
    ),
    "unicast-sink": lambda rate: _Driver(
        UnicastRuntime(2, None, packet_bytes=PACKET_BYTES), "unicast"
    ),
    "multi": lambda rate: _Driver(_composite("plain", rate), "multi"),
    "multi-late-session": lambda rate: _Driver(_composite("late", rate), "multi"),
    "multi-xor": lambda rate: _Driver(_composite("xor", rate), "multi"),
}

OPERATIONS = st.one_of(
    st.tuples(st.just("slot"), st.integers(1, 12)),
    st.tuples(st.just("receive"), st.integers(0, 1)),
    st.tuples(st.just("pop"), st.just(0)),
    st.tuples(st.just("advance"), st.just(0)),
    st.tuples(st.just("plan"), st.sampled_from(RATES)),
    st.tuples(st.just("churn"), st.integers(0, 3)),
)


PARITY_OPERATIONS = st.one_of(
    st.tuples(st.just("slot"), st.integers(1, 12)),
    st.tuples(st.just("receive"), st.tuples(st.integers(0, 2), st.integers(-1, 1))),
    st.tuples(st.just("pop"), st.integers(1, 3)),
    st.tuples(st.just("advance"), st.integers(0, 2)),
    st.tuples(st.just("plan"), st.fixed_dictionaries({}, optional={
        "rate_bps": st.sampled_from(RATES),
        "mode": st.sampled_from(("rate", "credit")),
        "tx_credit": st.sampled_from((0.0, 0.4, 1.5, 3.0)),
        "upstream": st.sampled_from(((), (0,), (0, 2))),
        "coding": st.builds(CodingParams, blocks=st.sampled_from((2, 4, 7))),
    })),
)


def _pacing(runtime, dt):
    return (
        repr(runtime._credit),
        runtime.queue_length(),
        runtime.packets_generated,
        runtime.packets_sent,
        runtime.packets_dropped,
        runtime.backlog(),
        repr(runtime.demand_rate(dt)),
        runtime.dormant(dt),
    )


class TestFidelityParity:
    """Coded* and Flow* differ in what a packet carries, never in pacing.

    One schedule of ticks, deliveries, pops, plan swaps and generation
    advances drives an exact and a flow runtime side by side; credit,
    queue and counters must agree at every step.  (Each delivery is
    innovative for both or neither at the only granularity pacing sees:
    whether the relay holds anything.)
    """

    @staticmethod
    def _run(pair, roles, dt, operations):
        generation, blocks, pending = 0, 4, None

        def crossed(new_generation):
            nonlocal generation, blocks, pending
            if new_generation > generation:
                generation = new_generation
                blocks, pending = pending or blocks, None

        assert _pacing(pair[0], dt) == _pacing(pair[1], dt)
        for name, argument in operations:
            if name == "slot":
                for _ in range(argument):
                    for runtime in pair:
                        runtime.on_slot(dt)
            elif name == "receive" and roles == "relay":
                sender, offset = argument
                packet_generation = max(0, generation + offset)
                crossed(packet_generation)
                coded, flow = pair
                coded.on_receive(_exact_packets(blocks, packet_generation, 1)[0], sender)
                flow.on_receive(FlowPacket(1, packet_generation, float(blocks)), sender)
            elif name == "pop":
                for runtime in pair:
                    for _ in range(argument):
                        runtime.pop_transmission()
            elif name == "advance":
                crossed(generation + argument)
                for runtime in pair:
                    runtime.advance_generation(generation)
            elif name == "plan":
                if roles == "source":
                    argument = {
                        key: argument[key]
                        for key in ("rate_bps", "coding")
                        if key in argument
                    }
                pending = getattr(argument.get("coding"), "blocks", pending)
                for runtime in pair:
                    runtime.apply_plan(**argument)
            assert _pacing(pair[0], dt) == _pacing(pair[1], dt), (name, argument)

    @pytest.mark.parametrize("mode", ["rate", "credit"])
    @settings(max_examples=60, deadline=None)
    @given(
        rate=st.sampled_from(RATES),
        dt=st.sampled_from(SLOTS),
        operations=st.lists(PARITY_OPERATIONS, max_size=30),
    )
    def test_relays_pace_identically(self, mode, rate, dt, operations):
        settings_ = dict(
            mode=mode, rate_bps=rate, tx_credit=1.5, upstream=(0,), queue_limit=6
        )
        pair = (
            CodedRelayRuntime(
                1, 1, 4, PACKET_BYTES, np.random.default_rng(1), **settings_
            ),
            FlowRelayRuntime(1, 1, 4, PACKET_BYTES, **settings_),
        )
        self._run(pair, "relay", dt, operations)

    @settings(max_examples=60, deadline=None)
    @given(
        rate=st.sampled_from(RATES),
        dt=st.sampled_from(SLOTS),
        operations=st.lists(PARITY_OPERATIONS, max_size=30),
    )
    def test_sources_pace_identically(self, rate, dt, operations):
        pair = (
            exact_source(rate=rate, queue_limit=6),
            FlowSourceRuntime(0, 1, 4, rate, PACKET_BYTES, queue_limit=6),
        )
        self._run(pair, "source", dt, operations)


class TestDormantContract:
    """``dormant(dt)`` => ticking is a no-op, nothing queued, no backlog."""

    @pytest.mark.parametrize("kind", sorted(DRIVERS))
    @settings(max_examples=40, deadline=None)
    @given(
        rate=st.sampled_from(RATES),
        dt=st.sampled_from(SLOTS),
        operations=st.lists(OPERATIONS, max_size=25),
    )
    def test_dormant_states_are_fixed_points(self, kind, rate, dt, operations):
        driver = DRIVERS[kind](rate)
        assert_fixed_point(driver.runtime, dt)
        for name, argument in operations:
            if name == "slot":
                for _ in range(argument):
                    driver.runtime.on_slot(dt)
            else:
                getattr(driver, name)(argument)
            assert_fixed_point(driver.runtime, dt)

    def test_starved_rate_relay_parks_at_the_credit_cap(self):
        relay = _flow_relay("rate", 2000.0)
        assert not relay.dormant(0.5)  # credit still climbing
        for _ in range(3):
            relay.on_slot(0.5)
        assert assert_fixed_point(relay, 0.5)
        relay.on_receive(FlowPacket(1, 0, 4.0), sender=0)
        assert not relay.dormant(0.5)  # information to drain the credit into

    def test_exact_relay_parks_like_the_flow_relay(self):
        relay = DRIVERS["coded-relay-rate"](2000.0).runtime
        for _ in range(3):
            relay.on_slot(0.5)
        assert assert_fixed_point(relay, 0.5)
        relay.on_receive(_exact_packets(4, 0, count=1)[0], sender=0)
        assert not relay.dormant(0.5)

    def test_silenced_relay_with_information_is_dormant(self):
        relay = _flow_relay("rate", 0.0)
        relay.on_receive(FlowPacket(1, 0, 4.0), sender=0)
        assert assert_fixed_point(relay, 0.5)
        relay.apply_plan(rate_bps=2000.0)
        assert not relay.dormant(0.5)

    def test_credit_relays_never_claim_dormancy(self):
        # Their demand EWMA decays every slot, so no state is a fixed point.
        for kind in ("coded-relay-credit", "flow-relay-credit"):
            relay = DRIVERS[kind](0.0).runtime
            for _ in range(50):
                relay.on_slot(0.5)
                assert not relay.dormant(0.5)

    def test_sources_and_loaded_forwarders_stay_awake(self):
        assert not DRIVERS["flow-source"](2000.0).runtime.dormant(0.5)
        assert not DRIVERS["unicast-source"](2000.0).runtime.dormant(0.5)
        relay = DRIVERS["unicast-relay"](0.0).runtime
        assert assert_fixed_point(relay, 0.5)
        relay.receive_sequence(0)
        assert not relay.dormant(0.5)

    def test_destinations_and_sinks_are_always_dormant(self):
        for kind in ("coded-destination", "flow-destination", "unicast-sink"):
            assert assert_fixed_point(DRIVERS[kind](0.0).runtime, 0.5)

    def test_composite_is_dormant_iff_every_active_session_is(self):
        composite = _composite("plain", 2000.0)
        assert not composite.dormant(0.5)  # the relay's credit is climbing
        for _ in range(3):
            composite.on_slot(0.5)
        assert assert_fixed_point(composite, 0.5)
        composite.on_receive(FlowPacket(1, 0, 4.0), sender=0)
        assert not composite.dormant(0.5)
        composite.deactivate_session(1)  # only the destination is left
        assert assert_fixed_point(composite, 0.5)
