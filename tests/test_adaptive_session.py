"""Live control plane: hot-swap machinery and the adaptive runner.

The tentpole invariants:

* a calm scenario under an oblivious policy is *bit-identical* to the
  static session drivers (the adaptive layer adds nothing when nothing
  happens);
* a fixed seed plus a fixed scenario reproduces the exact same run;
* re-plans charge overhead, survive planning failures, and appear in
  traces and epoch records.
"""

import pytest

from repro.emulator.node import (
    FlowDestinationRuntime,
    FlowRelayRuntime,
    FlowSourceRuntime,
    UnicastRuntime,
)
from repro.emulator.session import (
    SessionConfig,
    build_plan_runtimes,
    plan_runtime_terms,
    run_coded_session,
    run_unicast_session,
)
from repro.emulator.shard import ShardedSession
from repro.obs import EventTracer
from repro.protocols.adaptive import make_planner
from repro.protocols.etx_routing import plan_etx_route
from repro.protocols.more import plan_more
from repro.protocols.omnc import plan_omnc
from repro.routing.node_selection import NodeSelectionError
from repro.scenario import (
    ScenarioEvent,
    ScenarioSpec,
    builtin_scenario,
    make_policy,
    run_adaptive_session,
)
from repro.topology.phy import lossy_phy
from repro.topology.random_network import random_network
from repro.util.rng import RngFactory
from tests.test_active_set import plan_session

# Every slot of every run below re-checks each parked runtime
# (tests/conftest.py): a missing wake fails the oracle tests loudly.
pytestmark = pytest.mark.usefixtures("parked_contract")


@pytest.fixture(scope="module")
def net_pair():
    """A 30-node lossy network plus a session pair with real relays."""
    rng = RngFactory(11)
    network = random_network(
        30, phy=lossy_phy(rng=rng.derive("phy")), rng=rng.derive("topology")
    )
    for source in range(network.node_count):
        for destination in range(network.node_count - 1, -1, -1):
            if source == destination:
                continue
            try:
                plan = plan_more(network, source, destination)
            except NodeSelectionError:
                continue
            if len(plan.forwarders.nodes) >= 4:
                return network, source, destination
    raise RuntimeError("no feasible session on the test network")


class TestApplyPlan:
    def test_source_rate_swap(self):
        source = FlowSourceRuntime(0, 1, 8, 4000.0, 1000)
        assert source.demand_rate(1.0) == pytest.approx(4.0)
        source.apply_plan(rate_bps=2000.0)
        assert source.demand_rate(1.0) == pytest.approx(2.0)
        with pytest.raises(ValueError, match=">= 0"):
            source.apply_plan(rate_bps=-1.0)

    def test_source_swap_keeps_queue(self):
        source = FlowSourceRuntime(0, 1, 8, 4000.0, 1000)
        source.on_slot(1.0)  # generates 4 packets
        queued = source.backlog()
        assert queued > 0
        source.apply_plan(rate_bps=0.0)
        assert source.backlog() == queued

    def test_relay_validation_and_mode_switch(self):
        relay = FlowRelayRuntime(1, 1, 8, 1000, mode="rate", rate_bps=1000.0)
        with pytest.raises(ValueError, match="unknown relay mode"):
            relay.apply_plan(mode="chaotic")
        with pytest.raises(ValueError, match="tx_credit"):
            relay.apply_plan(tx_credit=-0.5)
        with pytest.raises(ValueError, match="rate_bps"):
            relay.apply_plan(rate_bps=-1.0)
        relay.apply_plan(mode="credit", tx_credit=1.5, upstream=(0,))
        relay.apply_plan(mode="rate", rate_bps=500.0)

    def test_relay_swap_keeps_information(self):
        relay = FlowRelayRuntime(1, 1, 8, 1000, mode="rate", rate_bps=1000.0)
        relay.information = 3.0
        relay.apply_plan(rate_bps=2000.0)
        assert relay.information == 3.0

    def test_unicast_route_swap(self):
        node = UnicastRuntime(0, 1, rate_bps=1000.0, packet_bytes=1000)
        with pytest.raises(ValueError, match="next_hop"):
            node.apply_plan(next_hop="two")
        with pytest.raises(ValueError, match="demand_hint"):
            node.apply_plan(demand_hint_bps=-1.0)
        node.apply_plan(next_hop=2)
        assert node.next_hop == 2
        node.apply_plan()  # no parameters: exact no-op
        assert node.next_hop == 2
        node.apply_plan(next_hop=None, rate_bps=0.0)  # becomes the sink
        assert node.next_hop is None

    def test_destination_ignores_parameters(self):
        destination = FlowDestinationRuntime(3, 1, 8, lambda _gen: None)
        destination.apply_plan(rate_bps=123.0, anything="goes")


def _make_engine(network, plan, config, seed, tracer=None):
    rng = RngFactory(seed)
    runtimes = build_plan_runtimes(network, plan, config=config, rng=rng)
    slot = config.coded_packet_bytes() / network.capacity
    return ShardedSession(network, runtimes, slot, rng_factory=rng, tracer=tracer)


class TestEngineHotSwapLayer:
    def test_reinstalling_the_running_plan_is_invisible(self, net_pair):
        network, source, destination = net_pair
        plan = plan_omnc(network, source, destination)
        config = SessionConfig(max_seconds=20.0)

        def run(tracer, swaps):
            with plan_session(network, plan, config, RngFactory(9), tracer=tracer) as session:
                session.run(150)
                if swaps:
                    session.install_plan(
                        plan,
                        plan_runtime_terms(config, plan),
                        config.cbr_fraction * network.capacity,
                    )
                session.run(100)
                if swaps:
                    session.set_network(session.network)  # same topology: no-op too
                session.run(150)
                return session.finalize_stats().transmissions

        straight, reinstalled = EventTracer(), EventTracer()
        assert run(straight, False) == run(reinstalled, True)
        assert list(straight) == list(reinstalled)

    def test_apply_plan_updates_rejects_unknown_nodes(self, net_pair):
        network, source, destination = net_pair
        plan = plan_omnc(network, source, destination)
        with _make_engine(network, plan, SessionConfig(max_seconds=10.0), 2) as engine:
            with pytest.raises(KeyError, match="no runtimes"):
                engine.apply_plan_updates({10_000: {"rate_bps": 1.0}})

    def test_advance_idle_semantics(self, net_pair):
        network, source, destination = net_pair
        plan = plan_omnc(network, source, destination)
        engine = _make_engine(network, plan, SessionConfig(), 9)
        engine.run(50)
        slots = engine.slots
        elapsed = engine.now
        transmitted = engine.finalize_stats().transmissions
        engine.advance_idle(0)
        assert engine.slots == slots
        assert engine.now == elapsed
        engine.advance_idle(10)
        assert engine.slots == slots + 10
        assert engine.now == pytest.approx(elapsed + 10 * engine.slot_duration)
        assert engine.finalize_stats().transmissions == transmitted
        with pytest.raises(ValueError, match=">= 0"):
            engine.advance_idle(-1)

    def test_set_network_rejects_node_count_change(self, net_pair):
        network, source, destination = net_pair
        plan = plan_omnc(network, source, destination)
        engine = _make_engine(network, plan, SessionConfig(), 9)
        smaller = random_network(10, rng=RngFactory(2).derive("t"))
        with pytest.raises(ValueError, match="node count"):
            engine.set_network(smaller)


class TestStaticEquivalence:
    """Calm scenario + oblivious policy == the static pipeline, bit for bit."""

    def test_coded_session_matches_static(self, net_pair):
        network, source, destination = net_pair
        config = SessionConfig(max_seconds=40.0, target_generations=2)
        plan = plan_omnc(network, source, destination)
        static_trace = EventTracer()
        static = run_coded_session(
            network,
            plan,
            config=config,
            rng=RngFactory(5),
            protocol_label="omnc",
            tracer=static_trace,
        )
        adaptive_trace = EventTracer()
        adaptive = run_adaptive_session(
            network,
            make_planner("omnc", source, destination),
            make_policy("oblivious"),
            builtin_scenario("calm", duration=40.0, epoch_seconds=10.0),
            config=config,
            rng=RngFactory(5),
            tracer=adaptive_trace,
        )
        assert list(adaptive_trace) == list(static_trace)
        assert adaptive.session.transmissions == static.transmissions
        assert adaptive.session.ack_times == static.ack_times
        assert adaptive.session.throughput_bps == static.throughput_bps
        assert adaptive.replans == 0
        assert adaptive.replan_seconds == 0.0

    def test_unicast_session_matches_static(self, net_pair):
        network, source, destination = net_pair
        config = SessionConfig(max_seconds=30.0)
        plan = plan_etx_route(network, source, destination)
        static_trace = EventTracer()
        static = run_unicast_session(
            network, plan, config=config, rng=RngFactory(5), tracer=static_trace
        )
        adaptive_trace = EventTracer()
        adaptive = run_adaptive_session(
            network,
            make_planner("etx", source, destination),
            make_policy("oblivious"),
            builtin_scenario("calm", duration=30.0, epoch_seconds=10.0),
            config=config,
            rng=RngFactory(5),
            tracer=adaptive_trace,
        )
        assert list(adaptive_trace) == list(static_trace)
        assert adaptive.session.packets_delivered == static.packets_delivered
        assert adaptive.session.throughput_bps == static.throughput_bps


class TestAdaptiveRuns:
    def _drift_run(self, net_pair, *, seed=7, tracer=None):
        network, source, destination = net_pair
        return run_adaptive_session(
            network,
            make_planner("omnc", source, destination),
            make_policy("drift:0.02"),
            builtin_scenario("drift", duration=45.0, epoch_seconds=9.0),
            config=SessionConfig(max_seconds=45.0),
            rng=RngFactory(seed),
            tracer=tracer,
        )

    def test_fixed_seed_and_scenario_reproduce_exactly(self, net_pair):
        first_trace = EventTracer()
        second_trace = EventTracer()
        first = self._drift_run(net_pair, tracer=first_trace)
        second = self._drift_run(net_pair, tracer=second_trace)
        assert list(first_trace) == list(second_trace)
        assert first == second

    def test_drift_triggers_charged_replans(self, net_pair):
        tracer = EventTracer()
        result = self._drift_run(net_pair, tracer=tracer)
        assert result.replans >= 1
        assert result.replan_seconds > 0.0
        assert len(result.replan_times) == result.replans
        replan_events = list(tracer.records(kind="replan"))
        assert len(replan_events) == result.replans
        assert all(event.fields["node"] == -1 for event in replan_events)
        assert sum(1 for r in result.epochs if r.replanned) == result.replans
        # Cold start plus one rate-control run per successful re-plan.
        assert len(result.planner_iterations) == result.replans + 1
        # A re-plan's stall ends with the session at the latest.
        assert result.session.duration <= 45.0

    def test_warm_start_reconverges_faster(self, net_pair):
        result = self._drift_run(net_pair)
        cold, *warm = result.planner_iterations
        assert warm, "scenario produced no re-plan to warm-start"
        assert min(warm) < cold

    def test_unplannable_replan_keeps_stale_plan(self, net_pair):
        network, source, destination = net_pair
        spec = ScenarioSpec(
            name="kill-destination",
            duration=30.0,
            epoch_seconds=5.0,
            events=(ScenarioEvent(at=10.0, kind="fail", node=destination),),
        )
        result = run_adaptive_session(
            network,
            make_planner("more", source, destination),
            make_policy("drift:0.001"),
            spec,
            config=SessionConfig(max_seconds=30.0),
            rng=RngFactory(3),
        )
        assert result.failed_replans >= 1
        assert result.replans == 0
        assert result.session.duration == pytest.approx(30.0, rel=0.01)
