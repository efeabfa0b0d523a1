"""Multi-session data plane: composites, the driver, and the N = 1
oracle against the single-session driver."""

from dataclasses import replace
from itertools import permutations
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.emulator.multisession import (
    MultiSessionOutcome,
    multi_session_digest,
    run_multi_session,
)
from repro.emulator.shard import ShardedSession
from repro.emulator.node import (
    FlowDestinationRuntime,
    FlowSourceRuntime,
    MultiSessionNodeRuntime,
    XorPacket,
)
from repro.emulator.plan import CodingParams
from repro.emulator.session import SessionConfig, run_coded_session
from repro.emulator.shard import session_digest
from repro.obs import EventTracer, trace_digest
from repro.protocols.etx_routing import plan_etx_route
from repro.protocols.more import plan_more
from repro.protocols.omnc import plan_omnc
from repro.routing.node_selection import NodeSelectionError
from repro.scenario.spec import ScenarioEvent, ScenarioSpec
from repro.topology.random_network import random_network
from repro.util.rng import RngFactory
from tests.meshes import lossy_meshes
from tests.test_active_set import churn_xor_run, planned_mesh

# Every slot of every run below re-checks each parked runtime
# (tests/conftest.py): a missing wake fails the oracle tests loudly.
pytestmark = pytest.mark.usefixtures("parked_contract")


def _quick_config(**overrides):
    defaults = dict(
        blocks=8, block_size=256, max_seconds=12.0, target_generations=0
    )
    defaults.update(overrides)
    return SessionConfig(**defaults)


def _three_session_mesh(seed, nodes=40):
    """A seeded mesh plus three feasible disjoint-endpoint plans."""
    network = random_network(nodes, rng=seed)
    plans = {}
    used = set()
    sid = 1
    for source in range(nodes):
        if sid > 3:
            break
        if source in used:
            continue
        for destination in range(nodes - 1, -1, -1):
            if destination == source or destination in used:
                continue
            planner = plan_omnc if sid % 2 else plan_more
            try:
                plans[sid] = planner(network, source, destination)
            except NodeSelectionError:
                continue
            used.update((source, destination))
            sid += 1
            break
    if len(plans) < 3:
        raise RuntimeError(f"seed {seed}: fewer than 3 feasible sessions")
    return network, plans


def _churn_scenario(duration):
    """Session 3 arrives at 1/3 of the run; session 2 departs at 2/3."""
    return ScenarioSpec(
        name="churn",
        duration=duration,
        epoch_seconds=duration,
        events=(
            ScenarioEvent(
                at=duration / 3, kind="session_arrive", session_id=3
            ),
            ScenarioEvent(
                at=2 * duration / 3, kind="session_depart", session_id=2
            ),
        ),
    )


def _fresh_flow_runtime(node_id, session_id, role="source"):
    if role == "source":
        runtime = FlowSourceRuntime(
            node_id, session_id, blocks=4, rate_bps=4096.0, packet_bytes=256
        )
        runtime.on_slot(1.0)  # accrue credit: 16 packets queued
        return runtime
    return FlowDestinationRuntime(
        node_id, session_id, blocks=4, on_decoded=lambda generation: None
    )


class TestXorPacket:
    def test_components_sorted_by_session(self):
        a = _fresh_flow_runtime(0, 2).pop_transmission()
        b = _fresh_flow_runtime(1, 1).pop_transmission()
        packet = XorPacket((a, b))
        assert [c.session_id for c in packet.components] == [1, 2]
        assert packet.session_ids == (1, 2)

    def test_rejects_single_session(self):
        a = _fresh_flow_runtime(0, 1).pop_transmission()
        b = _fresh_flow_runtime(1, 1).pop_transmission()
        with pytest.raises(ValueError):
            XorPacket((a, b))


class TestMultiSessionComposite:
    def test_routes_by_session_id(self):
        composite = MultiSessionNodeRuntime(5)
        composite.add_session(1, _fresh_flow_runtime(5, 1, role="dest"))
        composite.add_session(2, _fresh_flow_runtime(5, 2, role="dest"))
        packet = _fresh_flow_runtime(0, 2).pop_transmission()
        composite.on_receive(packet, sender=0)
        stats = composite.session_stats()
        assert stats[2]["delivered_links"] == [(0, 5)]
        assert stats[1]["delivered_links"] == []

    def test_drops_unhosted_and_dormant_sessions(self):
        composite = MultiSessionNodeRuntime(5)
        composite.add_session(
            1, _fresh_flow_runtime(5, 1, role="dest"), active=False
        )
        composite.on_receive(
            _fresh_flow_runtime(0, 1).pop_transmission(), sender=0
        )
        composite.on_receive(
            _fresh_flow_runtime(0, 9).pop_transmission(), sender=0
        )
        assert composite.session_stats()[1]["delivered_links"] == []

    def test_round_robin_pop_interleaves_sessions(self):
        composite = MultiSessionNodeRuntime(3)
        composite.add_session(1, _fresh_flow_runtime(3, 1))
        composite.add_session(2, _fresh_flow_runtime(3, 2))
        seen = [composite.pop_transmission().session_id for _ in range(4)]
        assert seen == [1, 2, 1, 2]

    def test_single_session_advance_raises(self):
        composite = MultiSessionNodeRuntime(3)
        composite.add_session(1, _fresh_flow_runtime(3, 1))
        with pytest.raises(RuntimeError, match="advance_session_generation"):
            composite.advance_generation(1)

    def test_plan_updates_go_to_the_session_runtime(self):
        composite = MultiSessionNodeRuntime(3)
        composite.add_session(1, _fresh_flow_runtime(3, 1))
        with pytest.raises(RuntimeError, match="session_runtime"):
            composite.apply_plan(rate_bps=1.0)
        composite.session_runtime(1).apply_plan(rate_bps=1.0)

    def test_activation_round_trip(self):
        composite = MultiSessionNodeRuntime(3)
        composite.add_session(1, _fresh_flow_runtime(3, 1), active=False)
        assert composite.active_sessions() == ()
        assert composite.hosted_sessions() == (1,)
        composite.activate_session(1)
        assert composite.active_sessions() == (1,)
        composite.deactivate_session(1)
        assert composite.active_sessions() == ()

    def test_duplicate_session_rejected(self):
        composite = MultiSessionNodeRuntime(3)
        composite.add_session(1, _fresh_flow_runtime(3, 1))
        with pytest.raises(ValueError):
            composite.add_session(1, _fresh_flow_runtime(3, 1))


class TestRunMultiSession:
    def test_per_session_results_and_aggregate(self):
        network, plans = _three_session_mesh(2008)
        outcome = run_multi_session(
            network, plans, config=_quick_config(), rng=RngFactory(2008)
        )
        assert isinstance(outcome, MultiSessionOutcome)
        assert outcome.session_ids == (1, 2, 3)
        assert outcome.aggregate_throughput_bps == pytest.approx(
            sum(outcome.throughputs().values())
        )
        assert 0.0 <= outcome.fairness <= 1.0
        assert outcome.transmissions > 0
        for sid, result in outcome.sessions.items():
            assert result.duration == pytest.approx(outcome.duration)

    def test_fixed_seed_reproduces_exactly(self):
        network, plans = _three_session_mesh(2008)
        digests = []
        for _ in range(2):
            outcome = run_multi_session(
                network, plans, config=_quick_config(), rng=RngFactory(77)
            )
            digests.append(multi_session_digest(outcome))
        assert digests[0] == digests[1]

    def test_unicast_plans_rejected(self):
        network, plans = _three_session_mesh(2008)
        source = plans[1].forwarders.source
        destination = plans[1].forwarders.destination
        plans[1] = plan_etx_route(network, source, destination)
        with pytest.raises(TypeError, match="coded"):
            run_multi_session(
                network, plans, config=_quick_config(), rng=RngFactory(1)
            )

    def test_empty_plans_rejected(self):
        network, _ = _three_session_mesh(2008)
        with pytest.raises(ValueError):
            run_multi_session(
                network, {}, config=_quick_config(), rng=RngFactory(1)
            )

    def test_churn_records_arrivals_and_departures(self):
        network, plans = _three_session_mesh(2008)
        config = _quick_config()
        outcome = run_multi_session(
            network,
            plans,
            config=config,
            rng=RngFactory(2008),
            scenario=_churn_scenario(config.max_seconds),
        )
        assert [sid for _, sid in outcome.arrivals] == [3]
        assert [sid for _, sid in outcome.departures] == [2]
        (arrive_at, _), (depart_at, _) = (
            outcome.arrivals[0],
            outcome.departures[0],
        )
        assert arrive_at == pytest.approx(config.max_seconds / 3, abs=0.1)
        assert depart_at == pytest.approx(
            2 * config.max_seconds / 3, abs=0.1
        )

    @pytest.mark.parametrize(
        "events, message",
        [
            (
                ((5.0, "session_depart"), (10.0, "session_arrive")),
                "session 2 departs at 5.0 s, before it arrives at 10.0 s",
            ),
            (
                ((3.0, "session_arrive"), (6.0, "session_arrive")),
                "session 2 arrives twice, at 3.0 s and at 6.0 s",
            ),
            (
                ((3.0, "session_depart"), (6.0, "session_depart")),
                "session 2 departs twice, at 3.0 s and at 6.0 s",
            ),
        ],
        ids=["departs-before-arriving", "arrives-twice", "departs-twice"],
    )
    def test_churn_out_of_order_rejected(self, events, message):
        network, plans = _three_session_mesh(2008)
        scenario = ScenarioSpec(
            name="bad",
            duration=12.0,
            epoch_seconds=12.0,
            events=tuple(
                ScenarioEvent(at=at, kind=kind, session_id=2) for at, kind in events
            ),
        )
        with pytest.raises(ValueError, match=message):
            run_multi_session(
                network, plans, config=_quick_config(), rng=RngFactory(1), scenario=scenario
            )

    @pytest.mark.parametrize(
        "event",
        [
            ScenarioEvent(at=5.0, kind="fail", node=3),
            ScenarioEvent(at=5.0, kind="drift", sigma=0.5),
            ScenarioEvent(at=5.0, kind="recover", node=3),
            ScenarioEvent(at=5.0, kind="load", cbr_fraction=0.25),
        ],
        ids=lambda event: event.kind,
    )
    def test_non_churn_events_rejected(self, event):
        network, plans = _three_session_mesh(2008)
        scenario = ScenarioSpec(
            name="topology",
            duration=12.0,
            epoch_seconds=12.0,
            events=(
                ScenarioEvent(at=2.0, kind="session_depart", session_id=2),
                event,
            ),
        )
        with pytest.raises(ValueError, match=f"not the '{event.kind}' event at 5.0 s"):
            run_multi_session(
                network, plans, config=_quick_config(), rng=RngFactory(1), scenario=scenario
            )

    def test_churn_event_for_unknown_session_rejected(self):
        network, plans = _three_session_mesh(2008)
        scenario = ScenarioSpec(
            name="bad",
            duration=12.0,
            epoch_seconds=12.0,
            events=(
                ScenarioEvent(at=4.0, kind="session_arrive", session_id=9),
            ),
        )
        with pytest.raises(ValueError, match="unknown session"):
            run_multi_session(
                network,
                plans,
                config=_quick_config(),
                rng=RngFactory(1),
                scenario=scenario,
            )


class TestPlanCarriedGenerationSize:
    """A plan that carries its own generation size is run *and credited* at it."""

    def _plans(self):
        network, plans = _three_session_mesh(2008)
        return network, {1: replace(plans[1], coding=CodingParams(blocks=8))}

    def test_single_plan_is_credited_like_the_single_session_driver(self):
        network, plans = self._plans()
        config = SessionConfig(block_size=256, max_seconds=12.0)  # 40 blocks
        multi = run_multi_session(network, plans, config=config, rng=RngFactory(5))
        single = run_coded_session(
            network, plans[1], config=config, rng=RngFactory(5).spawn("msession-1")
        )
        session = multi.sessions[1]
        assert session.generations_decoded > 0
        assert session.packets_delivered == 8 * session.generations_decoded
        assert session.throughput_bps == pytest.approx(
            session.packets_delivered * 256 / session.ack_times[-1]
        )
        # One session alone in a multi-session run is that session, up to
        # its MAC and channel streams (TestOneSessionOracle: exactly).
        assert session.throughput_bps == pytest.approx(single.throughput_bps, rel=0.25)

    def test_plans_with_different_packet_sizes_are_refused(self):
        network, plans = _three_session_mesh(2008)
        plans[1] = replace(plans[1], coding=CodingParams(blocks=8))
        with pytest.raises(ValueError, match=r"packets differ.*1: \d+.*3: \d+"):
            run_multi_session(
                network, plans, config=_quick_config(blocks=16), rng=RngFactory(5)
            )


def _finalized(run):
    """``run()`` and the stats every session it drove finalized."""
    finalized = []
    finalize = ShardedSession.finalize_stats

    def spy(session):
        stats = finalize(session)
        finalized.append(stats)
        return stats

    with mock.patch.object(ShardedSession, "finalize_stats", spy):
        run()
    assert finalized
    return finalized


def _assert_shares_sum_to_the_node(stats):
    """Per node: the sessions' queue integrals sum to the node's, and their
    transmissions to its own plus its XOR slots (one per component)."""
    shares = {}
    for (_sid, node), counters in stats.sessions.items():
        shares.setdefault(node, []).append(counters)
    assert set(shares) == set(stats.transmissions)
    for node, counters in shares.items():
        assert sum(c.queue_time for c in counters) == stats.queue_time_sum[node]
        assert sum(c.transmissions for c in counters) == (
            stats.transmissions[node] + stats.xor_transmissions.get(node, 0)
        )


def _mesh_plans(network, count=3):
    """Up to ``count`` coded plans over distinct endpoint pairs, alternately
    OMNC and MORE."""
    plans = {}
    for source, destination in permutations(range(network.node_count), 2):
        planner = plan_omnc if len(plans) % 2 == 0 else plan_more
        try:
            plans[len(plans) + 1] = planner(network, source, destination)
        except NodeSelectionError:
            continue
        if len(plans) == count:
            break
    return plans


class TestSessionSharesOfTheQueueSample:
    """One queue-sampling instant: a node's per-session queue integrals
    are its slot-end samples split by session, so they sum to its own."""

    @given(network=lossy_meshes(), seed=st.integers(0, 2**16))
    @settings(
        deadline=None,
        max_examples=12,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    def test_multi_session_on_lossy_meshes(self, network, seed):
        plans = _mesh_plans(network)
        assume(len(plans) >= 2)
        for stats in _finalized(
            lambda: run_multi_session(
                network, plans, config=_quick_config(max_seconds=3.0), rng=RngFactory(seed)
            )
        ):
            _assert_shares_sum_to_the_node(stats)

    def test_churn_and_xor(self):
        for stats in _finalized(lambda: churn_xor_run(None)):
            assert sum(stats.xor_transmissions.values()) > 0
            _assert_shares_sum_to_the_node(stats)


class TestOneSessionOracle:
    """N = 1: a multi-session run of one plan is the single-session run of
    it, result and trace (flow fidelity: no coding stream is drawn)."""

    @pytest.mark.parametrize("interference", ["blanking", "capture", "conflict_free"])
    @pytest.mark.parametrize("planner", [plan_omnc, plan_more], ids=["rate", "credit"])
    def test_multi_session_of_one_is_the_session(self, planner, interference):
        network, source, destination, _plan = planned_mesh()
        plan = planner(network, source, destination)
        config = _quick_config(max_seconds=8.0, target_generations=6, interference=interference)
        sid = 7

        def digests(run):
            tracer = EventTracer(capacity=500_000)
            result = run(tracer)
            assert result.generations_decoded > 0
            return session_digest(result), trace_digest(tracer)

        multi = digests(
            lambda tracer: run_multi_session(
                network, {sid: plan}, config=config, rng=RngFactory(3), tracer=tracer,
            ).sessions[sid]
        )
        single = digests(
            lambda tracer: run_coded_session(
                network, plan, session_id=sid, config=config, rng=RngFactory(3), tracer=tracer,
            )
        )
        assert multi == single
