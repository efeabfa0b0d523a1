"""Active-set slot loop: invisible by construction, pinned by digest.

The slot loop visits only runtimes that are awake; a runtime is parked
once ``dormant(dt)`` reports an exact fixed point.  Parking must change
nothing observable, so the pins these producers compute
(``tests/pins.py``) were recorded on the commit *before* the active-set
loop existed (a full sweep every slot) and must keep matching: the relay
line the benchmark's mesh workload builds, a churn + XOR multi-session
run, adaptive runs with mid-run generation-size switches, a hot-swap
onto a parked relay, and the obs-on counters.  Every producer runs under
the parked-runtime monitor.

Two pins are younger: ``adaptive_switch.runner``'s session digest and
``obs_on.flow_session`` come from the single-session drivers, which drew
from three global streams until they moved to the per-node streams every
other pin here already used.  They were re-recorded at that move, and
the full-sweep loop (every ``dormant`` forced to ``False``) reproduced
both new values.
"""

import hashlib
import json
from unittest import mock

import pytest

from repro import obs
from repro.emulator.awake import AwakeSet
from repro.emulator.engine import EngineCore
from repro.emulator.multisession import multi_session_digest, run_multi_session
from repro.emulator.node import (
    FlowDestinationRuntime,
    FlowRelayRuntime,
    FlowSourceRuntime,
)
from repro.emulator.plan import CodingParams
from repro.emulator.session import (
    SessionConfig,
    build_plan_runtimes,
    plan_coding_config,
    plan_packet_bytes,
    run_coded_session,
)
from repro.emulator.shard import ShardedSession, _DecodeLog, session_digest
from repro.obs import EventTracer, trace_digest
from repro.protocols.adaptive import make_coding_controller, make_planner
from repro.protocols.intersession import plan_intersession_pairs
from repro.protocols.more import plan_more
from repro.protocols.omnc import plan_omnc
from repro.routing.node_selection import NodeSelectionError
from repro.scenario import make_policy, run_adaptive_session
from repro.scenario.spec import ScenarioEvent, ScenarioSpec
from repro.topology.graph import WirelessNetwork
from repro.topology.phy import lossy_phy
from repro.topology.random_network import random_network
from repro.util.rng import RngFactory
from tests.dormancy import under_parked_contract
from tests.pins import COMPILED, PINS, core_form

pytestmark = pytest.mark.usefixtures("parked_contract")

PACKET_BYTES = 1064
BLOCKS = 16


def line_network(nodes):
    """A relay line: unit spacing, 0.8 links both ways, range 1.2."""
    positions = [[float(i), 0.0] for i in range(nodes)]
    links = {}
    for i in range(nodes - 1):
        links[(i, i + 1)] = 0.8
        links[(i + 1, i)] = 0.8
    return WirelessNetwork(positions, links, communication_range=1.2, capacity=2e4)


def line_runtimes(network, decode_log, *, relay_rates=None):
    """Flow source at 0, rate-mode flow relays, flow destination at the end."""
    relay_rates = relay_rates or {}
    last = network.node_count - 1
    runtimes = {
        0: FlowSourceRuntime(0, 1, BLOCKS, rate_bps=1e4, packet_bytes=PACKET_BYTES),
        last: FlowDestinationRuntime(last, 1, BLOCKS, on_decoded=decode_log),
    }
    for relay in range(1, last):
        runtimes[relay] = FlowRelayRuntime(
            relay,
            1,
            BLOCKS,
            PACKET_BYTES,
            mode="rate",
            rate_bps=relay_rates.get(relay, 8e3),
            upstream=(relay - 1,),
        )
    return runtimes


def line_session(network, shards, *, seed=2008, tracer=None, relay_rates=None):
    decode_log = _DecodeLog()
    return ShardedSession(
        network,
        line_runtimes(network, decode_log, relay_rates=relay_rates),
        PACKET_BYTES / network.capacity,
        rng_factory=RngFactory(seed),
        shards=shards,
        tracer=tracer,
        decode_log=decode_log,
    )


def advance_by_hand(session, generation):
    """Move every runtime on to ``generation`` with the session's next
    call, traced as an ``ack``: an advance that no decode caused."""
    session._signal("ack", "advance_generation", generation, detail=generation)


def plan_session(network, plan, config, rng, **options):
    """A session over ``plan``'s runtimes, for a test to drive by hand."""
    log = _DecodeLog()
    runtimes = build_plan_runtimes(
        network, plan, config=config, rng=rng, on_decoded=log, on_delivered=log.deliver
    )
    slot = plan_packet_bytes(plan_coding_config(config, plan), plan) / network.capacity
    return ShardedSession(
        network,
        runtimes,
        slot,
        rng_factory=rng,
        interference=config.interference,
        decode_log=log,
        **options,
    )


def stats_digest(stats):
    """SHA-256 of every ``EngineStats`` field, floats through ``repr``."""
    payload = {
        "slots": stats.slots,
        "elapsed": repr(stats.elapsed),
        "grants": stats.grants,
        "queue_time_sum": {
            str(n): repr(stats.queue_time_sum[n]) for n in sorted(stats.queue_time_sum)
        },
        "transmissions": {
            str(n): stats.transmissions[n] for n in sorted(stats.transmissions)
        },
        "delivered_links": sorted(list(link) for link in stats.delivered_links),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@under_parked_contract
def relay_line(shards):
    """256-node relay line x 300 slots: most relays never hear a packet."""
    tracer = EventTracer(capacity=500_000)
    with line_session(line_network(256), shards, tracer=tracer) as session:
        session.run(300)
        stats = session.finalize_stats()
    return stats_digest(stats), trace_digest(tracer)


class TestRelayLinePin:
    """The pinned line's run (:func:`relay_line`): where the front gets."""

    def test_far_relays_are_parked_and_the_front_is_awake(self):
        network = line_network(256)
        with line_session(network, 1) as session:
            session.run(300)
            parked = set(session.parked_nodes())
            front = max(i for i, _j in session.finalize_stats().delivered_links)
        assert front < 200  # the wave front never reaches the far end
        assert set(range(front + 2, network.node_count)) <= parked
        assert not parked & set(range(front + 1))


def chain_network(nodes=7):
    """A 60 m-spaced chain, 130 m range: neighbours two hops out interfere."""
    positions = [[60.0 * i, 0.0] for i in range(nodes)]
    links = {}
    for i in range(nodes - 1):
        links[(i, i + 1)] = 0.85
        links[(i + 1, i)] = 0.85
    return WirelessNetwork(positions, links, 130.0)


def churn_xor_run(tracer, fidelity="flow"):
    """Opposing OMNC sessions XORed at relay 1, a MORE session, and churn."""
    network = chain_network()
    plans = {
        1: plan_omnc(network, 0, 2),
        2: plan_omnc(network, 2, 0),
        3: plan_omnc(network, 3, 6),
        4: plan_more(network, 6, 4),
    }
    pairs = plan_intersession_pairs(plans)
    assert pairs  # the run really exercises XOR relays
    duration = 30.0
    scenario = ScenarioSpec(
        name="churn",
        duration=duration,
        epoch_seconds=duration,
        events=(
            ScenarioEvent(at=duration / 3, kind="session_arrive", session_id=3),
            ScenarioEvent(at=2 * duration / 3, kind="session_depart", session_id=2),
        ),
    )
    outcome = run_multi_session(
        network,
        plans,
        config=SessionConfig(
            blocks=8, block_size=256, max_seconds=duration, target_generations=0,
            coding_fidelity=fidelity,
        ),
        rng=RngFactory(1),
        xor_pairs=pairs,
        scenario=scenario,
        tracer=tracer,
    )
    assert outcome.xor_transmissions > 0
    assert outcome.arrivals and outcome.departures
    return outcome


@under_parked_contract
def churn_xor():
    """:func:`churn_xor_run` against its pre-active-set digests.

    Nodes 3-6 host only sessions that are absent or silent for long
    stretches, so their composites park and wake around the events.  The
    outcome digest was re-recorded when the per-session queue integrals
    moved from the composite's slot-start sample to the engine's
    slot-end one; the trace did not move.
    """
    tracer = EventTracer(capacity=500_000)
    outcome = churn_xor_run(tracer)
    return multi_session_digest(outcome), trace_digest(tracer)


def planned_mesh(seed=11, nodes=30):
    """A seeded lossy mesh and an OMNC-plannable pair with real relays."""
    rng = RngFactory(seed)
    network = random_network(
        nodes, phy=lossy_phy(rng=rng.derive("phy")), rng=rng.derive("topology")
    )
    for destination in range(nodes - 1, 0, -1):
        try:
            plan = plan_omnc(network, 0, destination)
        except NodeSelectionError:
            continue
        if len(plan.forwarders.nodes) >= 4:
            return network, 0, destination, plan
    raise RuntimeError("no feasible session on the test network")


@under_parked_contract
def adaptive_switch_runner(traced=True):
    """Generation-size switches mid-run through the adaptive runner (the
    session digest alone, untraced)."""
    network, source, destination, _plan = planned_mesh()
    controller = make_coding_controller("adaptive", blocks=40, block_size=256)
    scenario = ScenarioSpec(
        name="double-drift",
        duration=40.0,
        epoch_seconds=4.0,
        events=(
            ScenarioEvent(at=12.0, kind="drift", sigma=1.0),
            ScenarioEvent(at=26.0, kind="drift", sigma=1.0),
        ),
    )
    tracer = EventTracer(capacity=500_000) if traced else None
    result = run_adaptive_session(
        network,
        make_planner("omnc", source, destination),
        make_policy("periodic:2"),
        scenario,
        config=SessionConfig(blocks=40, block_size=256),
        rng=RngFactory(6),
        coding_controller=controller,
        tracer=tracer,
    )
    assert len(set(controller.history)) > 1  # the size really switched
    assert result.replans > 0
    assert result.session.generations_decoded > 0
    if tracer is None:
        return session_digest(result.session)
    pushed = [record.fields["detail"] for record in tracer.records(kind="coding")]
    assert len(pushed) > 1
    assert set(pushed) <= {decision.blocks for decision in controller.history}
    return session_digest(result.session), trace_digest(tracer)


@pytest.mark.skipif(not COMPILED, reason="the compiled slot loop is unavailable")
def test_untraced_adaptive_switch_on_the_compiled_loop_is_its_pin():
    # The pin's run is traced, and so scalar; untraced, it runs compiled,
    # and each pushed size switch waits in a row for an ACK that the
    # kernel leaves to the runtime objects.
    (pin,) = [pin for pin in PINS if pin.name == "adaptive_switch.runner"]
    apply_events = EngineCore.apply_events
    with core_form("compiled"), mock.patch.object(
        EngineCore, "apply_events", autospec=True, side_effect=apply_events
    ) as acks:
        assert adaptive_switch_runner(traced=False) == pin.value[0]
    assert acks.called


@under_parked_contract
def adaptive_switch_sharded():
    """Generation-size switches mid-run, pushed between runs by hand."""
    network, _source, _destination, plan = planned_mesh()
    config = SessionConfig(
        max_seconds=40.0, blocks=6, block_size=256, coding_fidelity="exact"
    )
    # Decodes go to a recorder of their own, not the session's, which ACKs
    # none of them: the pinned trace advances by hand, 187 slots after the
    # first decode.
    runtimes = build_plan_runtimes(
        network, plan, config=config, rng=RngFactory(21), on_decoded=_DecodeLog()
    )
    tracer = EventTracer(capacity=500_000)

    def everyone(params):
        return {node: {"coding": params} for node in runtimes}

    with ShardedSession(
        network,
        runtimes,
        config.coded_packet_bytes() / network.capacity,
        rng_factory=RngFactory(21),
        tracer=tracer,
    ) as session:
        session.run(200)
        session.apply_plan_updates(everyone(CodingParams(blocks=9)))
        advance_by_hand(session, 1)
        session.run(250)
        session.apply_plan_updates(
            everyone(CodingParams(blocks=4, systematic=True))
        )
        advance_by_hand(session, 2)
        session.run(250)
        stats = session.finalize_stats()
    return stats_digest(stats), trace_digest(tracer)


#: The relay :func:`hot_swap` silences (rate 0): it hears packets, gains
#: information, and parks with an empty queue.
SILENCED = 3


def silenced_line(tracer=None):
    return line_session(
        line_network(12), 1, seed=7, tracer=tracer, relay_rates={SILENCED: 0.0}
    )


@under_parked_contract
def hot_swap():
    """A rate swap onto the parked, silenced relay, from outside the loop."""
    tracer = EventTracer(capacity=500_000)
    with silenced_line(tracer) as session:
        session.run(120)
        session.apply_plan_updates({SILENCED: {"rate_bps": 2e4}})
        session.run(120)
        stats = session.finalize_stats()
    assert stats.transmissions[SILENCED] > 0
    return stats_digest(stats), trace_digest(tracer)


class TestHotSwapOntoParkedRelay:
    """``apply_plan`` from outside the loop must wake what it touches.

    Swapping the silenced relay's rate to one packet per slot has to
    show on the very next slot, and the whole run (:func:`hot_swap`) has
    to match the same swap on the full-sweep loop.
    """

    def test_swap_takes_effect_on_the_next_slot(self):
        node = SILENCED
        with silenced_line() as session:
            session.run(120)
            before = session.finalize_stats()
            assert (node - 1, node) in before.delivered_links  # it holds information
            assert before.transmissions[node] == 0
            assert before.queue_time_sum[node] == 0.0
            assert node in session.parked_nodes()
            session.apply_plan_updates({node: {"rate_bps": 2e4}})
            session.step()
            after = session.finalize_stats()
        # One packet of credit: it either went on the air or sat queued.
        assert after.transmissions[node] + after.queue_time_sum[node] == 1

    def test_swap_matches_a_run_that_never_parks(self, monkeypatch):
        parked = hot_swap()
        monkeypatch.setattr(FlowRelayRuntime, "dormant", lambda self, dt: False)
        monkeypatch.setattr(FlowDestinationRuntime, "dormant", lambda self, dt: False)
        assert hot_swap() == parked


#: What collecting metrics must read whether or not anything was parked.
COUNTERS = ("slots", "grants", "transmissions", "deliveries", "blanked")


def _queue_snapshot(registry):
    counts = {name: int(registry.value(f"emulator.{name}")) for name in COUNTERS}
    depth = registry.get("emulator.queue_depth")
    blob = json.dumps(depth.samples()).encode("utf-8")
    return counts, (depth.count, depth.sum, hashlib.sha256(blob).hexdigest())


@under_parked_contract
def obs_on_flow_session():
    network, _source, _destination, plan = planned_mesh()
    with obs.collecting() as registry:
        result = run_coded_session(
            network,
            plan,
            config=SessionConfig(
                blocks=8, block_size=256, max_seconds=30.0, target_generations=12
            ),
            rng=RngFactory(4),
        )
        counts, depth = _queue_snapshot(registry)
    # One queue-depth sample per runtime per slot, in participant order.
    assert depth[0] == counts["slots"] * len(result.participants)
    return counts, depth


@under_parked_contract
def obs_on_relay_line():
    network = line_network(128)
    with obs.collecting() as registry:
        with line_session(network, 1) as session:
            session.run(200)
        counts, depth = _queue_snapshot(registry)
    assert depth[0] == 200 * network.node_count
    return counts, depth


class TestAwakeSet:
    """The helper on its own: ordering, parking cadence, wake-ups."""

    class _Probe:
        def __init__(self, backlog=0.0, dormant=False):
            self.ticks = 0
            self.pending = backlog
            self.sleepy = dormant

        def on_slot(self, dt):
            self.ticks += 1

        def backlog(self):
            return self.pending

        def demand_rate(self, dt):
            return 0.5

        def dormant(self, dt):
            return self.sleepy

        def queue_length(self):
            return int(self.pending)

    def test_everything_starts_awake_and_contenders_come_in_order(self):
        probes = [self._Probe(backlog=float(i % 2)) for i in range(6)]
        awake = AwakeSet(len(probes))
        contenders, weights = awake.tick(probes, 1.0)
        assert contenders == [1, 3, 5]
        assert weights == [0.5, 0.5, 0.5]
        assert all(probe.ticks == 1 for probe in probes)

    def test_dormant_entries_park_within_the_check_interval(self):
        probes = [self._Probe(dormant=(i != 2)) for i in range(5)]
        awake = AwakeSet(len(probes))
        for _ in range(AwakeSet.PARK_INTERVAL):
            awake.tick(probes, 1.0)
        assert awake.parked_positions() == [0, 1, 3, 4]
        before = [probe.ticks for probe in probes]
        awake.tick(probes, 1.0)
        assert [probe.ticks for probe in probes] == [
            ticks + (1 if i == 2 else 0) for i, ticks in enumerate(before)
        ]

    def test_backlogged_entries_never_park(self):
        probes = [self._Probe(backlog=1.0, dormant=True)]
        awake = AwakeSet(1)
        for _ in range(3 * AwakeSet.PARK_INTERVAL):
            assert awake.tick(probes, 1.0) == ([0], [0.5])
        assert awake.parked_positions() == []

    def test_wake_restores_sorted_order(self):
        probes = [self._Probe(dormant=True) for _ in range(6)]
        awake = AwakeSet(len(probes))
        for _ in range(AwakeSet.PARK_INTERVAL):
            awake.tick(probes, 1.0)
        assert awake.parked_positions() == list(range(6))
        for position in (4, 1):
            probes[position].sleepy, probes[position].pending = False, 1.0
            awake.wake(position)
        awake.wake(4)  # already awake: no duplicate
        assert awake.tick(probes, 1.0)[0] == [1, 4]
        ticks = [probe.ticks for probe in probes]
        awake.wake_everyone()
        assert awake.parked_positions() == []
        awake.tick(probes, 1.0)
        assert [probe.ticks for probe in probes] == [t + 1 for t in ticks]

    def test_queue_sampling_skips_parked_entries(self):
        probes = [self._Probe(dormant=True), self._Probe(backlog=2.0)]
        awake = AwakeSet(2)
        for _ in range(AwakeSet.PARK_INTERVAL):
            awake.tick(probes, 1.0)
        totals = [0.0, 0.0]
        awake.sample_queues(probes, totals)
        assert totals == [0.0, 2.0]
