"""A plan installs itself: driver pins, and build == hot-swap.

The ``driver.*`` and ``adaptive.*`` pins (``tests/pins.py``) were
recorded on the commit *before* the runtimes and the plan installer
were unified, for the driver paths no other pin covers: the ETX driver,
a credit plan at exact fidelity, and adaptive MORE/ETX runs whose
scenario fails and recovers a forwarder (the re-plan drops it, a later
one re-adds it) and changes the offered load in between (the swap's
``cbr`` override).  All five were re-recorded once since, with no change
to the installer: when these drivers moved from three global RNG streams
to the per-node streams of the sharded path (one random universe).

``TestBuildEqualsSwap`` states the installer's contract directly:
installing plan B over runtimes built for plan A leaves every node in
the state a fresh build of B would, wherever the node holds no data.
"""

import functools

import pytest

from repro.emulator.node import FlowPacket, install_runtimes
from repro.emulator.plan import (
    CodedBroadcastPlan,
    CreditBroadcastPlan,
    UnicastPathPlan,
)
from repro.emulator.session import (
    SessionConfig,
    build_plan_runtimes,
    plan_runtime_terms,
    run_coded_session,
    run_unicast_session,
)
from repro.emulator.shard import session_digest
from repro.obs import EventTracer, trace_digest
from repro.protocols.adaptive import make_planner
from repro.protocols.etx_routing import plan_etx_route
from repro.protocols.more import plan_more
from repro.protocols.omnc import plan_omnc
from repro.scenario import (
    ScenarioEvent,
    ScenarioSpec,
    make_policy,
    run_adaptive_session,
)
from repro.scenario.spec import ScenarioTimeline
from repro.topology.phy import lossy_phy
from repro.topology.random_network import random_network
from repro.util.rng import RngFactory
from tests.dormancy import freeze, under_parked_contract
from tests.pins import COMPILED, PINS, core_form

pytestmark = pytest.mark.usefixtures("parked_contract")

SOURCE, DESTINATION, VICTIM = 0, 23, 18


def seeded_mesh():
    """Seeded 30-node lossy mesh; 0 -> 23 routes through relay 18."""
    rng = RngFactory(11)
    return random_network(
        30, phy=lossy_phy(rng=rng.derive("phy")), rng=rng.derive("topology")
    )


@pytest.fixture(scope="module")
def mesh():
    return seeded_mesh()


@under_parked_contract
def unicast_driver():
    mesh = seeded_mesh()
    plan = plan_etx_route(mesh, SOURCE, DESTINATION)
    assert VICTIM in plan.path
    result = run_unicast_session(
        mesh, plan, config=SessionConfig(max_seconds=30.0), rng=RngFactory(3)
    )
    assert result.packets_delivered > 0
    return session_digest(result)


@under_parked_contract
def credit_plan_at_exact_fidelity():
    mesh = seeded_mesh()
    config = SessionConfig(
        max_seconds=30.0, blocks=8, block_size=256, coding_fidelity="exact"
    )
    result = run_coded_session(
        mesh, plan_more(mesh, SOURCE, DESTINATION), config=config, rng=RngFactory(3)
    )
    assert result.generations_decoded > 0
    return session_digest(result)


@under_parked_contract
def _fail_recover_load(protocol, fidelity, traced=True):
    """Session and trace digests of an adaptive run that drops the victim
    (the session digest alone, untraced)."""
    scenario = ScenarioSpec(
        name="fail-recover-load",
        duration=40.0,
        epoch_seconds=4.0,
        events=(
            ScenarioEvent(at=6.0, kind="fail", node=VICTIM),
            ScenarioEvent(at=14.0, kind="load", cbr_fraction=0.3),
            ScenarioEvent(at=22.0, kind="recover", node=VICTIM),
        ),
    )
    tracer = EventTracer(capacity=500_000) if traced else None
    result = run_adaptive_session(
        seeded_mesh(),
        make_planner(protocol, SOURCE, DESTINATION),
        make_policy("periodic:1"),
        scenario,
        config=SessionConfig(blocks=8, block_size=256, coding_fidelity=fidelity),
        rng=RngFactory(5),
        tracer=tracer,
    )
    assert result.replans == 8 and result.failed_replans == 0
    if tracer is None:
        return session_digest(result.session)
    # The victim transmits, falls silent once a re-plan drops it, and
    # transmits again after the re-plan that follows its recovery.
    times = [record.fields["time"] for record in tracer.records(kind="tx", node=VICTIM)]
    assert any(t < 6.0 for t in times) and any(t > 24.0 for t in times)
    assert not any(10.0 < t < 22.0 for t in times)
    return session_digest(result.session), trace_digest(tracer)


adaptive_more_flow = functools.partial(_fail_recover_load, "more", "flow")
adaptive_more_exact = functools.partial(_fail_recover_load, "more", "exact")
adaptive_etx_flow = functools.partial(_fail_recover_load, "etx", "flow")


@pytest.mark.skipif(not COMPILED, reason="the compiled slot loop is unavailable")
def test_untraced_adaptive_etx_on_the_compiled_loop_is_its_pin():
    # The pin's run is traced, and so scalar; untraced, its re-plans,
    # re-routes and dropped forwarder run on the compiled slot loop.
    (pin,) = [pin for pin in PINS if pin.name == "adaptive.etx_flow"]
    with core_form("compiled"):
        assert _fail_recover_load("etx", "flow", traced=False) == pin.value[0]


@pytest.mark.skipif(not COMPILED, reason="the compiled slot loop is unavailable")
def test_untraced_adaptive_more_exact_on_the_compiled_loop_is_its_pin():
    # Exact rows too: the re-plans build, retune and drop coded runtimes,
    # and a relay a re-plan added hears a newer generation (the object path).
    (pin,) = [pin for pin in PINS if pin.name == "adaptive.more_exact"]
    with core_form("compiled"):
        assert _fail_recover_load("more", "exact", traced=False) == pin.value[0]


PLANNERS = {"omnc": plan_omnc, "more": plan_more, "etx": plan_etx_route}
PLAN_TYPES = {
    "omnc": CodedBroadcastPlan,
    "more": CreditBroadcastPlan,
    "etx": UnicastPathPlan,
}


def _install(network, plan, existing, config, cbr=None):
    """What a core does with a re-plan's settings, in one process."""
    if cbr is None:
        cbr = config.cbr_fraction * network.capacity
    return install_runtimes(
        plan.node_settings(network, cbr),
        existing,
        plan_runtime_terms(config, plan),
        coding=RngFactory(9),
    )


class TestBuildEqualsSwap:
    @pytest.fixture(scope="class")
    def without_victim(self, mesh):
        """The mesh with the victim's links gone, as a ``fail`` leaves it."""
        spec = ScenarioSpec(
            name="fail",
            duration=1.0,
            epoch_seconds=1.0,
            events=(ScenarioEvent(at=0.0, kind="fail", node=VICTIM),),
        )
        timeline = ScenarioTimeline(mesh, spec, rng=RngFactory(1).derive("scenario"))
        timeline.advance_to(0.0)
        return timeline.network

    @pytest.mark.parametrize(
        "protocol,fidelity",
        [("omnc", "flow"), ("omnc", "exact"), ("more", "flow"), ("more", "exact"),
         ("etx", "flow")],
    )
    def test_swap_lands_where_a_fresh_build_would(
        self, mesh, without_victim, protocol, fidelity
    ):
        planner = PLANNERS[protocol]
        plan_a = planner(mesh, SOURCE, DESTINATION)
        plan_b = planner(without_victim, SOURCE, DESTINATION)
        assert type(plan_a) is type(plan_b) is PLAN_TYPES[protocol]
        config = SessionConfig(blocks=8, block_size=256, coding_fidelity=fidelity)
        cbr = 0.3 * mesh.capacity  # a load event moved it off the config's

        built_a = _install(mesh, plan_a, {}, config)
        assert VICTIM in built_a
        assert built_a.keys() == build_plan_runtimes(
            mesh, plan_a, config=config, rng=RngFactory(9)
        ).keys()

        swapped = _install(without_victim, plan_b, built_a, config, cbr)
        fresh_b = _install(without_victim, plan_b, {}, config, cbr)
        assert VICTIM not in swapped  # B omits it: gone
        assert swapped.keys() == fresh_b.keys()
        for node, runtime in swapped.items():
            assert (runtime is built_a.get(node)) == (node in built_a)
            assert runtime is not fresh_b[node]
            assert freeze(runtime) == freeze(fresh_b[node]), node

        # Back to plan A: survivors persist, the victim returns brand new.
        restored = _install(mesh, plan_a, swapped, config)
        fresh_a = _install(mesh, plan_a, {}, config)
        assert restored.keys() == fresh_a.keys()
        assert restored[VICTIM] is not built_a[VICTIM]
        for node, runtime in restored.items():
            if node != VICTIM and node in swapped:
                assert runtime is swapped[node]
            assert freeze(runtime) == freeze(fresh_a[node]), node

    def test_swap_keeps_what_a_survivor_holds(self, mesh, without_victim):
        plan_a = plan_more(mesh, SOURCE, DESTINATION)
        plan_b = plan_more(without_victim, SOURCE, DESTINATION)
        config = SessionConfig(blocks=8, block_size=256)
        built = _install(mesh, plan_a, {}, config)
        survivor = next(
            node for node in plan_b.tx_credits
            if node in built and plan_b.tx_credits[node] > 0
        )
        relay = built[survivor]
        relay.on_receive(FlowPacket(1, 0, 3.0), SOURCE)
        held = relay.information, relay.packets_heard, relay.queue_length()
        assert held[0] == 1.0
        swapped = _install(without_victim, plan_b, built, config)
        assert swapped[survivor] is relay
        assert (relay.information, relay.packets_heard, relay.queue_length()) == held
