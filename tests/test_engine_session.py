"""Integration: the emulation engine and session drivers."""

import math

import pytest

from repro.emulator.plan import CodedBroadcastPlan
from repro.emulator.session import (
    SessionConfig,
    run_coded_session,
    run_unicast_session,
)
from repro.emulator.stats import throughput_gain
from repro.protocols.etx_routing import plan_etx_route
from repro.protocols.more import plan_more
from repro.protocols.omnc import plan_omnc
from repro.routing.node_selection import ForwarderSet
from repro.topology.random_network import chain_topology, diamond_topology
from repro.util.rng import RngFactory


def quick_config(**overrides):
    defaults = dict(
        blocks=8,
        block_size=256,
        max_seconds=120.0,
        target_generations=2,
    )
    defaults.update(overrides)
    return SessionConfig(**defaults)


def diamond_plan(capacity=2e4):
    net = diamond_topology(capacity=capacity)
    forwarders = ForwarderSet(
        source=0,
        destination=3,
        nodes=frozenset({0, 1, 2, 3}),
        etx_distance={0: 1 / 0.6 + 1 / 0.7, 1: 1 / 0.7, 2: 1 / 0.8, 3: 0.0},
        dag_links=((0, 1), (0, 2), (1, 3), (2, 3)),
    )
    rates = {0: 0.4 * capacity, 1: 0.3 * capacity, 2: 0.25 * capacity, 3: 0.0}
    plan = CodedBroadcastPlan(
        forwarders=forwarders, rates=rates, predicted_throughput=0.3 * capacity
    )
    return net, plan


class TestCodedSession:
    @pytest.mark.parametrize("fidelity", ["flow", "exact"])
    def test_diamond_session_decodes(self, fidelity):
        net, plan = diamond_plan()
        result = run_coded_session(
            net,
            plan,
            config=quick_config(coding_fidelity=fidelity),
            rng=RngFactory(5),
        )
        assert result.generations_decoded == 2
        assert result.throughput_bps > 0
        assert len(result.ack_times) == 2
        assert result.ack_times[0] < result.ack_times[1]

    def test_throughput_accounts_payload_only(self):
        net, plan = diamond_plan()
        config = quick_config()
        result = run_coded_session(net, plan, config=config, rng=RngFactory(6))
        expected = (
            result.generations_decoded
            * config.generation_bytes()
            / result.ack_times[-1]
        )
        assert result.throughput_bps == pytest.approx(expected)

    def test_deterministic_given_seed(self):
        net, plan = diamond_plan()
        a = run_coded_session(net, plan, config=quick_config(), rng=RngFactory(7))
        b = run_coded_session(net, plan, config=quick_config(), rng=RngFactory(7))
        assert a.throughput_bps == b.throughput_bps
        assert a.transmissions == b.transmissions

    def test_omnc_end_to_end_on_diamond(self):
        net = diamond_topology(capacity=2e4)
        plan = plan_omnc(net, 0, 3)
        result = run_coded_session(
            net, plan, config=quick_config(), rng=RngFactory(8)
        )
        assert result.generations_decoded == 2
        assert result.protocol == "omnc"

    def test_more_end_to_end_on_diamond(self):
        net = diamond_topology(capacity=2e4)
        plan = plan_more(net, 0, 3)
        result = run_coded_session(
            net, plan, config=quick_config(), rng=RngFactory(9)
        )
        assert result.generations_decoded == 2
        assert result.protocol == "more"

    def test_queue_statistics_collected(self):
        net, plan = diamond_plan()
        result = run_coded_session(net, plan, config=quick_config(), rng=RngFactory(10))
        assert set(result.average_queues) == set(result.participants)
        assert result.mean_queue() >= 0.0

    def test_interference_models_all_run(self):
        net, plan = diamond_plan()
        throughputs = {}
        for model in ("blanking", "capture", "conflict_free"):
            result = run_coded_session(
                net,
                plan,
                config=quick_config(interference=model),
                rng=RngFactory(11),
            )
            throughputs[model] = result.throughput_bps
            assert result.generations_decoded == 2
        # Conflict-free serializes the relays; the diamond's relays can
        # deliver concurrently under capture, so capture >= conflict_free
        # is the expected ordering here (not asserted strictly — both
        # must simply produce sane positive numbers).
        assert all(v > 0 for v in throughputs.values())

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SessionConfig(cbr_fraction=0.0)
        with pytest.raises(ValueError):
            SessionConfig(interference="psychic")
        with pytest.raises(ValueError):
            SessionConfig(coding_fidelity="approximate")
        for seconds in (0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="max_seconds must be"):
                SessionConfig(max_seconds=seconds)

    def test_unsupported_plan_type(self):
        net, _ = diamond_plan()
        with pytest.raises(TypeError):
            run_coded_session(net, object(), config=quick_config())


class TestUnicastSession:
    def test_chain_delivers(self):
        net = chain_topology((0.8, 0.8, 0.8), capacity=2e4)
        plan = plan_etx_route(net, 0, 3)
        result = run_unicast_session(
            net, plan, config=quick_config(), rng=RngFactory(12)
        )
        assert result.packets_delivered > 0
        assert result.throughput_bps > 0
        assert result.protocol == "etx"

    def test_perfect_chain_throughput_near_pipeline_limit(self):
        net = chain_topology((1.0, 1.0, 1.0), capacity=2e4)
        plan = plan_etx_route(net, 0, 3)
        config = quick_config(max_seconds=300.0, target_generations=0)
        result = run_unicast_session(net, plan, config=config, rng=RngFactory(13))
        # All three hops share one collision domain (chain geometry):
        # at most 1/3 of slots move a packet end-to-end under blanking;
        # the CBR offered load caps it at capacity/2.
        assert result.throughput_bps > 0.15 * net.capacity * (
            config.block_size / config.unicast_packet_bytes()
        ) / 3

    def test_lossier_chain_is_slower(self):
        config = quick_config(max_seconds=300.0, target_generations=0)
        fast = run_unicast_session(
            chain_topology((0.9, 0.9), capacity=2e4),
            plan_etx_route(chain_topology((0.9, 0.9), capacity=2e4), 0, 2),
            config=config,
            rng=RngFactory(14),
        )
        slow = run_unicast_session(
            chain_topology((0.4, 0.4), capacity=2e4),
            plan_etx_route(chain_topology((0.4, 0.4), capacity=2e4), 0, 2),
            config=config,
            rng=RngFactory(14),
        )
        assert slow.throughput_bps < fast.throughput_bps

    def test_gain_metric(self):
        net, plan = diamond_plan()
        coded = run_coded_session(net, plan, config=quick_config(), rng=RngFactory(15))
        etx = run_unicast_session(
            net, plan_etx_route(net, 0, 3), config=quick_config(), rng=RngFactory(15)
        )
        gain = throughput_gain(coded, etx)
        assert gain > 0
