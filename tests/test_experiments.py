"""Experiment harnesses: smoke-scale runs of every figure."""

import dataclasses

import numpy as np
import pytest

from repro.coding import native
from repro.coding.backends import default_field
from repro.experiments import coding_speed
from repro.experiments.coding_speed import measure_codec, run_coding_speed
from repro.experiments.common import (
    CampaignConfig,
    _canonical_repr,
    build_network,
    pick_sessions,
    run_campaign,
)
from repro.experiments.convergence_stats import run_convergence_stats
from repro.experiments.fig1_convergence import run_fig1
from repro.experiments.fig2_throughput import run_fig2
from repro.experiments.fig3_queue import run_fig3
from repro.experiments.fig4_utility import run_fig4
from repro.experiments.fig5_adaptation import Fig5Config, run_fig5
from tests import reference

SMOKE = CampaignConfig(
    node_count=80,
    sessions=3,
    min_hops=3,
    max_hops=10,
    session_seconds=60.0,
    target_generations=2,
    seed=17,
)


@pytest.fixture(scope="module")
def smoke_campaign():
    return run_campaign(SMOKE)


class TestCampaign:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(node_count=2)
        with pytest.raises(ValueError):
            CampaignConfig(sessions=0)
        with pytest.raises(ValueError):
            CampaignConfig(min_hops=5, max_hops=3)
        with pytest.raises(ValueError):
            CampaignConfig(quality="medium")

    def test_paper_scale_parameters(self):
        config = CampaignConfig.paper_scale()
        assert config.node_count == 300
        assert config.sessions == 300
        assert config.session_seconds == 800.0

    def test_network_quality_regimes(self):
        _, lossy = build_network(CampaignConfig(node_count=100, quality="lossy"))
        _, high = build_network(CampaignConfig(node_count=100, quality="high"))
        assert lossy.average_link_probability() < high.average_link_probability()

    def test_sessions_respect_hop_bounds(self):
        config = SMOKE
        _, network = build_network(config)
        for _, _, plan in pick_sessions(config, network):
            assert config.min_hops <= plan.hop_count <= config.max_hops

    def test_endpoints_of_the_benchmark_campaign(self):
        # The hop-constrained search is thousands of planner calls; a
        # faster planner must find the very same sessions.
        config = CampaignConfig(node_count=120, sessions=8, min_hops=4, seed=2008)
        _, network = build_network(config)
        assert [(s, d) for s, d, _ in pick_sessions(config, network)] == [
            (95, 86), (115, 95), (12, 11), (1, 27),
            (115, 56), (96, 111), (49, 82), (102, 109),
        ]

    def test_campaign_records_all_protocols(self, smoke_campaign):
        assert len(smoke_campaign.records) == SMOKE.sessions
        for record in smoke_campaign.records:
            assert set(record.results) == {"omnc", "more", "oldmore", "etx"}

    def test_gain_and_queue_accessors(self, smoke_campaign):
        for protocol in ("omnc", "more", "oldmore"):
            gains = smoke_campaign.gains(protocol)
            assert len(gains) <= SMOKE.sessions
            assert all(g >= 0 for g in gains)
            queues = smoke_campaign.per_node_queues(protocol)
            assert all(q >= 0 for q in queues)

    def test_utility_accessor(self, smoke_campaign):
        nodes, paths = smoke_campaign.utilities("omnc")
        assert len(nodes) == len(paths) == SMOKE.sessions
        assert all(0 <= u <= 1 for u in nodes)
        assert all(0 <= u <= 1 for u in paths)


class TestFig1:
    def test_series_structure(self):
        series = run_fig1()
        assert series.iterations[0] == 1
        assert series.settled_iteration <= len(series.iterations)
        for values in series.rates_bps.values():
            assert len(values) == len(series.iterations)

    def test_recovered_close_to_lp(self):
        series = run_fig1()
        assert series.recovered_throughput_bps == pytest.approx(
            series.lp_throughput_bps, rel=0.15
        )

    def test_converges_within_paper_ballpark(self):
        # Paper: convergence within a few tens of iterations; average 91
        # over the campaign.  The sample topology must settle within the
        # iteration cap.
        series = run_fig1()
        assert len(series.iterations) <= 400


class TestFigures:
    def test_fig2_smoke(self):
        result = run_fig2("lossy", SMOKE)
        for protocol in ("omnc", "more", "oldmore"):
            assert result.distributions[protocol].count > 0
            assert result.mean_gain(protocol) >= 0

    def test_fig3_smoke(self):
        result = run_fig3(SMOKE)
        assert result.mean_queue("omnc") >= 0
        assert result.mean_queue("more") >= 0

    def test_fig4_smoke(self):
        result = run_fig4(SMOKE)
        for protocol in ("omnc", "more", "oldmore"):
            assert 0 <= result.node_utility[protocol].mean <= 1
            assert 0 <= result.path_utility[protocol].mean <= 1

    def test_fig4_oldmore_prunes(self):
        result = run_fig4(SMOKE)
        assert (
            result.node_utility["oldmore"].mean
            <= result.node_utility["omnc"].mean + 1e-9
        )

    def test_convergence_stats_smoke(self):
        stats = run_convergence_stats(SMOKE)
        assert stats.iterations.count > 0
        assert stats.lp_ratio.mean == pytest.approx(1.0, abs=0.35)


class TestFig5:
    @pytest.fixture(scope="class")
    def fig5(self):
        return run_fig5(Fig5Config.smoke())

    def test_all_policies_ran_full_duration(self, fig5):
        assert set(fig5.runs) == {"oblivious", "periodic", "drift"}
        for run in fig5.runs.values():
            # Control-plane stalls consume session time, so a re-plan in
            # the last epoch may push the end past the nominal duration
            # by at most that stall.
            assert run.session.duration >= fig5.config.duration * 0.99
            assert run.session.duration <= (
                fig5.config.duration + run.replan_seconds + 1.0
            )

    def test_oblivious_never_replans(self, fig5):
        assert fig5.runs["oblivious"].replans == 0
        assert fig5.runs["oblivious"].replan_seconds == 0.0

    def test_reactive_policies_pay_for_replans(self, fig5):
        for key in ("periodic", "drift"):
            run = fig5.runs[key]
            assert run.replans >= 1
            assert run.replan_seconds > 0.0
            # One cold start plus one warm re-plan per successful replan.
            assert len(run.planner_iterations) == run.replans + 1

    def test_scenario_fails_a_real_relay(self, fig5):
        assert fig5.failed_node not in (fig5.source, fig5.destination)
        kinds = [event.kind for event in fig5.scenario.events]
        assert kinds == ["drift", "fail"]
        assert fig5.scenario.events[1].node == fig5.failed_node


@pytest.fixture
def compiled_fields():
    """The ``pshufb`` and table-walk builds; skipped without a compiler."""
    try:
        return coding_speed.compiled_fields()
    except coding_speed.CodecUnavailableError:
        pytest.skip("no C compiler builds the kernels here")


class TestCodingSpeed:
    def test_accelerated_beats_baseline(self, compiled_fields):
        # The paper's shape; at 16x128 and below the Python glue around
        # the kernels dominates and the ratio reads about 1.
        if not native._simd_cflags():
            pytest.skip("this CPU has no SIMD flags: both builds walk the table")
        pshufb, table_walk = compiled_fields
        accelerated = measure_codec(pshufb, 40, 1024, repeats=3, batch=40)
        baseline = measure_codec(table_walk, 40, 1024, repeats=3, batch=40)
        assert accelerated >= baseline * 2

    def test_run_coding_speed_points(self, compiled_fields):
        points = run_coding_speed(shapes=[(32, 512), (40, 1024)])
        assert [(point.blocks, point.block_size) for point in points] == [(32, 512), (40, 1024)]
        assert all(point.pshufb_mbps > 0 and point.table_walk_mbps > 0 for point in points)
        if native._simd_cflags():
            assert points[1].speedup > 1.0

    def test_the_status_is_a_rule_over_the_ratios(self):
        def point(blocks, block_size, ratio):
            return coding_speed.CodingSpeedPoint(blocks, block_size, ratio, 1.0)

        rising = [point(8, 64, 0.9), point(40, 1024, 4.0)]
        assert coding_speed.claim_status(rising).startswith("reproduced: ")
        assert coding_speed.claim_status(rising[::-1]).startswith("reproduced: ")
        flat = [point(8, 64, 3.5), point(40, 1024, 3.0)]
        assert coding_speed.claim_status(flat).startswith("partial: ")
        assert coding_speed.claim_status([point(8, 64, 1.0), point(40, 1024, 1.4)]).startswith(
            "partial: "
        )
        assert coding_speed.claim_status([point(40, 1024, 0.97)]).startswith("not reproduced: ")

    def test_without_a_compiler_the_command_is_one_error_line(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro.cli import main

        # Settle the process-wide field verdict before the compiler goes.
        default_field()
        monkeypatch.setenv("CC", "/nonexistent")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(native.GF256TableWalk, "_lib", None)
        assert main(["coding-speed"]) == 2
        err = capsys.readouterr().err
        (line,) = [line for line in err.splitlines() if line.startswith("repro ")]
        assert line.startswith("repro coding-speed: error: ")
        assert "Traceback" not in err
        assert "'/nonexistent'" in line


class TestFig7:
    @pytest.fixture(scope="class")
    def fig7(self):
        from repro.experiments.fig7_finite_length import Fig7Config, run_fig7

        return run_fig7(
            Fig7Config(
                block_size=256,
                losses=(0.0, 0.3),
                window_seconds=12.0,
                decode_trials=6,
                decode_blocks=12,
            )
        )

    def test_payloads_identical_in_every_cell(self, fig7):
        assert all(
            point.payloads_identical
            for point in fig7.decode_costs.values()
        )

    def test_systematic_slashes_eliminations_at_zero_loss(self, fig7):
        assert fig7.elimination_reduction(0.0) >= 5.0
        assert fig7.decode_costs[(0.0, True)].eliminations_per_generation == 0.0

    def test_all_arms_measured_at_every_loss(self, fig7):
        for loss in fig7.config.losses:
            for arm in ("static", "adaptive", "systematic"):
                point = fig7.goodput[(loss, arm)]
                assert point.goodput_bps >= 0.0
        assert fig7.goodput[(0.3, "adaptive")].blocks < 40
        assert fig7.goodput[(0.3, "systematic")].systematic

    def test_model_overhead_monotone_in_loss(self, fig7):
        losses = fig7.config.losses
        for index, _candidate in enumerate(fig7.config.candidates):
            ratios = [
                fig7.model_overhead[loss][index][1] for loss in losses
            ]
            assert all(b > a for a, b in zip(ratios, ratios[1:]))


class TestFig6EndpointLayouts:
    @pytest.fixture(scope="class")
    def mesh(self):
        from repro.topology.random_network import random_network
        from repro.util.rng import RngFactory

        return random_network(
            24, neighbors_per_node=9.0,
            rng=RngFactory(2008).derive("topology"),
        )

    def test_disjoint_pairs_share_no_nodes(self, mesh):
        from repro.experiments.fig6_multisession import fig6_endpoints

        pairs = fig6_endpoints(mesh, 3)
        nodes = [node for pair in pairs for node in pair]
        assert len(nodes) == len(set(nodes))

    def test_opposing_pairs_mirror_and_enable_xor(self, mesh):
        from repro.experiments.fig6_multisession import fig6_endpoints
        from repro.protocols.intersession import plan_intersession_pairs
        from repro.protocols.more import plan_more

        pairs = fig6_endpoints(mesh, 2, layout="opposing")
        assert pairs[1] == (pairs[0][1], pairs[0][0])
        plans = {
            sid: plan_more(mesh, *endpoints)
            for sid, endpoints in enumerate(pairs, start=1)
        }
        assert plan_intersession_pairs(plans)

    def test_unknown_layout_rejected(self, mesh):
        from repro.experiments.fig6_multisession import fig6_endpoints

        with pytest.raises(ValueError, match="layout"):
            fig6_endpoints(mesh, 2, layout="spiral")


@dataclasses.dataclass(frozen=True)
class _Leaf:
    weight: float
    tags: frozenset


@dataclasses.dataclass
class _Tree:
    name: str
    leaves: list
    index: dict
    nothing: tuple = ()


_CANONICAL_VALUES = (
    {3, 1, 2},
    frozenset({"b", "a"}),
    {"z": 1, "a": [1.5, None], 2: (True,)},
    (),
    (7,),
    ((),),
    [np.float64(0.1), np.int32(-4), np.bool_(True), 2.0],
    _Leaf(np.float32(1.25), frozenset({(1, 2), (0, 5)})),
    _Tree("t", [_Leaf(0.5, frozenset()), (_Leaf(1.0, frozenset({3})),)],
          {(1, 2): {_Leaf(2.0, frozenset())}, "k": {"n": np.uint8(7)}}),
    [b"x", None, "s", 1 << 70, -0.0, float("inf")],
)


@pytest.mark.parametrize("value", _CANONICAL_VALUES, ids=range(len(_CANONICAL_VALUES)))
def test_the_campaign_digest_reprs_what_the_old_canonical_form_did(value):
    assert _canonical_repr(value) == repr(reference.canonical(value))
    assert _canonical_repr((value, [value], {"v": value})) == repr(
        reference.canonical((value, [value], {"v": value}))
    )


def test_the_campaign_digest_refuses_what_it_cannot_canonicalise():
    with pytest.raises(TypeError, match="object"):
        _canonical_repr([1, object()])
