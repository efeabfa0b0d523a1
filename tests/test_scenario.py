"""Scenario specs, timelines and re-planning policies."""

import numpy as np
import pytest

from repro.scenario import (
    DriftTriggeredPolicy,
    EpochObservation,
    ObliviousPolicy,
    PeriodicPolicy,
    ScenarioEvent,
    ScenarioSpec,
    ScenarioTimeline,
    builtin_scenario,
    load_scenario,
    make_policy,
)
from repro.cli import main as cli_main
from repro.topology.dynamics import quality_drift
from repro.topology.random_network import diamond_topology, random_network
from repro.util.rng import RngFactory
from tests.reference import link_table_digest, reference_mesh


def _observation(epoch=0, time=10.0, drift=0.0):
    return EpochObservation(epoch=epoch, time=time, drift=drift)


class TestScenarioEvent:
    def test_drift_needs_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            ScenarioEvent(at=1.0, kind="drift")

    def test_fail_needs_node(self):
        with pytest.raises(ValueError, match="node id"):
            ScenarioEvent(at=1.0, kind="fail")

    def test_load_needs_fraction(self):
        with pytest.raises(ValueError, match="cbr_fraction"):
            ScenarioEvent(at=1.0, kind="load", cbr_fraction=1.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            ScenarioEvent(at=1.0, kind="earthquake")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            ScenarioEvent(at=-1.0, kind="drift", sigma=0.1)

    def test_dict_round_trip(self):
        event = ScenarioEvent(at=5.0, kind="fail", node=3)
        assert ScenarioEvent.from_dict(event.as_dict()) == event

    def test_session_events_need_session_id(self):
        with pytest.raises(ValueError, match="session_id"):
            ScenarioEvent(at=1.0, kind="session_arrive")
        with pytest.raises(ValueError, match="session_id"):
            ScenarioEvent(at=1.0, kind="session_depart", session_id=-1)

    def test_session_event_dict_round_trip(self):
        event = ScenarioEvent(at=7.5, kind="session_arrive", session_id=2)
        payload = event.as_dict()
        assert payload == {"at": 7.5, "kind": "session_arrive", "session_id": 2}
        assert ScenarioEvent.from_dict(payload) == event
        # JSON written when arrivals carried their endpoints still loads.
        assert ScenarioEvent.from_dict({**payload, "source": 0, "destination": 9}) == event
        depart = ScenarioEvent(at=9.0, kind="session_depart", session_id=2)
        assert ScenarioEvent.from_dict(depart.as_dict()) == depart


class TestScenarioSpec:
    def test_events_must_be_sorted(self):
        with pytest.raises(ValueError, match="sorted"):
            ScenarioSpec(
                name="x",
                duration=100.0,
                epoch_seconds=10.0,
                events=(
                    ScenarioEvent(at=50.0, kind="drift", sigma=0.1),
                    ScenarioEvent(at=20.0, kind="drift", sigma=0.1),
                ),
            )

    def test_event_beyond_duration_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            ScenarioSpec(
                name="x",
                duration=10.0,
                epoch_seconds=5.0,
                events=(ScenarioEvent(at=10.0, kind="drift", sigma=0.1),),
            )

    def test_epoch_must_fit_duration(self):
        with pytest.raises(ValueError, match="epoch_seconds"):
            ScenarioSpec(name="x", duration=10.0, epoch_seconds=20.0)

    def test_epoch_count_covers_duration(self):
        spec = ScenarioSpec(name="x", duration=95.0, epoch_seconds=10.0)
        assert spec.epoch_count == 10

    def test_events_between(self):
        spec = builtin_scenario("drift", duration=120.0, epoch_seconds=10.0)
        assert len(spec.events_between(30.0, 40.0)) == 1
        assert spec.events_between(0.0, 30.0) == ()

    def test_json_round_trip(self, tmp_path):
        spec = ScenarioSpec(
            name="mixed",
            duration=60.0,
            epoch_seconds=6.0,
            events=(
                ScenarioEvent(at=10.0, kind="drift", sigma=0.4),
                ScenarioEvent(at=20.0, kind="fail", node=2),
                ScenarioEvent(at=30.0, kind="load", cbr_fraction=0.25),
                ScenarioEvent(at=40.0, kind="recover", node=2),
            ),
        )
        path = tmp_path / "scenario.json"
        spec.to_json(path)
        assert ScenarioSpec.from_json(path) == spec

    def test_builtin_names(self):
        assert builtin_scenario("calm").events == ()
        assert len(builtin_scenario("drift").events) == 2
        with pytest.raises(ValueError, match="unknown builtin"):
            builtin_scenario("apocalypse")

    def test_load_scenario_resolves_file(self, tmp_path):
        spec = builtin_scenario("drift")
        path = tmp_path / "s.json"
        spec.to_json(path)
        assert load_scenario(str(path)) == spec
        with pytest.raises(ValueError, match="no such file"):
            load_scenario(str(tmp_path / "missing.json"))


def fail_drift_recover_link_tables():
    """One timeline through all three update kinds on the reference mesh;
    pinned when each kind rebuilt the network from scratch (before they
    went through ``with_links``)."""
    net = reference_mesh()
    spec = ScenarioSpec(
        name="fdr",
        duration=100.0,
        epoch_seconds=10.0,
        events=(
            ScenarioEvent(at=10.0, kind="fail", node=57),
            ScenarioEvent(at=20.0, kind="drift", sigma=0.4),
            ScenarioEvent(at=30.0, kind="recover", node=57),
        ),
    )
    timeline = ScenarioTimeline(net, spec, rng=RngFactory(2008).derive("scenario"))
    tables = []
    for time in (10.0, 20.0, 30.0):
        assert timeline.advance_to(time)
        tables.append((timeline.network.link_count(), link_table_digest(timeline.network)))
    recovered = timeline.network
    # Node 57's links came back at their saved (pre-drift) qualities.
    assert all(recovered.probability(i, j) == p for i, j, p in net.links() if 57 in (i, j))
    assert recovered.out_neighbors(57) == net.out_neighbors(57)
    assert recovered.positions is net.positions
    return tuple(tables)


class TestScenarioTimeline:
    def _network(self, seed=1, nodes=25):
        return random_network(nodes, rng=RngFactory(seed).derive("t"))

    def test_drift_changes_qualities(self):
        net = self._network()
        spec = ScenarioSpec(
            name="d",
            duration=100.0,
            epoch_seconds=10.0,
            events=(ScenarioEvent(at=5.0, kind="drift", sigma=0.5),),
        )
        timeline = ScenarioTimeline(net, spec, rng=np.random.default_rng(0))
        assert not timeline.advance_to(4.0)
        assert timeline.network is net
        assert timeline.advance_to(5.0)
        assert quality_drift(net, timeline.network) > 0.0
        # Geometry preserved.
        assert np.array_equal(timeline.network.positions, net.positions)

    def test_fail_removes_links_and_recover_restores(self):
        net = self._network()
        degree = {n: 0 for n in net.nodes()}
        for i, j, _ in net.links():
            degree[i] += 1
            degree[j] += 1
        node = max(degree, key=lambda n: degree[n])
        spec = ScenarioSpec(
            name="f",
            duration=100.0,
            epoch_seconds=10.0,
            events=(
                ScenarioEvent(at=10.0, kind="fail", node=node),
                ScenarioEvent(at=20.0, kind="recover", node=node),
            ),
        )
        timeline = ScenarioTimeline(net, spec)
        assert timeline.advance_to(10.0)
        assert timeline.failed_nodes == (node,)
        downed = timeline.network
        assert all(node not in (i, j) for i, j, _ in downed.links())
        assert downed.node_count == net.node_count
        assert timeline.advance_to(20.0)
        assert timeline.failed_nodes == ()
        assert sorted(timeline.network.links()) == sorted(net.links())

    def test_double_fail_is_idempotent(self):
        net = self._network()
        spec = ScenarioSpec(
            name="ff",
            duration=100.0,
            epoch_seconds=10.0,
            events=(
                ScenarioEvent(at=10.0, kind="fail", node=0),
                ScenarioEvent(at=20.0, kind="fail", node=0),
            ),
        )
        timeline = ScenarioTimeline(net, spec)
        timeline.advance_to(50.0)
        assert timeline.failed_nodes == (0,)

    def test_recover_without_fail_is_noop(self):
        net = self._network()
        spec = ScenarioSpec(
            name="r",
            duration=100.0,
            epoch_seconds=10.0,
            events=(ScenarioEvent(at=10.0, kind="recover", node=0),),
        )
        timeline = ScenarioTimeline(net, spec)
        assert not timeline.advance_to(50.0)
        assert timeline.network is net

    def test_load_event_sets_fraction_without_topology_change(self):
        net = self._network()
        spec = ScenarioSpec(
            name="l",
            duration=100.0,
            epoch_seconds=10.0,
            events=(ScenarioEvent(at=10.0, kind="load", cbr_fraction=0.25),),
        )
        timeline = ScenarioTimeline(net, spec)
        assert timeline.cbr_fraction is None
        assert not timeline.advance_to(10.0)
        assert timeline.cbr_fraction == 0.25
        assert timeline.network is net

    def test_session_events_do_not_touch_topology_or_load(self):
        # Session churn is consumed by run_multi_session; the topology
        # timeline must pass it through without side effects.
        net = self._network()
        spec = ScenarioSpec(
            name="churn",
            duration=100.0,
            epoch_seconds=10.0,
            events=(
                ScenarioEvent(at=5.0, kind="load", cbr_fraction=0.25),
                ScenarioEvent(at=10.0, kind="session_arrive", session_id=2),
                ScenarioEvent(at=20.0, kind="session_depart", session_id=1),
            ),
        )
        timeline = ScenarioTimeline(net, spec)
        timeline.advance_to(5.0)
        assert timeline.cbr_fraction == 0.25
        assert not timeline.advance_to(50.0)
        assert timeline.network is net
        assert timeline.cbr_fraction == 0.25  # not reset by churn events

    def test_fixed_seed_reproduces_topology_sequence(self):
        net = self._network()
        spec = builtin_scenario("drift", duration=120.0, epoch_seconds=10.0)
        first = ScenarioTimeline(net, spec, rng=np.random.default_rng(5))
        second = ScenarioTimeline(net, spec, rng=np.random.default_rng(5))
        first.advance_to(120.0)
        second.advance_to(120.0)
        assert sorted(first.network.links()) == sorted(second.network.links())

    def test_a_snapshot_has_not_drifted_from_itself(self, monkeypatch):
        # By identity, without walking a link: the calm epochs of a run.
        net = reference_mesh()
        monkeypatch.setattr(
            type(net), "links", lambda self: pytest.fail("walked the link table")
        )
        assert quality_drift(net, net) == 0.0


class TestNonStrictDrift:
    def test_union_semantics_registers_failures(self):
        net = diamond_topology()
        spec = ScenarioSpec(
            name="f",
            duration=10.0,
            epoch_seconds=1.0,
            events=(ScenarioEvent(at=1.0, kind="fail", node=1),),
        )
        timeline = ScenarioTimeline(net, spec)
        timeline.advance_to(1.0)
        with pytest.raises(ValueError, match="different link sets"):
            quality_drift(net, timeline.network)
        drift = quality_drift(net, timeline.network, strict=False)
        assert drift > 0.0

    def test_union_agrees_with_strict_on_equal_sets(self):
        net = diamond_topology()
        other = diamond_topology(p_ut=0.9)
        assert quality_drift(net, other) == pytest.approx(
            quality_drift(net, other, strict=False)
        )


class TestPolicies:
    def test_oblivious_never_fires(self):
        policy = ObliviousPolicy()
        assert not policy.should_replan(_observation(drift=1.0))

    def test_periodic_counts_epochs(self):
        policy = PeriodicPolicy(every=3)
        fires = [policy.should_replan(_observation(epoch=e)) for e in range(6)]
        assert fires == [False, False, True, False, False, True]

    def test_drift_threshold(self):
        policy = DriftTriggeredPolicy(threshold=0.05)
        assert not policy.should_replan(_observation(drift=0.04))
        assert policy.should_replan(_observation(drift=0.05))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            PeriodicPolicy(every=0)
        with pytest.raises(ValueError):
            DriftTriggeredPolicy(threshold=0.0)

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_a_non_finite_drift_threshold_is_refused(self, threshold, capsys):
        with pytest.raises(ValueError, match="threshold"):
            make_policy(f"drift:{threshold}")
        argv = ["session", "omnc", "0", "7", "--nodes", "30", "--seconds", "20",
                "--scenario", "drift", "--policy", f"drift:{threshold}"]
        assert cli_main(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("repro session: error:") and "threshold" in line

    def test_make_policy_parses_specs(self):
        assert isinstance(make_policy("oblivious"), ObliviousPolicy)
        assert make_policy("periodic:4").every == 4
        assert make_policy("periodic").every == 1
        assert make_policy("drift:0.1").threshold == pytest.approx(0.1)
        assert make_policy("drift").threshold == pytest.approx(0.02)
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("chaotic")
        with pytest.raises(ValueError, match="no argument"):
            make_policy("oblivious:2")
