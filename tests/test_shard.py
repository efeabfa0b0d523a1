"""Sharded emulation: spatial partitioning and the digest oracle.

The tentpole invariant: ``shards=1`` (one core, hosting every node, in
this process) and ``shards=N`` (spatially partitioned workers
synchronized at slot barriers) produce **bit-identical** results —
same :class:`SessionResult` digest, same trace digest — on every
topology, fidelity, and interference model, under every driver name.
"""

import gc
import os
import signal
import time
import weakref

import numpy as np
import pytest

from repro.emulator.session import (
    SessionConfig,
    run_coded_session,
    run_sharded_session,
    run_unicast_session,
)
from repro.emulator.shard import session_digest, trace_digest
from repro.emulator.trace import SessionTracer
from repro.exec.pool import WorkerCallError
from repro.protocols.etx_routing import plan_etx_route
from repro.protocols.more import plan_more
from repro.protocols.oldmore import plan_oldmore
from repro.protocols.omnc import plan_omnc
from repro.routing.node_selection import NodeSelectionError
from repro.topology.geometry import pairwise_distances
from repro.topology.partition import (
    SpatialGrid,
    partition_network,
    partition_positions,
)
from repro.topology.random_network import random_network
from repro.util.rng import RngFactory
from tests.reference import PLANNED_PAIRS, reference_mesh
from tests.test_active_set import line_network, line_session, stats_digest

# Every slot of every run below re-checks each parked runtime
# (tests/conftest.py): a missing wake fails the oracle tests loudly.
pytestmark = pytest.mark.usefixtures("parked_contract")

ORACLE_SEEDS = (1, 2008, 77)


def _planned_mesh(seed, nodes=60):
    """A seeded mesh plus an OMNC plan toward a reachable destination."""
    network = random_network(nodes, rng=seed)
    for destination in range(network.node_count - 1, 0, -1):
        try:
            return network, plan_omnc(network, 0, destination)
        except NodeSelectionError:
            continue
    raise RuntimeError(f"seed {seed}: no reachable destination")


def _quick_config(**overrides):
    defaults = dict(
        blocks=6, block_size=256, max_seconds=30.0, target_generations=2
    )
    defaults.update(overrides)
    return SessionConfig(**defaults)


def _digests(network, plan, shards, *, config, seed):
    tracer = SessionTracer(capacity=500_000)
    result = run_sharded_session(
        network,
        plan,
        shards=shards,
        config=config,
        rng=RngFactory(seed),
        tracer=tracer,
    )
    return session_digest(result), trace_digest(tracer), result


class TestSpatialGrid:
    def test_neighborhoods_bit_identical_to_dense_path(self):
        network = random_network(80, rng=13)
        positions = network.positions
        dense = pairwise_distances(positions)
        grid = SpatialGrid(positions, network.communication_range)
        for node in range(network.node_count):
            ids, distances = grid.neighbors_within(
                node, network.communication_range
            )
            row = dense[node]
            expected = np.flatnonzero(
                (row <= network.communication_range)
                & (np.arange(network.node_count) != node)
            )
            assert ids.tolist() == expected.tolist()
            # Bit-identical, not approximately equal: the grid must
            # reproduce the dense matrix's exact float64 values.
            assert distances.tolist() == row[expected].tolist()

    def test_radius_beyond_cell_size_rejected(self):
        grid = SpatialGrid(np.zeros((3, 2)), 10.0)
        with pytest.raises(ValueError, match="exceeds"):
            grid.neighbors_within(0, 11.0)


class TestPartition:
    def test_strips_cover_all_nodes_disjointly(self):
        network = random_network(90, rng=5)
        partition = partition_network(network, 4)
        seen = [node for shard in partition.owned for node in shard]
        assert sorted(seen) == list(range(network.node_count))
        for shard, nodes in enumerate(partition.owned):
            assert all(partition.owner[node] == shard for node in nodes)

    def test_halo_is_exactly_cross_cut_neighborhood(self):
        network = random_network(70, rng=3)
        partition = partition_network(network, 3)
        for shard in range(partition.shards):
            owned = set(partition.owned[shard])
            expected = set()
            for node in owned:
                for neighbor in network.neighbors(node):
                    if neighbor not in owned:
                        expected.add(neighbor)
            assert set(partition.halo[shard]) == expected

    def test_deterministic_and_balanced(self):
        network = random_network(50, rng=8)
        a = partition_network(network, 4)
        b = partition_network(network, 4)
        assert a == b
        sizes = [len(nodes) for nodes in a.owned]
        assert max(sizes) - min(sizes) <= 1

    def test_single_shard_owns_everything(self):
        network = random_network(20, rng=1)
        partition = partition_network(network, 1)
        assert partition.owned[0] == tuple(range(20))
        assert partition.halo[0] == ()
        assert partition.cut_links == 0
        assert partition.halo_fraction() == 0.0

    def test_shard_count_validation(self):
        with pytest.raises(ValueError, match="shards must be"):
            partition_positions(np.zeros((4, 2)), 0)
        with pytest.raises(ValueError, match="cannot cut"):
            partition_positions(np.zeros((4, 2)), 5)


class TestShardedOracle:
    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_shards_equal_serial_oracle(self, seed):
        network, plan = _planned_mesh(seed)
        config = _quick_config()
        digests = {
            shards: _digests(network, plan, shards, config=config, seed=seed)
            for shards in (1, 2, 4)
        }
        reference = digests[1]
        assert reference[2].generations_decoded > 0  # the run did work
        for shards in (2, 4):
            assert digests[shards][0] == reference[0], f"result@{shards}"
            assert digests[shards][1] == reference[1], f"trace@{shards}"

    def test_exact_fidelity_oracle(self):
        network, plan = _planned_mesh(1)
        config = _quick_config(coding_fidelity="exact")
        serial = _digests(network, plan, 1, config=config, seed=4)
        sharded = _digests(network, plan, 3, config=config, seed=4)
        assert sharded[:2] == serial[:2]

    def test_exact_fidelity_survives_spawned_workers(self):
        # A spawned worker receives the codec's field class and its
        # echelon bases by pickle, into a process that never selected a
        # backend: kernels load on first use, buffer addresses re-bind.
        network, plan = _planned_mesh(1)
        config = _quick_config(coding_fidelity="exact")
        serial = _digests(network, plan, 1, config=config, seed=4)
        result = run_sharded_session(
            network,
            plan,
            shards=2,
            config=config,
            rng=RngFactory(4),
            start_method="spawn",
        )
        assert session_digest(result) == serial[0]

    @pytest.mark.parametrize("interference", ["capture", "conflict_free"])
    def test_interference_model_oracle(self, interference):
        network, plan = _planned_mesh(1)
        config = _quick_config(interference=interference)
        serial = _digests(network, plan, 1, config=config, seed=4)
        sharded = _digests(network, plan, 2, config=config, seed=4)
        assert sharded[:2] == serial[:2]

    def test_unicast_oracle(self):
        network, _ = _planned_mesh(1)
        plan = plan_etx_route(network, 0, network.node_count - 1)
        config = SessionConfig(max_seconds=25.0)
        serial = _digests(network, plan, 1, config=config, seed=4)
        sharded = _digests(network, plan, 2, config=config, seed=4)
        assert sharded[:2] == serial[:2]
        assert serial[2].packets_delivered > 0

    def test_repeated_run_reproduces_exactly(self):
        network, plan = _planned_mesh(2008)
        config = _quick_config()
        first = _digests(network, plan, 2, config=config, seed=6)
        second = _digests(network, plan, 2, config=config, seed=6)
        assert first[:2] == second[:2]


class TestOneDriverOracle:
    """Every driver name, every shard count, either start method: one run.

    ``run_coded_session`` / ``run_unicast_session`` are the sharded
    session at ``shards=1``, so their digests equal ``shards=2`` — which
    no pair of drivers could before they shared a random universe.
    """

    CONFIG = dict(blocks=6, block_size=256, max_seconds=25.0, target_generations=2)

    @pytest.mark.parametrize("protocol", ["omnc", "more", "oldmore", "etx"])
    def test_serial_names_equal_sharded_runs(self, protocol):
        network = reference_mesh()
        source, destination = PLANNED_PAIRS[0]
        planners = {
            "omnc": plan_omnc,
            "more": plan_more,
            "oldmore": plan_oldmore,
            "etx": plan_etx_route,
        }
        plan = planners[protocol](network, source, destination)
        config = SessionConfig(**self.CONFIG)

        def digests(driver, **where):
            tracer = SessionTracer(capacity=500_000)
            result = driver(
                network,
                plan,
                config=config,
                rng=RngFactory(2008),
                protocol_label=protocol,
                tracer=tracer,
                **where,
            )
            assert result.packets_delivered > 0  # the run did work
            return session_digest(result), trace_digest(tracer)

        serial = run_unicast_session if protocol == "etx" else run_coded_session
        reference = digests(serial)
        assert digests(run_sharded_session, shards=1) == reference
        assert digests(run_sharded_session, shards=2, start_method="fork") == reference
        assert digests(run_sharded_session, shards=2, start_method="spawn") == reference


def _leaves(value):
    """Every non-container object inside a reply."""
    if isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            yield from _leaves(item)
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(key)
            yield from _leaves(item)
    else:
        yield value


def _line_digests(nodes, shards, drive):
    tracer = SessionTracer(capacity=500_000)
    with line_session(line_network(nodes), shards, tracer=tracer) as session:
        drive(session)
        stats = session.finalize_stats()
    return stats_digest(stats), trace_digest(tracer), stats


class TestBarrierTransitions:
    """Shards park, are left alone, and come back — invisibly.

    The 2 048-node benchmark line never wakes its far shard; these
    lines are short enough that the wave front crosses every cut, and
    the control plane is made to reach into a shard that is parked.
    """

    def test_wave_front_crosses_every_cut(self, barriers):
        runs = {}
        for shards in (1, 2, 4):
            del barriers[:]  # keep the last run's only
            runs[shards] = _line_digests(48, shards, lambda session: session.run(110))
        front = max(j for _i, j in runs[1][2].delivered_links)
        assert front > 36  # past the last cut of the four-strip partition
        assert runs[2][:2] == runs[1][:2]
        assert runs[4][:2] == runs[1][:2]
        # The last strip went through all three states: called, then
        # parked and not called, then woken by a resolve entry.
        called = [3 in arguments for _method, arguments, _replies in barriers]
        assert called[0] and called[-2] and not all(called)
        woken = called.index(True, called.index(False))
        assert barriers[woken][0] == "resolve"

    @pytest.mark.parametrize(
        "reach, method",
        [
            (lambda s: s.broadcast_generation_advance(1), "begin_slot"),
            (lambda s: s.broadcast_session_arrival(1), "begin_slot"),
            (lambda s: s.broadcast_session_departure(1), "begin_slot"),
            (lambda s: s.apply_plan_updates({40: {"rate_bps": 2e4}}), "apply_plan"),
            (lambda s: s.set_network(line_network(64)), "set_network"),
            (lambda s: s.advance_idle(5), "advance_idle"),
        ],
        ids=["advance", "arrive", "depart", "apply_plan", "set_network", "advance_idle"],
    )
    def test_control_plane_reaches_a_parked_shard(self, barriers, reach, method):
        def drive(session):
            session.run(20)
            if session.shards > 1:
                assert 1 not in barriers[-1][1]  # the far strip is parked
                del barriers[:]
            reach(session)
            session.run(20)

        serial = _line_digests(64, 1, drive)
        sharded = _line_digests(64, 2, drive)
        assert sharded[:2] == serial[:2]
        reached = [
            arguments[1]
            for name, arguments, _replies in barriers
            if name == method and 1 in arguments
        ]
        assert reached and reached[0] is not None
        # ... and with nothing left to do there it is left alone again.
        assert 1 not in barriers[-2][1]

    def test_interior_and_boundary_slots_in_one_session(self, barriers):
        network, plan = _planned_mesh(1)
        serial = _digests(network, plan, 1, config=_quick_config(), seed=1)
        sharded = _digests(network, plan, 2, config=_quick_config(), seed=1)
        assert sharded[:2] == serial[:2]
        methods = [method for method, _arguments, _replies in barriers]
        assert methods.count("fire_resolve") == 7  # interior slots
        assert methods.count("fire") == methods.count("resolve") == 37


class TestBarrierTraffic:
    """What a slot costs on the pipe (256-node line, two strips)."""

    def test_parked_shard_is_not_called_and_interior_slots_carry_no_packet(
        self, barriers
    ):
        with line_session(line_network(256), 2) as session:
            session.run(120)
            slot_phases = list(barriers)
            session.finalize_stats()
        # Everything starts awake; the far strip's relays park at the
        # second check (slot 8) and from then on it is sent nothing.
        far = [method for method, arguments, _replies in slot_phases if 1 in arguments]
        assert far == ["begin_slot", "fire_resolve"] * 7 + ["begin_slot"]
        assert barriers[-1][0] == "finalize" and set(barriers[-1][1]) == {0, 1}
        # The front stays inside strip 0: every slot is interior, costs
        # the live shard two messages and moves plain numbers only.
        near = [method for method, arguments, _replies in slot_phases if 0 in arguments]
        assert near == ["begin_slot", "fire_resolve"] * 120
        for _method, _arguments, replies in slot_phases:
            assert {type(leaf) for leaf in _leaves(replies)} <= {int, float}


class TestBarrierFailure:
    """A dead shard is reported with shard, phase and slot, in bounded time."""

    def _kill(self, session, shard):
        process = session._core.group._procs[shard]
        os.kill(process.pid, signal.SIGKILL)
        process.join(5)

    def _assert_no_children(self, session):
        session.close()
        assert not any(process.is_alive() for process in session._core.group._procs)

    def test_live_shard_killed_between_steps(self):
        session = line_session(line_network(64), 2)
        try:
            session.run(12)
            self._kill(session, 0)
            started = time.monotonic()
            with pytest.raises(WorkerCallError, match="slot 12: worker process died") as info:
                session.step()
            assert time.monotonic() - started < 5.0
            assert (info.value.worker, info.value.method) == (0, "begin_slot")
        finally:
            self._assert_no_children(session)

    def test_parked_shard_killed_surfaces_when_addressed(self):
        session = line_session(line_network(64), 2)
        try:
            session.run(12)
            self._kill(session, 1)
            session.run(5)  # nobody talks to a parked shard
            with pytest.raises(WorkerCallError, match="slot 17: worker process died") as info:
                session.finalize_stats()
            assert (info.value.worker, info.value.method) == (1, "finalize")
        finally:
            self._assert_no_children(session)


class TestSessionLifetime:
    """A finished session is garbage the moment it is dropped.

    A campaign or a benchmark repetition makes one session after
    another, each holding every runtime of a mesh; were session and
    cores to reference each other, each would linger until the cycle
    collector's next full pass and every forked worker would start from
    a bigger parent.
    """

    @pytest.mark.parametrize("shards", [1, 2])
    def test_freed_by_reference_count_alone(self, shards):
        gc.collect()
        gc.disable()
        try:
            session = line_session(line_network(32), shards)
            with session:
                session.run(5)
            gone = weakref.ref(session)
            del session
            assert gone() is None
        finally:
            gc.enable()


class TestShardedValidation:
    def test_more_shards_than_nodes_rejected(self):
        network, plan = _planned_mesh(1, nodes=40)
        with pytest.raises(ValueError, match="cannot run"):
            run_sharded_session(
                network, plan, shards=41, config=_quick_config()
            )
