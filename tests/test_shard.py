"""Sharded emulation: spatial partitioning and the digest oracle.

The invariant: ``shards=1`` (one core, hosting every node, in this
process) and ``shards=N`` (spatially partitioned workers synchronized at
slot barriers) produce **bit-identical** stats and traces for the data
plane of a flow or coded session, on every topology, fidelity and
interference model — and refuse what only one process runs.
"""

import gc
import os
import signal
import threading
import time
import weakref

import numpy as np
import pytest

from repro import obs
from repro.emulator.node import FlowRelayRuntime, UnicastRuntime
from repro.emulator.session import SessionConfig
from repro.emulator.shard import ShardedSession, _DecodeLog
from repro.exec.pool import WorkerCallError
from repro.obs import EventTracer, trace_digest
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
from tests.test_active_set import (
    BLOCKS,
    PACKET_BYTES,
    advance_by_hand,
    line_network,
    line_runtimes,
    line_session,
    plan_session,
    stats_digest,
)
from tests.test_array_core import _install, _line_plan

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
    """``plan`` run on ``shards`` cores as the driver runs one session —
    each decode ACKed before the next slot, a stop at the target — with
    its stats and trace digests, its ACK times and its tracer."""
    tracer = EventTracer(capacity=500_000)
    with plan_session(
        network, plan, config, RngFactory(seed), shards=shards, tracer=tracer
    ) as session:
        log = session._log

        def lacking():
            target = config.target_generations
            return max(0, target - len(log.acks)) if target else None

        session.run(int(config.max_seconds / session.slot_duration), decodes=lacking)
        stats = session.finalize_stats()
    return stats_digest(stats), trace_digest(tracer), [time for _gen, time in log.acks], tracer


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
        assert reference[2]  # the run did work
        for shards in (2, 4):
            assert digests[shards][0] == reference[0], f"stats@{shards}"
            assert digests[shards][1] == reference[1], f"trace@{shards}"

    def test_exact_fidelity_oracle(self):
        network, plan = _planned_mesh(1)
        config = _quick_config(coding_fidelity="exact")
        serial = _digests(network, plan, 1, config=config, seed=4)
        sharded = _digests(network, plan, 3, config=config, seed=4)
        assert sharded[:2] == serial[:2]

    @pytest.mark.parametrize("interference", ["capture", "conflict_free"])
    def test_interference_model_oracle(self, interference):
        network, plan = _planned_mesh(1)
        config = _quick_config(interference=interference)
        serial = _digests(network, plan, 1, config=config, seed=4)
        sharded = _digests(network, plan, 2, config=config, seed=4)
        assert sharded[:2] == serial[:2]

    def test_repeated_run_reproduces_exactly(self):
        network, plan = _planned_mesh(2008)
        config = _quick_config()
        first = _digests(network, plan, 2, config=config, seed=6)
        second = _digests(network, plan, 2, config=config, seed=6)
        assert first[:2] == second[:2]


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
    tracer = EventTracer(capacity=500_000)
    with line_session(line_network(nodes), shards, tracer=tracer) as session:
        drive(session)
        stats = session.finalize_stats()
    return stats_digest(stats), trace_digest(tracer), stats


class TestBarrierTransitions:
    """Shards park, are left alone, and come back — invisibly.

    The 2 048-node benchmark line never wakes its far shard; these
    lines are short enough that the wave front crosses every cut, and
    a control signal is made to reach into a shard that is parked.
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
            (lambda s: advance_by_hand(s, 1), "begin_slot"),
            (lambda s: s.broadcast_session_arrival(1), "begin_slot"),
            (lambda s: s.broadcast_session_departure(1), "begin_slot"),
        ],
        ids=["advance", "arrive", "depart"],
    )
    def test_control_plane_reaches_a_parked_shard(self, barriers, reach, method):
        def drive(session):
            session.run(20)
            if session.shards > 1:
                # The far strip is parked and the near one runs epochs.
                assert barriers[-1][0] == "run_slots" and 1 not in barriers[-1][1]
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
        assert barriers[-2][0] == "run_slots" and 1 not in barriers[-2][1]

    def test_interior_and_boundary_slots_in_one_session(self, barriers):
        network, plan = _planned_mesh(1)
        serial = _digests(network, plan, 1, config=_quick_config(), seed=1)
        sharded = _digests(network, plan, 2, config=_quick_config(), seed=1)
        assert sharded[:2] == serial[:2]
        methods = [method for method, _arguments, _replies in barriers]
        assert methods.count("fire_resolve") == 7  # interior slots
        assert methods.count("fire") == methods.count("resolve") == 37


def _epochs(barriers):
    """``(shard, budget, slots run, ended on a cut)`` per epoch, in order."""
    return [
        (shard, arguments[shard][0], len(reply[1]), reply[2] is not None)
        for method, arguments, replies in barriers
        if method == "run_slots"
        for shard, reply in replies.items()
    ]


class TestEpochBoundaries:
    """Where an epoch ends, and that nothing can tell.

    A 48-node line; a session on its first eleven nodes sits inside the
    first strip of a two- or four-strip cut, so one worker grants and
    runs its own slots for the whole run.
    """

    def test_front_crosses_a_cut_between_epochs(self, barriers):
        # The source never parks, so its strip is live throughout.  The
        # next generation empties every relay: the strip beyond the cut
        # parks, and the new front is still short of the cut 36 slots on.
        def digests(shards):
            tracer = EventTracer(capacity=500_000)
            with line_session(line_network(48), shards, tracer=tracer) as session:
                session.run(100)  # the front passes node 24, the two-strip cut
                advance_by_hand(session, 1)
                session.run(36)
                stats = session.finalize_stats()
            return stats_digest(stats), trace_digest(tracer)

        serial = digests(1)
        assert digests(4) == serial
        del barriers[:]
        assert digests(2) == serial
        methods = [method for method, _arguments, _replies in barriers]
        epochs = _epochs(barriers)
        # Strip 0 runs alone until a node on the cut contends: that epoch
        # hands its last slot back, which then fires across the cut.
        first = methods.index("run_slots")
        assert epochs[0][0] == 0 and epochs[0][3]
        assert epochs[0][2] < epochs[0][1]
        assert methods[first + 1] == "fire"
        # Once strip 1 has drained and parked, strip 0 runs alone again.
        assert epochs[-1][0] == 0 and not epochs[-1][3]
        assert epochs[-1][2] == epochs[-1][1] > 20

    @pytest.mark.parametrize("shards", [2, 4])
    def test_decode_ends_an_epoch_mid_budget(self, barriers, shards):
        network = line_network(48)
        plan = plan_omnc(network, 0, 10)
        config = _quick_config(max_seconds=60.0, target_generations=3)
        serial = _digests(network, plan, 1, config=config, seed=5)
        del barriers[:]
        sharded = _digests(network, plan, shards, config=config, seed=5)
        assert sharded[:3] == serial[:3]
        assert len(serial[2]) == 3
        # Every epoch but the last was cut short by a decode ...
        epochs = _epochs(barriers)
        assert len(epochs) == 3
        assert all(ran < budget and not cut for _shard, budget, ran, cut in epochs)
        # ... and each ACK is traced at the start of the slot after the
        # one that decoded: nothing ran in between.
        slot = config.coded_packet_bytes() / network.capacity
        signalled = [record.fields["time"] for record in sharded[3].records(kind="ack")]
        assert signalled == [time + slot for time in serial[2]]

    def test_metrics_counters_equal_across_shard_counts(self, barriers):
        network = line_network(48)
        plan = plan_omnc(network, 0, 10)
        config = _quick_config(max_seconds=20.0)
        counters = {}
        for shards in (1, 2):
            with obs.collecting() as registry:
                _digests(network, plan, shards, config=config, seed=5)
            counters[shards] = {
                name: registry.get(name).as_dict()
                for name in ("emulator.slots", "emulator.grants", "mac.contenders",
                             "mac.granted_per_slot")
            }
        assert _epochs(barriers)  # the two-shard run granted in its worker
        assert counters[2] == counters[1]
        assert counters[1]["emulator.grants"]["value"] > 0


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
        # The front stays inside strip 0: while both strips are live a
        # slot is interior and costs each two messages; the 112 slots
        # after that are one message, and plain numbers are all that
        # ever moves.
        near = [method for method, arguments, _replies in slot_phases if 0 in arguments]
        assert near == ["begin_slot", "fire_resolve"] * 8 + ["run_slots"]
        assert len(slot_phases[-1][2][0][1]) == 112
        for _method, _arguments, replies in slot_phases:
            assert {type(leaf) for leaf in _leaves(replies)} <= {int, float, type(None)}


class _FusedRelay(FlowRelayRuntime):
    """A relay that fails on tick ``fuse``: raises, or hangs until killed."""

    fuse = 0
    hangs = False

    def on_slot(self, dt):
        self.fuse -= 1
        if self.fuse == 0:
            if self.hangs:
                time.sleep(60)
            raise RuntimeError("fuse blown")
        super().on_slot(dt)

    def dormant(self, dt):
        return False  # ticked every slot, so tick k is slot k - 1


def _fused_session(fuse, hangs):
    """The 64-node line on two shards, node 5's relay fused."""
    decode_log = _DecodeLog()
    network = line_network(64)
    runtimes = line_runtimes(network, decode_log)
    runtimes[5] = _FusedRelay(5, 1, BLOCKS, PACKET_BYTES, mode="rate", rate_bps=8e3, upstream=(4,))
    runtimes[5].fuse, runtimes[5].hangs = fuse, hangs
    return ShardedSession(
        network,
        runtimes,
        PACKET_BYTES / network.capacity,
        rng_factory=RngFactory(2008),
        shards=2,
        decode_log=decode_log,
    )


class TestBarrierFailure:
    """A dead shard is reported with shard, phase and slot, in bounded time."""

    def _kill(self, session, shard):
        process = session._core.group._workers[shard].process
        os.kill(process.pid, signal.SIGKILL)
        process.join(5)

    def _assert_no_children(self, session):
        session.close()
        assert not any(
            worker.process.is_alive() for worker in session._core.group._workers
        )

    def test_live_shard_killed_between_steps(self):
        session = line_session(line_network(64), 2)
        try:
            session.run(12)
            self._kill(session, 0)
            started = time.monotonic()
            with pytest.raises(WorkerCallError, match="slot 12: worker process died") as info:
                session.step()
            assert time.monotonic() - started < 5.0
            assert (info.value.worker, info.value.method) == (0, "run_slots")
        finally:
            self._assert_no_children(session)

    def test_shard_killed_inside_an_epoch(self):
        # Strip 1 parks at slot 8; the epoch that starts there is still
        # running (asleep in slot 19's tick) when its worker is killed.
        session = _fused_session(fuse=20, hangs=True)
        killer = threading.Timer(1.0, self._kill, (session, 0))
        try:
            killer.start()
            started = time.monotonic()
            with pytest.raises(WorkerCallError, match="slot 8: worker process died") as info:
                session.run(100)
            assert time.monotonic() - started < 5.0
            assert (info.value.worker, info.value.method) == (0, "run_slots")
        finally:
            killer.cancel()
            self._assert_no_children(session)

    def test_failure_inside_an_epoch_names_its_own_slot(self):
        session = _fused_session(fuse=20, hangs=False)
        try:
            with pytest.raises(WorkerCallError, match="slot 19: RuntimeError: fuse blown") as info:
                session.run(100)
            assert (info.value.worker, info.value.method) == (0, "run_slots")
            assert session.slots == 8  # nothing of the failed epoch was replayed
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
    """Worker cores run the data plane of a flow or coded session; the
    rest is refused with a ``ValueError`` before a worker starts or a
    call goes out."""

    def test_more_shards_than_nodes_rejected(self):
        network, _plan = _planned_mesh(1, nodes=40)
        with pytest.raises(ValueError, match="cannot cut 40 node"):
            line_session(network, 64)

    def test_unicast_runtimes_rejected(self):
        network = line_network(8)
        runtimes = {node: UnicastRuntime(node, node + 1 if node < 7 else None) for node in range(8)}
        with pytest.raises(ValueError, match="unicast runtimes runs in one process"):
            ShardedSession(network, runtimes, 0.05, rng_factory=RngFactory(1), shards=2)

    @pytest.mark.parametrize("call", [
        lambda s: _install(s, _line_plan(s.network)),
        lambda s: s.apply_plan_updates({3: {"rate_bps": 2e4}}),
        lambda s: s.set_network(line_network(16)),
        lambda s: s.advance_idle(5),
        lambda s: s.parked_nodes(),
    ], ids=["install_plan", "apply_plan_updates", "set_network", "advance_idle", "parked_nodes"])
    def test_control_plane_rejected(self, barriers, call):
        with line_session(line_network(16), 2) as session:
            session.run(5)
            advance_by_hand(session, 1)
            del barriers[:]
            before = (session.slots, session.now, session.participants, session.network)
            with pytest.raises(ValueError, match="runs in one process, and this session has 2"):
                call(session)
            assert not barriers  # not even the queued signal went out
            assert (session.slots, session.now, session.participants, session.network) == before

