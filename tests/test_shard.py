"""Sharded emulation: spatial partitioning and the digest oracle.

The tentpole invariant: ``shards=1`` (the serial engine in per-node RNG
mode, run in-process) and ``shards=N`` (spatially partitioned workers
synchronized at slot barriers) produce **bit-identical** results —
same :class:`SessionResult` digest, same trace digest — on every
topology, fidelity, and interference model.
"""

import numpy as np
import pytest

from repro.emulator.session import SessionConfig
from repro.emulator.shard import (
    run_sharded_session,
    session_digest,
    trace_digest,
)
from repro.emulator.trace import SessionTracer
from repro.protocols.etx_routing import plan_etx_route
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


class TestShardedValidation:
    def test_more_shards_than_nodes_rejected(self):
        network, plan = _planned_mesh(1, nodes=40)
        with pytest.raises(ValueError, match="cannot run"):
            run_sharded_session(
                network, plan, shards=41, config=_quick_config()
            )
