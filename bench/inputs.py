"""Input generation: topologies, endpoints, payloads, shapes.

Everything a workload feeds into ``src/repro`` is made here.  Two seeds
are involved, on purpose:

* :data:`SHAPE_SEED` fixes the *shape* of the mesh workloads — the
  120-node deployment and the endpoint sets on it — exactly as the
  2048-node relay line is fixed by construction.  On this code base a
  different deployment or endpoint draw moves a workload's wall time by
  +-20% (forwarder sets of 5 to 30 nodes), far more than any bound a
  regression gate could use, so the deployment belongs to the workload
  definition, not to the run.
* ``--seed`` drives every random stream that does not change the amount
  of work: channel-loss, MAC-lottery and coding-coefficient streams,
  scenario drift draws, payload bytes and erasure patterns.

``run_campaign`` takes one seed for deployment, endpoints and streams
alike, so the two campaign workloads run on ``SHAPE_SEED`` whatever
``--seed`` says; every other workload's digest changes with ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

import _paths  # noqa: F401

from repro.protocols.etx_routing import plan_etx_route
from repro.protocols.intersession import plan_intersession_pairs
from repro.protocols.more import plan_more
from repro.routing.node_selection import NodeSelectionError
from repro.topology.graph import WirelessNetwork
from repro.topology.phy import lossy_phy
from repro.topology.random_network import random_network
from repro.util.rng import RngFactory

SHAPE_SEED = 2008


@dataclass(frozen=True)
class Shapes:
    """Sizes of every workload; ``smoke`` shrinks them for the self-tests."""

    mesh_nodes: int = 120
    campaign_sessions: int = 8
    campaign_min_hops: int = 4
    campaign_seconds: float = 200.0
    campaign_generations: int = 6
    line_nodes: int = 2048
    line_slots: int = 1200
    line_warmup_slots: int = 60
    blocks: int = 40
    block_size: int = 1024
    exact_hops: int = 4
    exact_seconds: float = 200.0
    exact_warmup_seconds: float = 20.0
    codec_generations: int = 128
    codec_batch: int = 8
    codec_erasure: float = 0.2
    adaptive_pairs: int = 10
    adaptive_hops: int = 5
    adaptive_seconds: float = 120.0
    adaptive_epoch_seconds: float = 10.0


FULL = Shapes()
SMOKE = Shapes(
    mesh_nodes=40,
    campaign_sessions=2,
    campaign_min_hops=2,
    campaign_seconds=20.0,
    campaign_generations=1,
    line_nodes=96,
    line_slots=40,
    line_warmup_slots=5,
    blocks=8,
    block_size=64,
    exact_hops=2,
    exact_seconds=3.0,
    exact_warmup_seconds=1.0,
    codec_generations=4,
    adaptive_pairs=2,
    adaptive_hops=2,
    adaptive_seconds=40.0,
)


def shapes(smoke: bool) -> Shapes:
    """The full shapes, or the self-test ones."""
    return SMOKE if smoke else FULL


def reference_mesh(nodes: int) -> WirelessNetwork:
    """The lossy random deployment every mesh workload shares.

    Same derivation as ``experiments.common.build_network`` with
    ``seed=SHAPE_SEED``, so the campaign runs on this very mesh.
    """
    factory = RngFactory(SHAPE_SEED)
    return random_network(
        nodes,
        phy=lossy_phy(rng=factory.derive("phy")),
        rng=factory.derive("topology"),
    )


def line_network(nodes: int) -> WirelessNetwork:
    """A relay line: unit spacing, 0.8 links both ways, range 1.2."""
    positions = np.array([[float(i), 0.0] for i in range(nodes)])
    probabilities = {}
    for i in range(nodes - 1):
        probabilities[(i, i + 1)] = 0.8
        probabilities[(i + 1, i)] = 0.8
    return WirelessNetwork(
        positions, probabilities, communication_range=1.2, capacity=2e4
    )


def _candidate_pairs(network: WirelessNetwork, stream: str, limit: int = 20000):
    """A shape-seeded stream of ``limit`` distinct (source, destination)."""
    rng = RngFactory(SHAPE_SEED).derive(stream)
    for _ in range(limit):
        source, destination = rng.choice(network.node_count, 2, replace=False)
        yield int(source), int(destination)


def pick_pairs(
    network: WirelessNetwork, count: int, hops: int
) -> List[Tuple[int, int]]:
    """``count`` coded-plannable pairs whose ETX route has ``hops`` hops.

    Fixing the hop count keeps the per-pair work comparable; pairs may
    share nodes (each runs as its own session).
    """
    pairs: List[Tuple[int, int]] = []
    for source, destination in _candidate_pairs(network, "bench-pairs"):
        try:
            if plan_etx_route(network, source, destination).hop_count != hops:
                continue
            plan_more(network, source, destination)
        except NodeSelectionError:
            continue
        pairs.append((source, destination))
        if len(pairs) == count:
            return pairs
    raise RuntimeError(f"no {count} plannable {hops}-hop pairs on this mesh")


def pick_opposing_endpoints(
    network: WirelessNetwork, pairs: int, hops: int
) -> Dict[int, Tuple[int, int]]:
    """Session id -> endpoints for ``pairs`` bidirectional exchanges.

    Sessions ``2k+1`` and ``2k+2`` run the same endpoints in opposite
    directions, and every chosen exchange has a relay where the two
    directions can be XORed (``plan_intersession_pairs`` on the MORE
    plans), so the inter-session path is exercised.  Exchanges are
    node-disjoint.
    """
    endpoints: Dict[int, Tuple[int, int]] = {}
    used: set = set()
    for source, destination in _candidate_pairs(network, "bench-opposing"):
        if source in used or destination in used:
            continue
        try:
            if plan_etx_route(network, source, destination).hop_count != hops:
                continue
            forward = plan_more(network, source, destination)
            reverse = plan_more(network, destination, source)
        except NodeSelectionError:
            continue
        if not plan_intersession_pairs({1: forward, 2: reverse}):
            continue
        used.update((source, destination))
        first = len(endpoints) + 1
        endpoints[first] = (source, destination)
        endpoints[first + 1] = (destination, source)
        if len(endpoints) == 2 * pairs:
            return endpoints
    raise RuntimeError(f"no {pairs} XOR-eligible {hops}-hop exchanges on this mesh")


def payload_generations(seed: int, count: int, blocks: int, block_size: int) -> np.ndarray:
    """``count`` generations of random payload bytes, ``(count, n, m)``."""
    rng = RngFactory(seed).derive("bench-payload")
    return rng.integers(0, 256, size=(count, blocks, block_size), dtype=np.uint8)
