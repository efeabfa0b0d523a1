"""The benchmark's reference mesh and a digest of a link table.

Shared by the literal oracles of the topology-update path
(``test_pseudo_broadcast``, ``test_dynamics``, ``test_scenario``) and of
the routing layer (``test_node_selection``, ``test_protocols``): they pin
values on the very deployment ``adaptive_replan`` re-plans on.
"""

import hashlib

from repro.topology.graph import WirelessNetwork
from repro.topology.phy import lossy_phy
from repro.topology.random_network import random_network
from repro.util.rng import RngFactory


# The endpoints the benchmark plans on the 120-node mesh: the ten
# ``adaptive_replan`` pairs, then both directions of the two
# ``exact_multisession`` exchanges.
PLANNED_PAIRS = (
    (93, 81), (98, 45), (114, 99), (13, 6), (50, 86),
    (21, 109), (118, 62), (92, 57), (92, 91), (67, 81),
    (78, 19), (19, 78), (88, 36), (36, 88),
)


def reference_mesh(nodes: int = 120) -> WirelessNetwork:
    """``nodes`` lossy nodes, as ``bench/inputs.py::reference_mesh`` builds them."""
    factory = RngFactory(2008)
    return random_network(
        nodes,
        phy=lossy_phy(rng=factory.derive("phy")),
        rng=factory.derive("topology"),
    )


def link_table_digest(network: WirelessNetwork) -> str:
    """SHA-256 over ``links()`` in iteration order, floats by ``repr``.

    Sensitive to link order (the drift draw order) and to the last bit
    of every probability.
    """
    digest = hashlib.sha256()
    for i, j, p in network.links():
        digest.update(f"{i},{j},{p!r};".encode())
    return digest.hexdigest()
