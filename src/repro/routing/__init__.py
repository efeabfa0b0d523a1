"""Routing substrate: shortest paths, node selection.

Every routing decision reads link qualities from the
:class:`~repro.topology.graph.WirelessNetwork` itself, with ETX weight
``1 / p_ij``; planning on other (e.g. measured) qualities means building
a network from them with ``network.with_links(...)``.

* :mod:`repro.routing.shortest_path` — ``etx_tree`` on the network's own
  adjacency, and ``dijkstra`` on a weight dict (the sUnicast LP's
  reachability check and min-cost routing).
* :mod:`repro.routing.node_selection` — forwarder selection producing the
  distance-decreasing DAG that carries all multipath traffic.
* :mod:`repro.routing.pseudo_broadcast` — the reliable neighborhood
  broadcast (Katti et al.) used by the node-selection flood.
"""

from repro.routing.node_selection import (
    ForwarderSet,
    NodeSelectionError,
    select_forwarders,
)
from repro.routing.pseudo_broadcast import (
    FloodResult,
    PseudoBroadcastCost,
    neighborhood_broadcast_cost,
    reliable_flood,
)
from repro.routing.shortest_path import (
    ShortestPathResult,
    dijkstra,
    etx_tree,
)

__all__ = [
    "FloodResult",
    "ForwarderSet",
    "NodeSelectionError",
    "PseudoBroadcastCost",
    "ShortestPathResult",
    "dijkstra",
    "etx_tree",
    "neighborhood_broadcast_cost",
    "reliable_flood",
    "select_forwarders",
]
