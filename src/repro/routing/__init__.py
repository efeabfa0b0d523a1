"""Routing substrate: ETX metric, shortest paths, node selection.

* :mod:`repro.routing.etx` — the ETX metric and probe-based measurement.
* :mod:`repro.routing.shortest_path` — centralized Dijkstra (on a weight
  dict, or as ``etx_tree`` on the network's own adjacency).
* :mod:`repro.routing.node_selection` — forwarder selection producing the
  distance-decreasing DAG that carries all multipath traffic.
* :mod:`repro.routing.pseudo_broadcast` — the reliable neighborhood
  broadcast (Katti et al.) used by the node-selection flood.
"""

from repro.routing.etx import (
    LinkProbeEstimator,
    etx_weights,
    expected_probe_error,
    link_etx,
    path_etx,
)
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
    dijkstra_to_destination,
    etx_tree,
)

__all__ = [
    "FloodResult",
    "ForwarderSet",
    "LinkProbeEstimator",
    "NodeSelectionError",
    "PseudoBroadcastCost",
    "ShortestPathResult",
    "dijkstra",
    "dijkstra_to_destination",
    "etx_tree",
    "etx_weights",
    "expected_probe_error",
    "link_etx",
    "neighborhood_broadcast_cost",
    "path_etx",
    "reliable_flood",
    "select_forwarders",
]
