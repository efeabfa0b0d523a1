"""Session plans: the contract between control planes and the emulator.

A *plan* is the static, per-session output of a protocol's control plane
(node selection + whatever rate/credit computation it performs).  The
emulator executes plans, so the emulator *owns* the plan types — the
protocol planners (:mod:`repro.protocols`, one layer above) produce
instances of an interface defined by the layer that consumes them.
This inversion keeps the package graph acyclic: before it, the data
plane imported :mod:`repro.protocols.base` while the protocols imported
the emulator's node runtimes (the ``emulator ⇄ protocols`` cycle
flagged by ``repro check`` RPR101).  :mod:`repro.protocols` re-exports
the plan names for planner-side callers.

The emulator knows three node behaviours (each plan type's ``kind``):

* **rate-driven coded broadcast** (OMNC): node i re-encodes and
  broadcasts at the allocated rate b_i.
* **credit-driven coded broadcast** (MORE / oldMORE): node i gains
  ``tx_credit`` transmission credits per packet heard from upstream and
  broadcasts while it has credit; the source transmits continuously at
  the offered load.
* **best-path unicast forwarding** (ETX routing): store-and-forward along
  one path with per-hop MAC retransmissions.

Keeping the plan/behaviour split mirrors the paper's architecture: the
optimization (or heuristic) runs once per session, then the data plane
simply follows it.  How it follows is the plan's own answer:
``node_settings(network, cbr)`` lists, per node the plan wants in the
session, the ``apply_plan`` keyword arguments that make a runtime
behave as planned (``cbr`` is the offered load in bytes/second).  One
installer, :func:`repro.emulator.node.install_runtimes`, builds missing
runtimes from those settings and retunes live ones with them, so a
fresh build and a mid-run hot-swap are the same operation
(:meth:`repro.emulator.shard.ShardedSession.install_plan`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, FrozenSet, Literal, Tuple

from repro.coding.generation import GenerationParams
from repro.routing.node_selection import ForwarderSet
from repro.topology.graph import WirelessNetwork

#: Ordered ``{node: apply_plan keyword arguments}`` — the shape plan
#: installs and ``apply_plan_updates`` hand to the engine.
NodeSettings = Dict[int, Dict[str, Any]]


@dataclass(frozen=True)
class CodingParams:
    """A per-session (or per-epoch) coding decision carried by plans.

    Attributes:
        blocks: generation size n the session should use from the next
            generation boundary onward.
        systematic: emit each generation's blocks plainly first, with
            dense RLNC repair packets after (decode-cost optimization;
            delivered payloads are byte-identical either way).

    The dataclass is deliberately tiny and picklable.
    """

    blocks: int
    systematic: bool = False

    def __post_init__(self) -> None:
        # Reuse the canonical generation-size validation (positive int,
        # GF(2^8) coefficient-header limit of 255).
        GenerationParams(blocks=self.blocks, block_size=1)
        if not isinstance(self.systematic, bool):
            raise TypeError(
                f"systematic must be bool, got {type(self.systematic).__name__}"
            )


@dataclass(frozen=True)
class _ForwarderPlan:
    """What both coded-broadcast plans share: the selected forwarder DAG."""

    forwarders: ForwarderSet

    @property
    def source(self) -> int:
        """The session's source node."""
        return self.forwarders.source

    @property
    def destination(self) -> int:
        """The session's destination node."""
        return self.forwarders.destination


@dataclass(frozen=True)
class CodedBroadcastPlan(_ForwarderPlan):
    """Plan for rate-driven network coding (OMNC).

    Attributes:
        forwarders: the node-selection result (defines the session DAG).
        rates: broadcast rate per node in **bytes/second** (already
            rescaled into the MAC-feasible region).
        predicted_throughput: the optimization's gamma in bytes/second —
            the paper compares emulated against predicted throughput.
        iterations: rate-control iterations spent (0 if planned via the
            centralized LP).
        coding: optional coding decision for the session; ``None`` keeps
            the session config's generation size.  Carried on the plan so
            a control plane can size generations per epoch and the data
            plane can honor the switch at a generation boundary.
    """

    kind: ClassVar[Literal["rate"]] = "rate"

    rates: Dict[int, float]
    predicted_throughput: float
    iterations: int = 0
    coding: "CodingParams | None" = None

    def __post_init__(self) -> None:
        for node, rate in self.rates.items():
            if node not in self.forwarders.nodes:
                raise ValueError(f"rate assigned to unselected node {node}")
            if rate < 0:
                raise ValueError(f"negative rate for node {node}: {rate}")

    def active_nodes(self, threshold: float = 1e-9) -> FrozenSet[int]:
        """Nodes with a positive broadcast rate (plus the destination)."""
        active = {n for n, r in self.rates.items() if r > threshold}
        active.add(self.forwarders.destination)
        return frozenset(active)

    def node_settings(self, network: WirelessNetwork, cbr: float) -> NodeSettings:
        """Rate-driven source (capped at the offered load) and relays."""
        settings: NodeSettings = {}
        for node in self.forwarders.nodes:
            rate = self.rates.get(node, 0.0)
            if node == self.source:
                settings[node] = {"rate_bps": min(rate, cbr)}
            elif node != self.destination and rate > 0.0:
                settings[node] = {"mode": "rate", "rate_bps": rate}
            # else: unallocated forwarders stay silent listeners
        settings[self.destination] = {}
        return settings


@dataclass(frozen=True)
class CreditBroadcastPlan(_ForwarderPlan):
    """Plan for credit-driven network coding (MORE and oldMORE).

    Attributes:
        forwarders: the node-selection result.
        tx_credits: transmission credit gained per upstream packet heard,
            per node.  The source is not credit-driven (it streams at the
            offered load) and has no entry.
        expected_transmissions: the z_i vector (per delivered source
            packet) that produced the credits — kept for analysis.
    """

    kind: ClassVar[Literal["credit"]] = "credit"

    tx_credits: Dict[int, float]
    expected_transmissions: Dict[int, float]

    def __post_init__(self) -> None:
        for node, credit in self.tx_credits.items():
            if node not in self.forwarders.nodes:
                raise ValueError(f"credit assigned to unselected node {node}")
            if credit < 0:
                raise ValueError(f"negative credit for node {node}: {credit}")

    def active_nodes(self, threshold: float = 1e-9) -> FrozenSet[int]:
        """Nodes that may transmit: positive credit, plus source/dest."""
        active = {n for n, c in self.tx_credits.items() if c > threshold}
        active.add(self.forwarders.source)
        active.add(self.forwarders.destination)
        return frozenset(active)

    def node_settings(self, network: WirelessNetwork, cbr: float) -> NodeSettings:
        """CBR source; relays earn credit per packet heard from upstream."""
        nodes = self.forwarders.nodes
        distance = self.forwarders.etx_distance
        settings: NodeSettings = {self.source: {"rate_bps": cbr}}
        for node in nodes:
            credit = self.tx_credits.get(node, 0.0)
            if node in (self.source, self.destination) or credit <= 0.0:
                continue  # endpoints are set outside the loop; pruned forwarders drop out
            settings[node] = {
                "mode": "credit",
                "tx_credit": credit,
                "upstream": tuple(i for i in nodes if distance[i] > distance[node]),
            }
        settings[self.destination] = {}
        return settings


@dataclass(frozen=True)
class UnicastPathPlan:
    """Plan for best-path store-and-forward routing (ETX).

    Attributes:
        path: the node sequence source..destination.
        path_etx: total expected transmission count of the path.
    """

    kind: ClassVar[Literal["unicast"]] = "unicast"

    path: Tuple[int, ...]
    path_etx: float

    def __post_init__(self) -> None:
        if len(self.path) < 2:
            raise ValueError("path needs at least source and destination")
        if len(set(self.path)) != len(self.path):
            raise ValueError(f"path revisits a node: {self.path}")
        if self.path_etx < len(self.path) - 1:
            raise ValueError(
                f"path ETX {self.path_etx} below hop count {len(self.path) - 1}"
            )

    @property
    def source(self) -> int:
        """First node of the path."""
        return self.path[0]

    @property
    def destination(self) -> int:
        """Last node of the path."""
        return self.path[-1]

    @property
    def hop_count(self) -> int:
        """Number of links on the path."""
        return len(self.path) - 1

    def node_settings(self, network: WirelessNetwork, cbr: float) -> NodeSettings:
        """Store-and-forward along the path; only the source offers load."""
        settings: NodeSettings = {}
        for node, next_hop in zip(self.path, self.path[1:] + (None,)):
            # Airtime demand: the offered load inflated by the hop's
            # expected retransmission count (MAC retries on a lossy link).
            demand = 0.0
            if next_hop is not None:
                demand = cbr / max(network.probability(node, next_hop), 1e-3)
            settings[node] = {
                "next_hop": next_hop,
                "rate_bps": cbr if node == self.source else 0.0,
                "demand_hint_bps": demand,
            }
        return settings


#: Any plan a session driver can execute (see
#: :func:`repro.emulator.node.install_runtimes`).
SessionPlan = CodedBroadcastPlan | CreditBroadcastPlan | UnicastPathPlan
