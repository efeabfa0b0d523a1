"""Adaptive controllers: each protocol as a re-planning agent.

The static protocol modules expose one-shot planners (topology in, plan
out).  The live control plane instead needs a stateful *controller* it
can call repeatedly as the topology drifts:

* **OMNC** re-runs node selection and distributed rate control,
  warm-started from the previous run's dual prices
  (:class:`~repro.optimization.rate_control.RateControlDuals`) so
  re-convergence takes far fewer subgradient iterations than a cold
  start — the paper's Sec. 4 overhead argument, made quantitative;
* **MORE / oldMORE** recompute their heuristic TX credits (stateless,
  but still paying the node-selection flood);
* **ETX** re-routes over the drifted qualities.

Every controller also prices one re-initiation in channel-seconds
(:meth:`AdaptivePlanner.control_cost_seconds`), which the runner charges
against the data plane as stalled airtime.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.coding.finite_length import DEFAULT_CANDIDATES, optimal_blocks
from repro.coding.generation import DEFAULT_BLOCK_SIZE
from repro.emulator.plan import (
    CodedBroadcastPlan,
    CodingParams,
    CreditBroadcastPlan,
    SessionPlan,
    UnicastPathPlan,
)
from repro.optimization.problem import SessionGraph
from repro.optimization.rate_control import RateControlConfig, RateControlDuals
from repro.protocols.etx_routing import plan_etx_route
from repro.protocols.more import plan_more
from repro.protocols.oldmore import plan_oldmore
from repro.protocols.omnc import plan_omnc_detailed
from repro.optimization.replanning import replan_cost, selection_flood
from repro.topology.graph import WirelessNetwork

DEFAULT_CONTROL_PACKET_BYTES = 64


class AdaptivePlanner:
    """Base controller: plan, re-plan, and price a re-initiation."""

    label = "base"

    def __init__(self, source: int, destination: int) -> None:
        if source == destination:
            raise ValueError("source and destination must differ")
        self._source = source
        self._destination = destination
        self._iterations: List[int] = []

    @property
    def source(self) -> int:
        """Session source."""
        return self._source

    @property
    def destination(self) -> int:
        """Session destination."""
        return self._destination

    @property
    def iterations_history(self) -> Tuple[int, ...]:
        """Rate-control iterations of every plan produced so far (0 for
        protocols without iterative rate control) — the warm-start
        evidence trail."""
        return tuple(self._iterations)

    def plan(self, network: WirelessNetwork) -> SessionPlan:
        """Produce a plan for the current topology (warm where supported)."""
        raise NotImplementedError

    def control_cost_seconds(self, network: WirelessNetwork) -> float:
        """Channel-seconds one re-initiation occupies on this topology."""
        raise NotImplementedError

    def _flood_seconds(self, network: WirelessNetwork) -> float:
        """Airtime of the node-selection pseudo-broadcast flood."""
        flood = selection_flood(network, self._source)
        return (
            flood.total_transmissions
            * DEFAULT_CONTROL_PACKET_BYTES
            / network.capacity
        )


class AdaptiveOmncPlanner(AdaptivePlanner):
    """OMNC with dual-price carry-over between re-plans."""

    label = "omnc"

    def __init__(
        self,
        source: int,
        destination: int,
        *,
        config: RateControlConfig | None = None,
    ) -> None:
        super().__init__(source, destination)
        self._config = config
        self._duals: RateControlDuals | None = None
        # The last planned topology and the session graph selected on it;
        # pricing a re-initiation on that same object reuses the graph.
        self._planned: Tuple[WirelessNetwork, SessionGraph] | None = None

    @property
    def duals(self) -> RateControlDuals | None:
        """Dual prices of the latest plan (the warm-start state)."""
        return self._duals

    def plan(self, network: WirelessNetwork) -> CodedBroadcastPlan:
        report = plan_omnc_detailed(
            network,
            self._source,
            self._destination,
            config=self._config,
            warm_start=self._duals,
        )
        self._duals = report.duals
        self._planned = (network, report.graph)
        self._iterations.append(report.plan.iterations)
        return report.plan

    def control_cost_seconds(self, network: WirelessNetwork) -> float:
        # Full Sec. 4 re-initiation: flood + rate-control message census,
        # measured by actually running both on the new topology.
        graph = None
        if self._planned is not None and self._planned[0] is network:
            graph = self._planned[1]
        return replan_cost(
            network,
            self._source,
            self._destination,
            control_packet_bytes=DEFAULT_CONTROL_PACKET_BYTES,
            config=self._config,
            graph=graph,
        ).channel_seconds


class AdaptiveMorePlanner(AdaptivePlanner):
    """MORE: recompute heuristic credits; overhead is the flood only."""

    label = "more"

    def plan(self, network: WirelessNetwork) -> CreditBroadcastPlan:
        self._iterations.append(0)
        return plan_more(network, self._source, self._destination)

    def control_cost_seconds(self, network: WirelessNetwork) -> float:
        return self._flood_seconds(network)


class AdaptiveOldMorePlanner(AdaptivePlanner):
    """oldMORE: like MORE but with the min-cost credit computation."""

    label = "oldmore"

    def plan(self, network: WirelessNetwork) -> CreditBroadcastPlan:
        self._iterations.append(0)
        return plan_oldmore(network, self._source, self._destination)

    def control_cost_seconds(self, network: WirelessNetwork) -> float:
        return self._flood_seconds(network)


class AdaptiveEtxPlanner(AdaptivePlanner):
    """ETX: re-route; overhead is the link-state dissemination flood."""

    label = "etx"

    def plan(self, network: WirelessNetwork) -> UnicastPathPlan:
        self._iterations.append(0)
        return plan_etx_route(network, self._source, self._destination)

    def control_cost_seconds(self, network: WirelessNetwork) -> float:
        return self._flood_seconds(network)


class CodingController:
    """Per-epoch finite-length coding decisions for a live session.

    The adaptive planners above decide *who forwards at what rate*; this
    controller decides *how the session codes*: the generation size n
    and whether encoding is systematic.  Each epoch the runner hands it
    the drifted topology and the active plan; it estimates the session's
    loss rate from the link qualities among the plan's participants and
    (in ``"adaptive"`` mode) solves
    :func:`repro.coding.finite_length.optimal_blocks` for the n that
    minimizes expected per-block overhead within the decoding-delay
    budget.  Decisions ride the runtimes' ``apply_plan(coding=...)``
    path, so they take effect at the next generation boundary and never
    invalidate an in-flight decode.

    Modes:

    * ``"adaptive"`` — re-solve n from the observed qualities each
      epoch (dense encoding);
    * ``"systematic"`` — keep the configured n but emit each
      generation's blocks plainly first with dense repair after.
    """

    def __init__(
        self,
        mode: str,
        *,
        blocks: int,
        block_size: int = DEFAULT_BLOCK_SIZE,
        candidates: Tuple[int, ...] = DEFAULT_CANDIDATES,
    ) -> None:
        if mode not in ("adaptive", "systematic"):
            raise ValueError(
                f"mode must be 'adaptive' or 'systematic', got {mode!r}"
            )
        # Validate blocks/block_size through the canonical checks.
        CodingParams(blocks=blocks)
        self._mode = mode
        self._blocks = blocks
        self._block_size = block_size
        self._candidates = candidates
        self._history: List[CodingParams] = []

    @property
    def mode(self) -> str:
        """Controller mode (``"adaptive"`` or ``"systematic"``)."""
        return self._mode

    @property
    def history(self) -> Tuple[CodingParams, ...]:
        """Every decision produced so far, in order."""
        return tuple(self._history)

    @staticmethod
    def estimate_loss(network: WirelessNetwork, plan: SessionPlan) -> float:
        """Mean loss rate over the directed links among plan participants.

        The session only ever transmits on links whose both endpoints
        participate in the plan, so averaging (1 - p_ij) over that
        subgraph is the loss the finite-length model should see.  Falls
        back to 0 when the plan spans no internal links (degenerate
        single-hop layouts).
        """
        if isinstance(plan, UnicastPathPlan):
            participants = frozenset(plan.path)
        else:
            participants = plan.active_nodes()
        losses = [
            1.0 - prob
            for i, j, prob in network.links()
            if i in participants and j in participants
        ]
        if not losses:
            return 0.0
        return sum(losses) / len(losses)

    def decide(
        self, network: WirelessNetwork, plan: SessionPlan
    ) -> CodingParams | None:
        """Pick coding parameters for the current epoch (None = keep)."""
        if isinstance(plan, UnicastPathPlan):
            return None  # store-and-forward: nothing is coded
        if self._mode == "systematic":
            params = CodingParams(blocks=self._blocks, systematic=True)
        else:
            loss = self.estimate_loss(network, plan)
            blocks = optimal_blocks(
                loss,
                block_size=self._block_size,
                candidates=self._candidates,
            )
            params = CodingParams(blocks=blocks)
        self._history.append(params)
        return params


def make_coding_controller(
    coding: str,
    *,
    blocks: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> CodingController | None:
    """Coding-controller factory keyed by the CLI's ``--coding`` names.

    ``"static"`` — the paper's fixed generation size — needs no
    controller and maps to ``None``.
    """
    if coding == "static":
        return None
    return CodingController(coding, blocks=blocks, block_size=block_size)


def make_planner(
    protocol: str,
    source: int,
    destination: int,
    *,
    config: RateControlConfig | None = None,
) -> AdaptivePlanner:
    """Controller factory keyed by the CLI's protocol names."""
    if protocol == "omnc":
        return AdaptiveOmncPlanner(source, destination, config=config)
    if protocol == "more":
        return AdaptiveMorePlanner(source, destination)
    if protocol == "oldmore":
        return AdaptiveOldMorePlanner(source, destination)
    if protocol == "etx":
        return AdaptiveEtxPlanner(source, destination)
    raise ValueError(f"unknown protocol {protocol!r}")
