"""Message census of the distributed rate control algorithm.

The paper's overhead discussion: "Beside the shortest path algorithm, the
only step that needs message passing is in equation (15) and (17), where
each node sends its rate and congestion price to its neighbors."
:class:`MessagePassingRateControl` is Table 1 (the loop of
:mod:`repro.optimization.rate_control`) with SUB1 computed the way a
deployment would and every message counted:

1. **SUB1** — a distance-vector (Bellman-Ford) exchange over the link
   costs lambda_ij + mu_i computes every node's cheapest route to the
   destination; the source then launches a flow-setup token that walks
   the shortest path, letting each on-path transmitter learn its x_ij.
   Every node-to-neighbor distance advertisement and every token hop
   counts as one message (:class:`DistanceVectorRouter`).
2. **SUB2** — every node broadcasts (b_i, beta_i) to its neighbors, and
   b_i once more so (15) sees this iteration's rates: two messages per
   node per iteration (a single local broadcast reaches all neighbors
   under the broadcast MAC), 2 |V| per iteration in closed form.
3. **lambda / mu update** — local at the transmitter: it knows b_i, p_ij
   and learns x_ij from the flow token.

The census is a cold run, and its allocation is the planner's up to
shortest-path tie-breaking and the distance-vector's summation order
(tests assert agreement of throughput and rates, not of paths).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.optimization.problem import SessionGraph
from repro.optimization.rate_control import RateControlAlgorithm, RateControlConfig
from repro.optimization.sub1_routing import DistanceVectorRouter, Sub1Router

__all__ = ["DistanceVectorRouter", "MessagePassingRateControl", "MessageStats"]


@dataclass
class MessageStats:
    """Counts of protocol messages exchanged, by purpose."""

    distance_advertisements: int = 0
    flow_setup_tokens: int = 0
    rate_price_broadcasts: int = 0

    @property
    def total(self) -> int:
        """All messages across purposes."""
        return (
            self.distance_advertisements
            + self.flow_setup_tokens
            + self.rate_price_broadcasts
        )


class MessagePassingRateControl(RateControlAlgorithm):
    """Table 1 on one session with :class:`DistanceVectorRouter` as SUB1,
    counting the messages it takes (:attr:`stats`).

    A measurement of the control plane, not a plan: it publishes no
    ``optimizer.*`` metrics of its own.
    """

    _census: DistanceVectorRouter
    _publishes_metrics = False

    def __init__(
        self,
        graph: SessionGraph,
        config: RateControlConfig | None = None,
    ) -> None:
        super().__init__(graph, config)

    def _sub1(self, graph: SessionGraph) -> Sub1Router:
        config = self._config
        self._census = DistanceVectorRouter(
            graph,
            gamma_cap=config.gamma_cap,
            primal_recovery=config.primal_recovery,
            recovery_tail=config.recovery_tail,
        )
        return self._census

    @property
    def stats(self) -> MessageStats:
        """Messages exchanged so far."""
        return MessageStats(
            distance_advertisements=self._census.distance_advertisements,
            flow_setup_tokens=self._census.flow_setup_tokens,
            rate_price_broadcasts=2 * len(self._graphs[0].nodes) * self._iteration,
        )
