"""Multiple-unicast extension of the OMNC framework.

The paper's conclusion notes the rate control framework "can be flexibly
extended to other scenarios such as the multiple-unicast case".  This
module carries that extension out:

* each session s keeps its own flow variables x^s, broadcast rates b^s
  and loss-coupling multipliers lambda^s — SUB1 runs per session,
  unchanged;
* sessions are coupled only through the broadcast MAC constraint, which
  now charges the *total* neighborhood load:

      sum_s ( b_i^s + sum_{j in N(i)} b_j^s ) <= C     for i not a source

* the objective becomes sum_s ln(gamma_s) — proportional fairness across
  sessions, the natural generalization of the single-session ln-utility.

The decomposition structure survives intact: one congestion price beta_i
per node prices the shared constraint, and each session's SUB2 update
simply charges its own rates with the shared prices.  The centralized
reference optimum, the one sUnicast LP over N sessions
(:func:`~repro.optimization.sunicast.solve_multi_sunicast`), maximizes the
*sum of throughputs* subject to the shared MAC constraint, providing an
upper envelope for tests; it is importable from here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.optimization.problem import SessionGraph
from repro.optimization.rate_control import RateControlConfig, RateControlLoop
from repro.optimization.sunicast import (
    MultiSunicastSolution,
    solve_multi_sunicast,
    solve_multi_sunicast_detailed,
)
from repro.topology.graph import Link

__all__ = [
    "MultiSessionRateControl",
    "MultiSessionResult",
    "MultiSunicastSolution",
    "solve_multi_sunicast",
    "solve_multi_sunicast_detailed",
]


@dataclass(frozen=True)
class MultiSessionResult:
    """Joint allocation for several coexisting unicast sessions.

    Attributes:
        throughputs: recovered gamma_bar per session (normalized).
        broadcast_rates: recovered b_bar per session, keyed by node.
        flows: recovered x_bar per session, keyed by link.
        iterations: outer iterations executed.
        converged: whether the stopping rule fired.
    """

    throughputs: Tuple[float, ...]
    broadcast_rates: Tuple[Dict[int, float], ...]
    flows: Tuple[Dict[Link, float], ...]
    iterations: int
    converged: bool

    @property
    def total_throughput(self) -> float:
        """Sum of session throughputs (normalized)."""
        return float(sum(self.throughputs))


class MultiSessionRateControl(RateControlLoop):
    """Jointly allocate rates to several sessions on one network:
    :class:`~repro.optimization.rate_control.RateControlLoop` over them.

    All session graphs must share the same capacity (they describe the
    same channel).  Node ids are global, so the shared congestion price
    beta_i is well defined across sessions.
    """

    def __init__(
        self,
        graphs: Sequence[SessionGraph],
        config: RateControlConfig | None = None,
    ) -> None:
        super().__init__(graphs, config)

    def run(self) -> MultiSessionResult:
        """Iterate to convergence of every session's recovered rates."""
        results = self.solve()
        return MultiSessionResult(
            throughputs=tuple(r.throughput for r in results),
            broadcast_rates=tuple(r.broadcast_rates for r in results),
            flows=tuple(r.flows for r in results),
            iterations=self._iteration,
            converged=results[0].converged,
        )
