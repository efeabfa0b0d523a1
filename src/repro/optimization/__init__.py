"""The OMNC optimization framework (paper Sec. 3).

* :mod:`repro.optimization.problem` — the session graph abstraction.
* :mod:`repro.optimization.sunicast` — the sUnicast LP over N >= 1
  sessions, solved centrally (reference optimum), plus oldMORE's
  min-cost routing (a shortest path).
* :mod:`repro.optimization.subgradient` — step-size schedules.
* :mod:`repro.optimization.sub1_routing` — SUB1: shortest-path routing
  with ln-utility injection and primal recovery.
* :mod:`repro.optimization.rate_control` — the one Table 1 loop over
  N >= 1 sessions (SUB1 per session, the SUB2 proximal rate update with
  shared congestion prices, the multiplier updates) and its
  single-session face, the planner's driver.
* :mod:`repro.optimization.messages` — the same loop with a
  distance-vector SUB1 and a message census, proving it runs on one-hop
  exchanges only.
* :mod:`repro.optimization.multi_session` — the loop over several
  sessions (the multiple-unicast extension sketched in the paper's
  conclusion).
* :mod:`repro.optimization.replanning` — the Sec. 4 control-plane
  re-initiation cost model (flood + message census).
"""

from repro.optimization.multi_session import (
    MultiSessionRateControl,
    MultiSessionResult,
)
from repro.optimization.problem import (
    SessionGraph,
    session_graph_from_network,
    session_graph_from_selection,
)
from repro.optimization.rate_control import (
    RateControlAlgorithm,
    RateControlConfig,
    RateControlDuals,
    RateControlResult,
    feasible_scaling,
    multi_feasible_scaling,
)
from repro.optimization.replanning import ReplanCost, replan_cost
from repro.optimization.sub1_routing import Sub1Iterate, Sub1Router
from repro.optimization.subgradient import (
    ConstantStepSize,
    DiminishingStepSize,
    StepSizeSchedule,
    project_nonnegative,
)
from repro.optimization.sunicast import (
    InfeasibleSessionError,
    MultiSunicastSolution,
    SUnicastSolution,
    solve_min_cost_routing,
    solve_multi_sunicast,
    solve_multi_sunicast_detailed,
    solve_sunicast,
    verify_feasibility,
)

__all__ = [
    "ConstantStepSize",
    "DiminishingStepSize",
    "InfeasibleSessionError",
    "MultiSessionRateControl",
    "MultiSessionResult",
    "MultiSunicastSolution",
    "RateControlAlgorithm",
    "RateControlConfig",
    "RateControlDuals",
    "RateControlResult",
    "ReplanCost",
    "SUnicastSolution",
    "SessionGraph",
    "StepSizeSchedule",
    "Sub1Iterate",
    "Sub1Router",
    "feasible_scaling",
    "multi_feasible_scaling",
    "project_nonnegative",
    "replan_cost",
    "solve_multi_sunicast",
    "solve_multi_sunicast_detailed",
    "session_graph_from_network",
    "session_graph_from_selection",
    "solve_min_cost_routing",
    "solve_sunicast",
    "verify_feasibility",
]
