"""Protocol control planes: OMNC and its three comparison baselines.

* :mod:`repro.protocols.omnc` — node selection + distributed rate
  control (the paper's contribution).
* :mod:`repro.protocols.more` — the MORE heuristic (ETX-ordered expected
  transmissions, TX credits, no rate control).
* :mod:`repro.protocols.oldmore` — the preliminary MORE: credits from
  the Lun et al. min-cost formulation (prunes low-quality paths, no rate
  control).
* :mod:`repro.protocols.etx_routing` — single best-path routing under
  the ETX metric (the throughput-gain denominator).
* :mod:`repro.protocols.intersession` — COPE-style inter-session XOR
  pairing at shared relays for multi-session runs.
* :mod:`repro.emulator.plan` — the plan dataclasses the emulator runs.
"""

from repro.emulator.plan import (
    CodedBroadcastPlan,
    CreditBroadcastPlan,
    SessionPlan,
    UnicastPathPlan,
)
from repro.protocols.etx_routing import plan_etx_route, predicted_etx_throughput
from repro.protocols.intersession import (
    plan_intersession_pairs,
    relay_transmit_budget,
)
from repro.protocols.more import (
    compute_expected_transmissions,
    compute_tx_credits,
    effective_forwarders,
    plan_more,
    total_expected_transmissions,
)
from repro.protocols.oldmore import plan_oldmore
from repro.protocols.omnc import (
    OmncMultiReport,
    OmncPlanReport,
    plan_omnc,
    plan_omnc_detailed,
    plan_omnc_multi,
)

__all__ = [
    "CodedBroadcastPlan",
    "CreditBroadcastPlan",
    "OmncMultiReport",
    "OmncPlanReport",
    "SessionPlan",
    "UnicastPathPlan",
    "compute_expected_transmissions",
    "compute_tx_credits",
    "effective_forwarders",
    "plan_etx_route",
    "plan_intersession_pairs",
    "plan_more",
    "plan_oldmore",
    "plan_omnc",
    "plan_omnc_detailed",
    "plan_omnc_multi",
    "predicted_etx_throughput",
    "relay_transmit_budget",
    "total_expected_transmissions",
]
