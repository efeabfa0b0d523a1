"""Inter-session XOR relaying (COPE-style) for multi-session runs.

When two unicast sessions cross at a shared relay in opposite
directions — the canonical "Alice and Bob" exchange of COPE (Katti et
al.) and its coded-unicast successors — the relay can XOR one packet
from each session and broadcast the combination once instead of
forwarding twice.  Each next hop peels the combination using the
packet it natively knows (the one it originated), so two deliveries
cost one slot of airtime.

The split of responsibilities mirrors the rest of the repo:

* the **data plane** lives in :mod:`repro.emulator.multisession`
  (:class:`~repro.emulator.multisession.InterSessionXorRelay` pops one
  packet per paired session and emits an
  :class:`~repro.emulator.node.XorPacket`; the composite receiver
  peels a component iff it hosts every other component session's
  source runtime);
* the **control plane** here decides *where* XOR pairing is sound:
  :func:`plan_intersession_pairs` inspects the per-session plans and
  emits, per relay, the session pairs whose XORed broadcasts its next
  hops can provably peel.

Pairing rule — sessions ``s`` and ``t`` pair at relay ``r`` iff:

1. ``r`` is an intermediate forwarder with positive transmit budget
   (broadcast rate or TX credit) in *both* plans;
2. ``t``'s source is downstream of ``r`` in ``s``'s DAG and ``s``'s
   source is downstream of ``r`` in ``t``'s DAG.

Condition 2 is exactly the data plane's peel rule projected onto the
plans: the nodes that need ``s``'s packets from ``r`` include ``t``'s
origin (which natively knows ``t``'s component) and vice versa, so
neither broadcast direction wastes the combination.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from repro.emulator.node import InterSessionXorRelay, XorPacket
from repro.emulator.plan import (
    CodedBroadcastPlan,
    CreditBroadcastPlan,
    SessionPlan,
)
from repro.routing.node_selection import ForwarderSet

__all__ = [
    "InterSessionXorRelay",
    "XorPacket",
    "plan_intersession_pairs",
    "relay_transmit_budget",
]

_BUDGET_EPSILON = 1e-9


def relay_transmit_budget(plan: SessionPlan, node: int) -> float:
    """The plan's transmit allowance at ``node``.

    Broadcast rate in bytes/second for rate plans, TX credit for credit
    plans.  Zero means the node never transmits for this session (it
    may still be in the selected set as a pruned forwarder).
    """
    if isinstance(plan, CodedBroadcastPlan):
        return plan.rates.get(node, 0.0)
    if isinstance(plan, CreditBroadcastPlan):
        return plan.tx_credits.get(node, 0.0)
    raise TypeError(
        f"inter-session XOR needs coded broadcast plans, got "
        f"{type(plan).__name__}"
    )


def _forwarders(plan: SessionPlan) -> ForwarderSet:
    if isinstance(plan, (CodedBroadcastPlan, CreditBroadcastPlan)):
        return plan.forwarders
    raise TypeError(
        f"inter-session XOR needs coded broadcast plans, got "
        f"{type(plan).__name__}"
    )


def _pairs_at_relay(
    node: int,
    session_ids: List[int],
    plans: Mapping[int, SessionPlan],
) -> Tuple[Tuple[int, int], ...]:
    eligible: List[Tuple[int, int]] = []
    for index, sid_a in enumerate(session_ids):
        for sid_b in session_ids[index + 1 :]:
            dag_a = _forwarders(plans[sid_a])
            dag_b = _forwarders(plans[sid_b])
            if dag_b.source not in dag_a.downstream(node):
                continue
            if dag_a.source not in dag_b.downstream(node):
                continue
            eligible.append((sid_a, sid_b))
    return tuple(eligible)


def plan_intersession_pairs(
    plans: Mapping[int, SessionPlan],
) -> Dict[int, Tuple[Tuple[int, int], ...]]:
    """XOR-eligible session pairs per shared relay.

    Args:
        plans: session id -> coded plan, as passed to
            :func:`repro.emulator.multisession.run_multi_session`.

    Returns:
        relay node -> sorted tuple of (session, session) pairs, ready
        for ``run_multi_session``'s ``xor_pairs`` argument.  Relays
        with no eligible pair are omitted, so an empty dict means the
        workload has no coding opportunity and the runner falls back to
        plain per-session RLNC everywhere.
    """
    transmitters: Dict[int, List[int]] = {}
    for sid in sorted(plans):
        plan = plans[sid]
        forwarders = _forwarders(plan)
        for node in sorted(forwarders.nodes):
            if node in (forwarders.source, forwarders.destination):
                continue
            if relay_transmit_budget(plan, node) <= _BUDGET_EPSILON:
                continue
            transmitters.setdefault(node, []).append(sid)

    pairs: Dict[int, Tuple[Tuple[int, int], ...]] = {}
    for node in sorted(transmitters):
        session_ids = transmitters[node]
        if len(session_ids) < 2:
            continue
        eligible = _pairs_at_relay(node, session_ids, plans)
        if eligible:
            pairs[node] = eligible
    return pairs
