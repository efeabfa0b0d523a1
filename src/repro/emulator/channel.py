"""The lossy broadcast channel.

One transmission by node i is independently received by every in-range
node j with probability p_ij — the opportunistic-reception model OMNC is
built to exploit.  The scheduler has already ruled out collisions, so
loss draws are the only source of packet erasure.

Draws come from a dedicated generator so channel randomness is decoupled
from coding/placement randomness (see :class:`repro.util.RngFactory`).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.topology.graph import WirelessNetwork
from repro.util.rng import RngLike, as_rng


class LossyBroadcastChannel:
    """Draw per-receiver reception outcomes for broadcast transmissions."""

    def __init__(self, network: WirelessNetwork, *, rng: RngLike = None) -> None:
        self._network = network
        self._rng = as_rng(rng)
        self._transmissions = 0
        self._deliveries = 0

    @property
    def network(self) -> WirelessNetwork:
        """The topology reception draws are taken against."""
        return self._network

    def set_network(self, network: WirelessNetwork) -> None:
        """Swap the topology mid-run (link-quality drift, node failure).

        The RNG stream is untouched: the channel keeps drawing from the
        same generator, so a run whose qualities never actually change is
        bit-identical to one that never called this.
        """
        if network.node_count != self._network.node_count:
            raise ValueError(
                "replacement network must keep the node count "
                f"({self._network.node_count} != {network.node_count})"
            )
        self._network = network

    @property
    def transmissions(self) -> int:
        """Broadcast transmissions carried so far."""
        return self._transmissions

    @property
    def deliveries(self) -> int:
        """Successful (transmitter, receiver) deliveries so far."""
        return self._deliveries

    def broadcast(
        self, transmitter: int, receivers: Iterable[int]
    ) -> Tuple[int, ...]:
        """One broadcast: return the subset of ``receivers`` that heard it.

        Receivers without a link from the transmitter never receive.
        """
        candidates = [
            (j, self._network.probability(transmitter, j)) for j in receivers
        ]
        candidates = [(j, p) for j, p in candidates if p > 0.0]
        self._transmissions += 1
        if not candidates:
            return ()
        draws = self._rng.random(len(candidates))
        delivered = tuple(
            j for (j, p), u in zip(candidates, draws) if u < p
        )
        self._deliveries += len(delivered)
        return delivered

    def broadcast_prefiltered(
        self,
        receiver_ids: Sequence[int],
        probabilities: Sequence[float],
        *,
        rng: Optional[np.random.Generator] = None,
    ) -> Tuple[int, ...]:
        """:meth:`broadcast` over candidates already filtered to p > 0.

        ``receiver_ids``/``probabilities`` are aligned sequences the
        engine assembles from its precomputed per-transmitter receiver
        lists.  Consumes the RNG exactly like :meth:`broadcast` — one
        batched uniform draw per transmission, candidates in the same
        order — so both entry points produce identical loss patterns.

        ``rng`` overrides the channel's own stream for this one draw:
        the slot loop hands in the *transmitter's* stream, so loss draws
        are partition-independent (see
        :class:`repro.util.rng.NodeStreams`).  The channel's own stream
        serves a channel used on its own — the benchmark's channel probe
        times exactly that call — and no session driver consumes it.
        """
        generator = self._rng if rng is None else rng
        self._transmissions += 1
        if not receiver_ids:
            return ()
        draws = generator.random(len(receiver_ids))
        delivered = tuple(
            j
            for j, p, u in zip(receiver_ids, probabilities, draws.tolist())
            if u < p
        )
        self._deliveries += len(delivered)
        return delivered

    def unicast(
        self,
        transmitter: int,
        receiver: int,
        *,
        rng: Optional[np.random.Generator] = None,
    ) -> bool:
        """One unicast attempt; True on success.

        ``rng`` overrides the channel stream for this draw (the slot
        loop: the transmitter's stream), like
        :meth:`broadcast_prefiltered`.
        """
        generator = self._rng if rng is None else rng
        p = self._network.probability(transmitter, receiver)
        self._transmissions += 1
        if p <= 0.0:
            return False
        success = bool(generator.random() < p)
        if success:
            self._deliveries += 1
        return success
