"""The lossy broadcast channel.

One transmission by node i is independently received by every in-range
node j with probability p_ij — the opportunistic-reception model OMNC is
built to exploit.  The scheduler has already ruled out collisions, so
loss draws are the only source of packet erasure.

Draws come from the channel's own generator, so channel randomness is
decoupled from coding/placement randomness (see
:class:`repro.util.RngFactory`).  This is the channel used on its own —
by tests, examples and the benchmark's channel probe.  The emulator's
slot loop applies the same model itself, drawing each transmission's
reception outcomes from the *transmitter's* stream
(:class:`repro.util.rng.NodeStreams`), so they do not depend on which
process hosts the transmitter or on who else transmits.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

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
        self, receiver_ids: Sequence[int], probabilities: Sequence[float]
    ) -> Tuple[int, ...]:
        """:meth:`broadcast` over candidates already filtered to p > 0.

        ``receiver_ids``/``probabilities`` are aligned sequences, such as
        a caller assembles once from precomputed per-transmitter receiver
        lists.  Consumes the RNG exactly like :meth:`broadcast` — one
        batched uniform draw per transmission, candidates in the same
        order — so both entry points produce identical loss patterns.
        """
        self._transmissions += 1
        if not receiver_ids:
            return ()
        draws = self._rng.random(len(receiver_ids))
        delivered = tuple(
            j
            for j, p, u in zip(receiver_ids, probabilities, draws.tolist())
            if u < p
        )
        self._deliveries += len(delivered)
        return delivered

    def unicast(self, transmitter: int, receiver: int) -> bool:
        """One unicast attempt; True on success.

        One uniform draw, and none when there is no usable link.
        """
        p = self._network.probability(transmitter, receiver)
        self._transmissions += 1
        if p <= 0.0:
            return False
        success = bool(self._rng.random() < p)
        if success:
            self._deliveries += 1
        return success
