"""Node runtimes: the per-node data planes the emulator executes.

A coded session gives every node one of three *roles*, and each role's
behaviour is written once (paper Sec. 5):

* **source** — streams packets of the current generation at a target
  rate: the allocated b_S for OMNC, the offered load (CBR until ACK) for
  MORE/oldMORE.
* **relay** — holds what it has heard and re-broadcasts it.
  Transmission pressure comes either from an allocated rate (OMNC) or
  from TX credits earned per packet heard from upstream (MORE/oldMORE).
* **destination** — gathers the generation and fires a callback the
  instant it is complete (the ACK).

The two coding fidelities differ only in what a packet carries, so the
public classes are payload stores plugged into the shared roles:
``Coded*`` keep real GF(2^8) coding vectors (encoder, re-encoding
buffer, progressive Gauss-Jordan decoder), ``Flow*`` keep an information
level.  :class:`UnicastRuntime` is the classic store-and-forward FIFO
for ETX routing, with MAC-layer retransmissions handled by the engine.
:func:`install_runtimes` builds all seven from a plan's per-node
settings and retunes them with a later plan's, in whichever process
hosts them.

All coded runtimes run in coefficient-only mode: coding vectors are
simulated exactly (innovation, rank, decodability are all real), payload
bytes are not materialized — they would be multiplied by the same
coefficients and carry no additional information for the metrics.  The
examples demonstrate full-payload operation end-to-end.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Mapping, Sequence, Tuple, TypeAlias

import numpy as np

from repro.coding.decoder import ProgressiveDecoder
from repro.coding.encoder import RelayReEncoder, SourceEncoder
from repro.coding.generation import Generation
from repro.coding.packet import CodedPacket
from repro.emulator.plan import CodingParams, NodeSettings
from repro.util.rng import RngFactory

#: Anything a runtime can put on the air.  A session only ever wires
#: one fidelity's runtimes together, so the shared roles take packets as
#: ``Any`` and each payload store reads its own packet type.
Packet: TypeAlias = "CodedPacket | FlowPacket | XorPacket"

DEFAULT_QUEUE_LIMIT = 500

# Distinguishes "parameter not supplied" from an explicit None (which is
# meaningful for UnicastRuntime.apply_plan's next_hop).
_UNSET = object()


def _checked_rate(name: str, value: float) -> float:
    """``value``, once it is a finite rate >= 0; a ``ValueError`` naming
    ``name`` otherwise.  An infinite rate would bank infinite credit, and
    a NaN one would compare false everywhere and poison a lottery weight."""
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")
    return value


def _checked_hop(next_hop: object) -> int | None:
    """``next_hop``, once it is a node id or ``None`` (the sink)."""
    if next_hop is not None and (not isinstance(next_hop, int) or next_hop < 0):
        raise ValueError(f"next_hop must be a node id or None, got {next_hop!r}")
    return next_hop


class NodeRuntime:
    """Interface every emulated node implements."""

    #: A single-session destination's decoded blocks, each generation
    #: at the size it ran; 0 for every other runtime.
    blocks_decoded = 0
    #: The session a single-session runtime serves: its share of the
    #: engine's counters is filed under this id.
    session_id = 1

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id

    def apply_plan(self, **_params: object) -> None:
        """Hot-swap control-plane parameters without touching data state.

        The live control plane (see :mod:`repro.scenario`) calls this when
        a re-plan changes a node's allocation mid-run.  Buffers, decoder
        progress and generation counters persist — only rates / credits /
        routes move.  The base implementation ignores everything;
        rate-, credit- and path-driven runtimes override it with strict
        validation.
        """

    def on_slot(self, dt: float) -> None:
        """Advance local clocks/credits by one slot of ``dt`` seconds."""

    def dormant(self, dt: float) -> bool:
        """True only at an exact fixed point of the slot tick.

        The contract the slot loop's awake set relies on
        (:mod:`repro.emulator.awake`): when this returns True, every
        future ``on_slot(dt)`` leaves every field bit-identical, and
        ``backlog() == 0.0`` and ``queue_length() == 0``, until
        something *other than the tick* touches the runtime — a
        delivery, a generation advance, a plan swap, session churn.
        A pure predicate: it never changes state.  "Nearly idle" is not
        dormant; when in doubt return False (the base answer), which
        only costs the skipped shortcut.
        """
        return False

    def backlog(self) -> float:
        """Transmission pressure for the scheduler (0 = nothing to send)."""
        return 0.0

    def demand_rate(self, dt: float) -> float:
        """Intended transmission rate in packets per slot of ``dt`` s.

        The ideal MAC uses this as the scheduling weight so that grants
        realize (or proportionally rescale) each node's intended rate.
        """
        return 0.0

    def pop_transmission(self) -> Packet | None:
        """Dequeue the packet to transmit this slot (None if drained)."""
        return None

    def on_receive(self, packet: Packet, sender: int) -> None:
        """Handle a delivered packet."""

    def queue_length(self) -> int:
        """Current broadcast-queue occupancy (the Fig. 3 metric)."""
        return 0

    def advance_generation(self, generation_id: int) -> None:
        """React to the session moving to ``generation_id`` (ACK heard)."""

    def activate_session(self, session_id: int) -> None:
        """A session arrived (multi-session composites; no-op otherwise)."""

    def deactivate_session(self, session_id: int) -> None:
        """A session departed (multi-session composites; no-op otherwise)."""


class _SessionRuntime(NodeRuntime):
    """What every coded role shares: its session and generation clock.

    A ``coding`` decision handed to ``apply_plan`` is *deferred*: it
    takes effect at the next generation boundary, so the in-flight
    generation keeps its size and every in-progress decode stays valid.
    Every role's constructor ends in ``_reset()``: a new runtime is an
    empty one.
    """

    def __init__(self, node_id: int, session_id: int, blocks: int) -> None:
        super().__init__(node_id)
        self.session_id = session_id
        self._blocks = blocks
        self._generation_id = 0
        self._pending_coding: CodingParams | None = None

    def advance_generation(self, generation_id: int) -> None:
        if generation_id <= self._generation_id:
            return
        self._generation_id = generation_id
        pending = self._pending_coding
        if pending is not None:
            self._pending_coding = None
            self._adopt(pending)
        self._reset()

    def _adopt(self, coding: CodingParams) -> None:
        """Take up a deferred coding decision at a generation boundary."""
        self._blocks = coding.blocks

    def _reset(self) -> None:
        """Discard the finished generation's data (role and store state)."""


class _SenderRuntime(_SessionRuntime):
    """A role that transmits: credit clock, broadcast queue, counters.

    Whole credits turn into queued packets; the payload store says what
    a packet carries (``_emit``).
    """

    def __init__(
        self,
        node_id: int,
        session_id: int,
        blocks: int,
        packet_bytes: int,
        queue_limit: int,
    ) -> None:
        super().__init__(node_id, session_id, blocks)
        self._packet_bytes = packet_bytes
        self._queue_limit = queue_limit
        self._rate = 0.0
        self._credit = 0.0
        self._queue: Deque[Any] = deque()
        self.packets_generated = 0
        self.packets_sent = 0
        self.packets_dropped = 0

    def apply_plan(
        self,
        *,
        rate_bps: float | None = None,
        coding: CodingParams | None = None,
    ) -> None:
        """Hot-swap the allocated rate; queue, credit and payload persist."""
        if rate_bps is not None:
            self._rate = _checked_rate("rate_bps", rate_bps)
        if coding is not None:
            self._pending_coding = coding

    def _drain(self) -> int:
        """Queue one packet per whole banked credit; returns how many."""
        make = int(self._credit)
        self._credit -= make
        room = self._queue_limit - len(self._queue)
        if make > room:
            # A saturated queue sheds load instead of banking credit, so
            # a sender cannot burst-flush stale credit after an ACK.
            self.packets_dropped += make - room
            make = room
        if make > 0:
            self._emit(make)
            self.packets_generated += make
        return make

    def _emit(self, count: int) -> None:
        """Payload store: append ``count`` fresh packets to the queue."""
        raise NotImplementedError

    def _reset(self) -> None:
        self._queue.clear()

    def backlog(self) -> float:
        return float(len(self._queue))

    def demand_rate(self, dt: float) -> float:
        return self._rate * dt / self._packet_bytes

    def pop_transmission(self) -> Packet | None:
        if not self._queue:
            return None
        self.packets_sent += 1
        return self._queue.popleft()

    def queue_length(self) -> int:
        return len(self._queue)


class _SourceRuntime(_SenderRuntime):
    """The session source: generate packets at a target rate.

    Credit persists across generation boundaries: the source keeps its
    long-run rate.
    """

    def __init__(
        self,
        node_id: int,
        session_id: int,
        blocks: int,
        rate_bps: float,
        packet_bytes: int,
        *,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
    ) -> None:
        if packet_bytes <= 0:
            raise ValueError(f"packet_bytes must be > 0, got {packet_bytes}")
        super().__init__(node_id, session_id, blocks, packet_bytes, queue_limit)
        self.apply_plan(rate_bps=rate_bps)
        self._reset()

    def on_slot(self, dt: float) -> None:
        self._credit += self._rate * dt / self._packet_bytes
        if self._credit >= 1.0:
            self._drain()


class _RelayRuntime(_SenderRuntime):
    """An intermediate forwarder: hold what was heard, re-broadcast it.

    ``mode="rate"`` (OMNC): transmission credit accrues at the allocated
    broadcast rate.  ``mode="credit"`` (MORE/oldMORE): credit jumps by
    ``tx_credit`` whenever a packet arrives from an *upstream* node (one
    farther from the destination, per ``upstream`` set).
    """

    # Rate credit banked while the relay holds nothing is bounded so that
    # a late-starting relay cannot burst a flood of near-identical packets
    # from a low-rank buffer the moment content arrives.
    _CREDIT_CAP = 3.0

    # EWMA constant for the credit-mode demand estimate (packets/slot).
    _DEMAND_SMOOTHING = 0.02

    def __init__(
        self,
        node_id: int,
        session_id: int,
        blocks: int,
        packet_bytes: int,
        *,
        mode: str,
        rate_bps: float = 0.0,
        tx_credit: float = 0.0,
        upstream: Tuple[int, ...] = (),
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
    ) -> None:
        super().__init__(node_id, session_id, blocks, packet_bytes, queue_limit)
        self._demand_ewma = 0.2
        self._enqueued_this_slot = 0.0
        self.packets_heard = 0
        self.packets_accepted = 0
        self.apply_plan(
            mode=mode, rate_bps=rate_bps, tx_credit=tx_credit, upstream=upstream
        )
        self._reset()

    @property
    def buffered(self) -> int:
        """Units of the current generation held (the payload store's)."""
        raise NotImplementedError

    def apply_plan(
        self,
        *,
        mode: str | None = None,
        rate_bps: float | None = None,
        tx_credit: float | None = None,
        upstream: Tuple[int, ...] | None = None,
        coding: CodingParams | None = None,
    ) -> None:
        """Hot-swap rate/credit parameters; everything held persists.

        A re-plan may move the allocated rate (OMNC), the per-reception
        credit and upstream set (MORE/oldMORE), or even the drive mode.
        What the relay holds, the transmit queue and banked credit all
        survive — the whole point of a live swap is not to throw away
        decoder-feeding state the session already paid airtime for.  A
        ``coding`` decision is deferred to the next generation boundary,
        where the relay empties anyway.
        """
        if mode is not None:
            if mode not in ("rate", "credit"):
                raise ValueError(f"unknown relay mode {mode!r}")
            self._mode = mode
        if tx_credit is not None:
            if tx_credit < 0:
                raise ValueError(f"tx_credit must be >= 0, got {tx_credit}")
            self._tx_credit = tx_credit
        if upstream is not None:
            self._upstream = frozenset(upstream)
        super().apply_plan(rate_bps=rate_bps, coding=coding)

    def on_slot(self, dt: float) -> None:
        if self._mode == "rate":
            self._credit = credit = min(
                self._credit + self._rate * dt / self._packet_bytes,
                self._CREDIT_CAP,
            )
            # _drain_credit, inlined: the slot loop's hottest branch.
            if credit >= 1.0 and self.buffered:
                self._enqueued_this_slot += self._drain()
        else:
            self._drain_credit()
            # Demand estimate for the scheduler: smoothed enqueue rate.
            self._demand_ewma += self._DEMAND_SMOOTHING * (
                self._enqueued_this_slot - self._demand_ewma
            )
            self._enqueued_this_slot = 0.0

    def dormant(self, dt: float) -> bool:
        # Rate mode only: the credit-mode demand EWMA moves every slot.
        # Fixed point = nothing queued, credit pinned (at the cap, or
        # the rate adds nothing) and nothing for that credit to drain.
        if self._mode != "rate" or self._queue:
            return False
        credit = self._credit
        pinned = (
            min(credit + self._rate * dt / self._packet_bytes, self._CREDIT_CAP)
            == credit
        )
        return pinned and (credit < 1.0 or self.buffered == 0)

    def _drain_credit(self) -> None:
        if self._credit >= 1.0 and self.buffered:
            self._enqueued_this_slot += self._drain()

    def demand_rate(self, dt: float) -> float:
        if self._mode == "rate":
            return self._rate * dt / self._packet_bytes
        return self._demand_ewma

    def on_receive(self, packet: Any, sender: int) -> None:
        self.packets_heard += 1
        if packet.generation_id > self._generation_id:
            # A newer generation implicitly expires the old one (Sec. 4).
            self.advance_generation(packet.generation_id)
        if self._absorb(packet):
            self.packets_accepted += 1
        if self._mode == "credit" and sender in self._upstream:
            # MORE's counter increments per packet *heard* from upstream,
            # innovative or not — the heuristic reasons about receptions.
            self._credit += self._tx_credit
            self._drain_credit()

    def _absorb(self, packet: Any) -> bool:
        """Payload store: keep ``packet`` if it is innovative."""
        raise NotImplementedError

    def _reset(self) -> None:
        super()._reset()
        if self._mode == "credit":
            self._credit = 0.0


class _DestinationRuntime(_SessionRuntime):
    """The destination: gather the generation, signal the decoded ACK."""

    def __init__(
        self,
        node_id: int,
        session_id: int,
        blocks: int,
        on_decoded: Callable[[int], None],
    ) -> None:
        super().__init__(node_id, session_id, blocks)
        self._on_decoded = on_decoded
        self.packets_heard = 0
        self.innovative_received = 0
        self.generations_decoded = 0
        self.blocks_decoded = 0
        self._reset()

    def apply_plan(  # type: ignore[override]
        self, *, coding: CodingParams | None = None, **_params: object
    ) -> None:
        """Destinations carry no rate/credit state but do track the
        generation size: a ``coding`` decision re-sizes the decode target
        at the next boundary.  Everything else is ignored, as in the base."""
        if coding is not None:
            self._pending_coding = coding

    def dormant(self, dt: float) -> bool:
        # A destination has no clock, credit or queue: only deliveries
        # and generation advances move it.
        return True

    def on_receive(self, packet: Any, sender: int) -> None:
        if (
            packet.session_id != self.session_id
            or packet.generation_id != self._generation_id
        ):
            return  # another session's, or a stale or early generation's
        self.packets_heard += 1
        held = self._absorb(packet)
        if held:
            self.innovative_received += 1
            if held >= self._blocks:
                self.generations_decoded += 1
                self.blocks_decoded += self._blocks
                # The uncoded ACK travels back to the source; the session
                # driver models its (fast, reliable) best-path delivery.
                self._on_decoded(self._generation_id)

    def _absorb(self, packet: Any) -> float:
        """Payload store: take ``packet``; the amount now held if it was
        innovative, else 0 (always 0 once the generation is complete)."""
        raise NotImplementedError


def _recoded(coder: SourceEncoder | RelayReEncoder, count: int) -> List[CodedPacket]:
    # Single-packet drains (the CBR common case) keep the exact
    # per-packet RNG stream of the scalar encoder path.
    return [coder.next_packet()] if count == 1 else coder.next_packets(count)


class CodedSourceRuntime(_SourceRuntime):
    """Exact-fidelity source: fresh random combinations of the generation."""

    def __init__(
        self,
        node_id: int,
        session_id: int,
        blocks: int,
        rate_bps: float,
        packet_bytes: int,
        rng: np.random.Generator,
        *,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        systematic: bool = False,
    ) -> None:
        self._rng = rng
        self._systematic = systematic
        super().__init__(
            node_id, session_id, blocks, rate_bps, packet_bytes,
            queue_limit=queue_limit,
        )

    def _adopt(self, coding: CodingParams) -> None:
        super()._adopt(coding)
        self._systematic = coding.systematic

    def _reset(self) -> None:
        # Coefficient-only generations: a 1-byte-per-block stand-in matrix
        # keeps the SourceEncoder interface while payloads stay virtual.
        matrix = np.zeros((self._blocks, 1), dtype=np.uint8)
        self._encoder = SourceEncoder(
            self.session_id,
            Generation(self._generation_id, matrix),
            self._rng,
            payload=False,
            systematic=self._systematic,
        )
        super()._reset()

    def _emit(self, count: int) -> None:
        self._queue.extend(_recoded(self._encoder, count))


class CodedRelayRuntime(_RelayRuntime):
    """Exact-fidelity relay: buffer innovative packets, re-encode."""

    def __init__(
        self,
        node_id: int,
        session_id: int,
        blocks: int,
        packet_bytes: int,
        rng: np.random.Generator,
        *,
        mode: str,
        rate_bps: float = 0.0,
        tx_credit: float = 0.0,
        upstream: Tuple[int, ...] = (),
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
    ) -> None:
        self._rng = rng
        self._buffer = RelayReEncoder(session_id, blocks, rng)
        super().__init__(
            node_id, session_id, blocks, packet_bytes,
            mode=mode, rate_bps=rate_bps, tx_credit=tx_credit,
            upstream=upstream, queue_limit=queue_limit,
        )

    @property
    def buffered(self) -> int:
        """Innovative packets currently buffered."""
        return self._buffer.buffered

    def _adopt(self, coding: CodingParams) -> None:
        if coding.blocks != self._blocks:
            # The buffer's vector width is the generation size, so a
            # size switch rebuilds it (empty, at the new generation).
            # Stale-sized packets still in flight are dropped by the
            # re-encoder's accept(), not raised.
            self._buffer = RelayReEncoder(
                self.session_id,
                coding.blocks,
                self._rng,
                generation_id=self._generation_id,
            )
        super()._adopt(coding)

    def _reset(self) -> None:
        if self._buffer.generation_id < self._generation_id:
            self._buffer.advance(self._generation_id)
        super()._reset()

    def _emit(self, count: int) -> None:
        self._queue.extend(_recoded(self._buffer, count))

    def _absorb(self, packet: CodedPacket) -> bool:
        return self._buffer.accept(packet)


class CodedDestinationRuntime(_DestinationRuntime):
    """Exact-fidelity destination: progressive Gauss-Jordan decoding."""

    @property
    def rank(self) -> int:
        """Current decoder rank for the active generation."""
        return self._decoder.rank

    def on_receive(self, packet: CodedPacket, sender: int) -> None:
        # A stale-sized packet across an adaptive-n boundary is not heard.
        if packet.blocks == self._blocks:
            super().on_receive(packet, sender)

    def _reset(self) -> None:
        self._decoder = ProgressiveDecoder(self._blocks)

    def _absorb(self, packet: CodedPacket) -> int:
        decoder = self._decoder
        if decoder.is_complete or not decoder.add_packet(packet):
            return 0
        return decoder.rank


class FlowPacket:
    """A coded packet under information-flow fidelity.

    The paper's model treats packet streams through distinct relays as
    independent with high probability (Sec. 3.2) and counts information
    in units of innovative packets: "a dependent packet does not
    contribute to the information flow and is not counted in".  Under
    flow fidelity a packet carries its sender's information level; the
    receiver gains one unit iff the sender knew more than it does —
    the fluid limit of random linear coding under the paper's
    independence assumption.  Exact GF(2^8) fidelity (the ``Coded*``
    runtimes above) is kept for the ablation that quantifies what this
    assumption is worth.
    """

    __slots__ = ("session_id", "generation_id", "content")

    def __init__(self, session_id: int, generation_id: int, content: float) -> None:
        self.session_id = session_id
        self.generation_id = generation_id
        self.content = content

    def __repr__(self) -> str:
        return (
            f"FlowPacket(session={self.session_id}, gen={self.generation_id}, "
            f"content={self.content:.2f})"
        )


class FlowSourceRuntime(_SourceRuntime):
    """Flow-fidelity source: every packet carries full knowledge.

    Systematic mode has no flow-fidelity analogue — of a ``coding``
    decision only the generation size matters here.
    """

    def _emit(self, count: int) -> None:
        content = float(self._blocks)
        while count > 0:
            self._queue.append(
                FlowPacket(self.session_id, self._generation_id, content)
            )
            count -= 1


class FlowRelayRuntime(_RelayRuntime):
    """Flow-fidelity relay: information level instead of a subspace.

    The relay's state is a scalar ``information`` level in [0, blocks];
    a delivery from a sender whose packet carries more content raises it
    by one unit.  Outgoing packets carry the relay's current level.
    """

    @property
    def buffered(self) -> int:
        """Information units held (the flow analogue of buffer rank)."""
        return int(self.information)

    def _reset(self) -> None:
        self.information = 0.0
        super()._reset()

    def _emit(self, count: int) -> None:
        while count > 0:
            self._queue.append(
                FlowPacket(self.session_id, self._generation_id, self.information)
            )
            count -= 1

    def _absorb(self, packet: FlowPacket) -> bool:
        held = self.information
        if (
            packet.generation_id != self._generation_id
            or packet.content <= held
            or held >= self._blocks
        ):
            return False
        self.information = min(float(self._blocks), held + 1.0)
        return True


class FlowDestinationRuntime(_DestinationRuntime):
    """Flow-fidelity destination: ACKs once ``blocks`` units arrive."""

    @property
    def rank(self) -> int:
        """Information units gathered for the active generation."""
        return int(self.information)

    def _reset(self) -> None:
        self.information = 0.0

    def _absorb(self, packet: FlowPacket) -> float:
        if self.information >= self._blocks or packet.content <= self.information:
            return 0.0
        self.information += 1.0
        return self.information


class UnicastRuntime(NodeRuntime):
    """Store-and-forward FIFO node for ETX best-path routing.

    The source generates sequence-numbered packets at the offered load;
    relays forward toward ``next_hop``; the engine retries failed
    transmissions (MAC retransmissions), so the head packet stays queued
    until it crosses.
    """

    def __init__(
        self,
        node_id: int,
        next_hop: int | None,
        *,
        rate_bps: float = 0.0,
        packet_bytes: int = 1,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        on_delivered: Callable[[int], None] | None = None,
        demand_hint_bps: float = 0.0,
        session_id: int = 1,
    ) -> None:
        super().__init__(node_id)
        self.session_id = session_id
        if packet_bytes <= 0:
            raise ValueError(f"packet_bytes must be > 0, got {packet_bytes}")
        self._next_hop = _checked_hop(next_hop)
        self._rate = _checked_rate("rate_bps", rate_bps)
        self._packet_bytes = packet_bytes
        self._queue_limit = queue_limit
        self._on_delivered = on_delivered
        # Airtime the node needs to sustain the offered load across its
        # lossy next hop (arrival rate x expected retransmissions); the
        # session builder computes it from the path and link qualities.
        self._demand_hint = _checked_rate("demand_hint_bps", demand_hint_bps)
        self._credit = 0.0
        self._queue: Deque[int] = deque()  # sequence numbers
        self._next_seq = 0
        self.packets_generated = 0
        self.packets_sent = 0
        self.packets_delivered = 0
        self.packets_dropped = 0

    @property
    def next_hop(self) -> int | None:
        """Downstream node, or None at the destination."""
        return self._next_hop

    def apply_plan(
        self,
        *,
        next_hop: object = _UNSET,
        rate_bps: float | None = None,
        demand_hint_bps: float | None = None,
    ) -> None:
        """Hot-swap the route/rate; queued packets survive the re-route.

        ``next_hop`` uses a sentinel default because ``None`` is a
        meaningful value (the node becomes/stays the sink).
        """
        if next_hop is not _UNSET:
            self._next_hop = _checked_hop(next_hop)
        if rate_bps is not None:
            self._rate = _checked_rate("rate_bps", rate_bps)
        if demand_hint_bps is not None:
            self._demand_hint = _checked_rate("demand_hint_bps", demand_hint_bps)

    def on_slot(self, dt: float) -> None:
        if self._rate <= 0:
            return
        self._credit += self._rate * dt / self._packet_bytes
        while self._credit >= 1.0:
            self._credit -= 1.0
            if len(self._queue) >= self._queue_limit:
                self.packets_dropped += 1
                continue
            self._queue.append(self._next_seq)
            self._next_seq += 1
            self.packets_generated += 1

    def dormant(self, dt: float) -> bool:
        # Sinks and idle forwarders: no offered load and nothing queued.
        return self._rate <= 0 and not self._queue

    def backlog(self) -> float:
        if self._next_hop is None:
            return 0.0
        return float(len(self._queue))

    def demand_rate(self, dt: float) -> float:
        return self._demand_hint * dt / self._packet_bytes

    def peek_sequence(self) -> int | None:
        """Head-of-line packet (stays queued until the hop succeeds)."""
        if not self._queue or self._next_hop is None:
            return None
        return self._queue[0]

    def complete_transmission(self, success: bool) -> None:
        """Engine callback after a unicast attempt on the head packet."""
        if not self._queue:
            raise RuntimeError("no in-flight packet to complete")
        self.packets_sent += 1
        if success:
            self._queue.popleft()

    def receive_sequence(self, sequence: int) -> None:
        """A packet arrived from upstream."""
        if self._next_hop is None:
            self.packets_delivered += 1
            if self._on_delivered is not None:
                self._on_delivered(sequence)
            return
        if len(self._queue) >= self._queue_limit:
            self.packets_dropped += 1
            return
        self._queue.append(sequence)

    def queue_length(self) -> int:
        return len(self._queue)


@dataclass(frozen=True)
class RuntimeTerms:
    """What building a plan's runtimes takes besides each node's settings:
    the plan's shape and the session's packet terms (``fidelity`` is the
    session config's ``"flow"`` or ``"exact"``).  Plain data, so a
    re-plan builds the runtimes it adds in the process that hosts them.
    """

    kind: str
    source: int
    destination: int
    session_id: int
    blocks: int
    packet_bytes: int
    queue_limit: int
    fidelity: str
    systematic: bool


def install_runtimes(
    settings: NodeSettings,
    existing: Mapping[int, NodeRuntime],
    terms: RuntimeTerms,
    *,
    coding: RngFactory,
    on_decoded: Callable[[int], None] | None = None,
    on_delivered: Callable[[int], None] | None = None,
) -> Dict[int, NodeRuntime]:
    """Make ``existing`` runtimes what a plan's ``settings`` want each node to be.

    The one place a plan meets the data plane.  For every node in
    ``settings`` (a plan's ``node_settings``): a runtime already in
    ``existing`` is retuned in place with ``apply_plan(**settings)`` —
    its buffers, decoder rank, queue, credit and generation state
    survive; a missing one is built from the same settings and
    ``terms``.  Nodes ``settings`` does not list are absent from the
    result (a dropped forwarder's queued packets are lost, as a silenced
    real node's would be).  ``existing={}`` is a fresh build.

    Exact-fidelity senders draw coefficients from
    ``coding.derive("coding", node)``, a pure function of the seed and
    the node: the same draws wherever the runtime is built.  Coded plans
    wire new destinations to ``on_decoded``, unicast plans wire new
    nodes' delivery callback to ``on_delivered``.
    """
    exact = terms.fidelity == "exact"
    sid, blocks, size, limit = terms.session_id, terms.blocks, terms.packet_bytes, terms.queue_limit
    installed: Dict[int, NodeRuntime] = {}
    for node, params in settings.items():
        runtime = existing.get(node)
        if runtime is not None:
            runtime.apply_plan(**params)
        elif terms.kind == "unicast":
            runtime = UnicastRuntime(
                node, packet_bytes=size, queue_limit=limit, on_delivered=on_delivered,
                session_id=sid, **params,
            )
        elif node == terms.destination:
            decoded = on_decoded if on_decoded is not None else (lambda _gen: None)
            if exact:
                runtime = CodedDestinationRuntime(node, sid, blocks, decoded)
            else:
                runtime = FlowDestinationRuntime(node, sid, blocks, decoded)
        elif node == terms.source and exact:
            runtime = CodedSourceRuntime(
                node, sid, blocks, packet_bytes=size, rng=coding.derive("coding", node),
                queue_limit=limit, systematic=terms.systematic, **params,
            )
        elif node == terms.source:
            runtime = FlowSourceRuntime(
                node, sid, blocks, packet_bytes=size, queue_limit=limit, **params
            )
        elif exact:
            rng = coding.derive("coding", node)
            runtime = CodedRelayRuntime(node, sid, blocks, size, rng, queue_limit=limit, **params)
        else:
            runtime = FlowRelayRuntime(node, sid, blocks, size, queue_limit=limit, **params)
        installed[node] = runtime
    return installed


class XorPacket:
    """An inter-session XOR of packets from distinct sessions (I²NC/COPE).

    A relay holding queued packets for two sessions can serve both in
    one airtime slot by XORing them together.  A receiver peels out the
    component of session ``s`` iff it participates in ``s`` and natively
    knows every *other* component — in this emulator, iff it hosts the
    source runtime of each other component's session (a source knows
    every packet it ever injected).  Components ride along unmodified;
    the XOR is structural, so intra-session coding semantics (innovation,
    rank, flow content) are untouched.
    """

    __slots__ = ("components",)

    #: Sentinel: an XOR packet belongs to no single session.
    session_id = -1

    def __init__(self, components: Sequence[CodedPacket | FlowPacket]) -> None:
        ordered = tuple(sorted(components, key=lambda p: p.session_id))
        if len(ordered) < 2:
            raise ValueError("an XOR packet needs at least two components")
        sids = [packet.session_id for packet in ordered]
        if len(set(sids)) != len(sids):
            raise ValueError("XOR components must come from distinct sessions")
        self.components = ordered

    @property
    def session_ids(self) -> Tuple[int, ...]:
        """Component session ids, ascending."""
        return tuple(packet.session_id for packet in self.components)

    def __repr__(self) -> str:
        return f"XorPacket(sessions={self.session_ids})"


class MultiSessionNodeRuntime(NodeRuntime):
    """Composite hosting one sub-runtime per session at a shared node.

    The engine still sees exactly one runtime per node; the composite
    fans its callbacks out to per-session sub-runtimes and arbitrates
    the node's single radio between them:

    * **scheduling** — ``backlog``/``demand_rate`` sum over *active*
      sessions, so the shared MAC sees the node's total pressure;
    * **transmission** — ``pop_transmission`` round-robins over active
      sessions with queued packets (deterministic: ascending session
      order with a cursor that resets on churn);
    * **reception** — packets route to their session's sub-runtime;
      packets for unhosted or dormant sessions drop on the floor, and
      :class:`XorPacket` components peel per the COPE rule;
    * **churn** — scenario-arriving sessions are created up front but
      *dormant*, switched live by ``activate_session`` /
      ``deactivate_session``.  Participants therefore never change
      mid-run, which keeps conflict structures static and the sharded
      loop bit-identical to the serial one.

    Per-session transmissions and delivered links accrue at the
    composite and survive departure; the engine splits the node's
    slot-end queue sample by active session (:attr:`active_runtimes`).
    """

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        self._subs: Dict[int, NodeRuntime] = {}
        self._dormant: Dict[int, NodeRuntime] = {}
        #: ``(session, sub-runtime)`` per active session, ascending.
        self.active_runtimes: List[Tuple[int, NodeRuntime]] = []
        # The same sub-runtimes alone: what every per-slot sweep walks.
        self._active: List[NodeRuntime] = []
        self._cursor = 0
        self._session_transmissions: Dict[int, int] = {}
        self._session_delivered: Dict[int, set[Tuple[int, int]]] = {}
        #: Airtime slots that carried an inter-session XOR (subclasses).
        self.xor_transmissions = 0

    def add_session(
        self, session_id: int, runtime: NodeRuntime, *, active: bool = True
    ) -> None:
        """Attach ``runtime`` as this node's data plane for one session."""
        if session_id in self._subs or session_id in self._dormant:
            raise ValueError(
                f"session {session_id} already hosted at node {self.node_id}"
            )
        if runtime.node_id != self.node_id:
            raise ValueError(
                f"sub-runtime for node {runtime.node_id} cannot live at "
                f"node {self.node_id}"
            )
        if active:
            self._subs[session_id] = runtime
            self._rebuild_order()
        else:
            self._dormant[session_id] = runtime
        self._session_transmissions.setdefault(session_id, 0)
        self._session_delivered.setdefault(session_id, set())

    def _rebuild_order(self) -> None:
        self.active_runtimes = sorted(self._subs.items())
        self._active = [sub for _sid, sub in self.active_runtimes]
        self._cursor = 0

    def hosted_sessions(self) -> Tuple[int, ...]:
        """All sessions with a sub-runtime here (active and dormant)."""
        return tuple(sorted([*self._subs, *self._dormant]))

    def active_sessions(self) -> Tuple[int, ...]:
        """Sessions currently contending for this node's airtime."""
        return tuple(sid for sid, _sub in self.active_runtimes)

    def session_runtime(self, session_id: int) -> NodeRuntime:
        """The sub-runtime for ``session_id`` (KeyError if unhosted)."""
        runtime = self._subs.get(session_id) or self._dormant.get(session_id)
        if runtime is None:
            raise KeyError(session_id)
        return runtime

    def activate_session(self, session_id: int) -> None:
        runtime = self._dormant.pop(session_id, None)
        if runtime is None:
            return
        self._subs[session_id] = runtime
        self._rebuild_order()

    def deactivate_session(self, session_id: int) -> None:
        runtime = self._subs.pop(session_id, None)
        if runtime is None:
            return
        self._dormant[session_id] = runtime
        self._rebuild_order()

    def on_slot(self, dt: float) -> None:
        for sub in self._active:
            sub.on_slot(dt)

    def dormant(self, dt: float) -> bool:
        # Sessions that have not arrived or have departed are not
        # ticked at all.
        for sub in self._active:
            if not sub.dormant(dt):
                return False
        return True

    # The three sums below accumulate in ascending session order from the
    # same ``0`` start as ``sum()`` would: float totals feed the
    # scheduler, so the order is part of the multi-session digest.

    def backlog(self) -> float:
        total: float = 0
        for sub in self._active:
            total += sub.backlog()
        return total

    def demand_rate(self, dt: float) -> float:
        total: float = 0
        for sub in self._active:
            total += sub.demand_rate(dt)
        return total

    def queue_length(self) -> int:
        total = 0
        for sub in self._active:
            total += sub.queue_length()
        return total

    def pop_transmission(self) -> Packet | None:
        count = len(self._active)
        for offset in range(count):
            index = (self._cursor + offset) % count
            packet = self._active[index].pop_transmission()
            if packet is not None:
                self._cursor = (index + 1) % count
                self._session_transmissions[self.active_runtimes[index][0]] += 1
                return packet
        return None

    def on_receive(self, packet: Packet, sender: int) -> None:
        if isinstance(packet, XorPacket):
            self._receive_xor(packet, sender)
            return
        sub = self._subs.get(packet.session_id)
        if sub is None:
            return  # unhosted or dormant session: not ours to hear
        sub.on_receive(packet, sender)
        self._session_delivered[packet.session_id].add((sender, self.node_id))

    def _receive_xor(self, packet: XorPacket, sender: int) -> None:
        for component in packet.components:
            sid = component.session_id
            sub = self._subs.get(sid)
            if sub is None:
                continue
            if not self._knows_other_components(packet, sid):
                continue
            sub.on_receive(component, sender)
            self._session_delivered[sid].add((sender, self.node_id))

    def _knows_other_components(
        self, packet: XorPacket, session_id: int
    ) -> bool:
        # COPE's decodability rule, specialized: the node natively knows
        # a component iff it hosts that session's source runtime.
        for component in packet.components:
            other = component.session_id
            if other == session_id:
                continue
            runtime = self._subs.get(other) or self._dormant.get(other)
            if not isinstance(runtime, _SourceRuntime):
                return False
        return True

    def apply_plan(self, **_params: object) -> None:
        raise RuntimeError(
            "multi-session composites hold no plan parameters of their own; "
            "call session_runtime(sid).apply_plan(...) on the session's "
            "sub-runtime"
        )

    def advance_generation(self, generation_id: int) -> None:
        raise RuntimeError(
            "multi-session composites take advance_session_generation, not "
            "the single-session advance_generation broadcast"
        )

    def advance_session_generation(
        self, session_id: int, generation_id: int
    ) -> None:
        runtime = self._subs.get(session_id) or self._dormant.get(session_id)
        if runtime is not None:
            runtime.advance_generation(generation_id)

    def session_stats(self) -> Dict[int, Dict[str, Any]]:
        """Per hosted session: its transmissions, delivered links and
        decoded blocks here."""
        return {
            sid: {
                "transmissions": self._session_transmissions[sid],
                "delivered_links": sorted(self._session_delivered[sid]),
                "blocks_decoded": self.session_runtime(sid).blocks_decoded,
            }
            for sid in sorted(self._session_transmissions)
        }


class InterSessionXorRelay(MultiSessionNodeRuntime):
    """A composite relay that codes *across* sessions (COPE/I²NC style).

    ``pairs`` lists session pairs this relay may XOR (the control plane
    — :func:`repro.protocols.intersession.plan_intersession_pairs` —
    only nominates pairs whose next hops can decode).  On each granted
    slot the relay first tries its pairs in canonical order: if both
    sessions of a pair are active with queued packets, it pops one from
    each and sends a single :class:`XorPacket` — two packets of
    progress for one slot of airtime.  Otherwise it falls back to the
    plain round-robin (intra-session RLNC only).
    """

    def __init__(
        self, node_id: int, pairs: Sequence[Tuple[int, int]]
    ) -> None:
        super().__init__(node_id)
        normalized: Dict[Tuple[int, int], None] = {}
        for a, b in pairs:
            if a == b:
                raise ValueError(f"cannot XOR session {a} with itself")
            normalized[(min(a, b), max(a, b))] = None
        self._pairs: Tuple[Tuple[int, int], ...] = tuple(sorted(normalized))

    @property
    def pairs(self) -> Tuple[Tuple[int, int], ...]:
        """Session pairs this relay may XOR, canonically ordered."""
        return self._pairs

    def pop_transmission(self) -> Packet | None:
        for a, b in self._pairs:
            sub_a = self._subs.get(a)
            sub_b = self._subs.get(b)
            if sub_a is None or sub_b is None:
                continue  # one side dormant or departed
            if sub_a.queue_length() == 0 or sub_b.queue_length() == 0:
                continue
            packet_a = sub_a.pop_transmission()
            packet_b = sub_b.pop_transmission()
            assert packet_a is not None and packet_b is not None
            assert not isinstance(packet_a, XorPacket)
            assert not isinstance(packet_b, XorPacket)
            self._session_transmissions[a] += 1
            self._session_transmissions[b] += 1
            self.xor_transmissions += 1
            return XorPacket((packet_a, packet_b))
        return super().pop_transmission()
