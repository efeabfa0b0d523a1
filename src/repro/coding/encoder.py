"""Random linear encoding and re-encoding.

Two roles appear in the paper:

* The **source encoder** holds the full generation matrix B and emits
  packets ``x = r . B`` for fresh uniform-random coding vectors ``r``
  (``X = R . B`` in matrix form).
* The **relay re-encoder** holds only the innovative packets it has
  received.  To emit a packet it draws fresh random coefficients over its
  buffer and combines both the coding vectors and (if materialized) the
  payloads, which "replaces the coding coefficients ... with another set
  of random coefficients" (Sec. 3.1) and lets one outgoing packet carry
  information from everything overheard so far.

Both encoders take the field engine as a parameter so they run on either
the accelerated or the baseline codec.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.coding.backends import resolve_field
from repro.coding.basis import EchelonBasis
from repro.coding.matrix import FieldType
from repro.coding.generation import Generation
from repro.coding.packet import CodedPacket


class SourceEncoder:
    """Emit random linear combinations of a full generation.

    ``field=None`` (the default) runs on
    :func:`repro.coding.backends.default_field`.

    With ``systematic=True`` the first ``n`` packets of each generation
    are the plain blocks themselves (identity coding vectors, in block
    order); only repair packets past ``n`` are dense random
    combinations.  On clean links a decoder then places every row
    without Gaussian elimination, and the delivered payloads are
    byte-identical to dense RLNC either way.
    """

    def __init__(
        self,
        session_id: int,
        generation: Generation,
        rng: np.random.Generator,
        *,
        field: Optional[FieldType] = None,
        payload: bool = True,
        systematic: bool = False,
    ) -> None:
        self._session_id = session_id
        self._generation = generation
        self._rng = rng
        self._field = resolve_field(field)
        self._payload = payload
        self._systematic = systematic
        self._emitted = 0

    @property
    def generation(self) -> Generation:
        """The generation currently being encoded."""
        return self._generation

    @property
    def emitted(self) -> int:
        """Number of packets emitted so far for this generation."""
        return self._emitted

    def next_packet(self) -> CodedPacket:
        """Draw a fresh coding vector and emit one coded packet.

        A uniformly random vector is all-zero with probability 256^-n;
        we resample in that (astronomically unlikely) case so that every
        emitted packet carries information.
        """
        n = self._generation.matrix.shape[0]
        if self._systematic and self._emitted < n:
            index = self._emitted
            vector = np.zeros(n, dtype=np.uint8)
            vector[index] = 1
            payload = None
            if self._payload:
                payload = self._generation.matrix[index]
            self._emitted += 1
            return CodedPacket(
                session_id=self._session_id,
                generation_id=self._generation.generation_id,
                coefficients=vector,
                payload=payload,
            )
        vector = self._rng.integers(0, 256, size=n, dtype=np.uint8)
        while not vector.any():
            vector = self._rng.integers(0, 256, size=n, dtype=np.uint8)
        payload = None
        if self._payload:
            payload = self._field.combine(vector, self._generation.matrix)
        self._emitted += 1
        return CodedPacket(
            session_id=self._session_id,
            generation_id=self._generation.generation_id,
            coefficients=vector,
            payload=payload,
        )

    def next_packets(self, count: int) -> List[CodedPacket]:
        """Emit ``count`` coded packets from one batched draw + matmul.

        The full (count, n) coefficient matrix comes from a single RNG
        call and the payloads from a single ``field.matmul`` — the block
        analogue of ``next_packet``, amortizing per-call numpy overhead
        across the batch.  Packets wrap rows of the result without
        copying (:meth:`CodedPacket.batch_from_rows`).
        """
        if count <= 0:
            raise ValueError(f"count must be > 0, got {count}")
        n = self._generation.matrix.shape[0]
        plain: List[CodedPacket] = []
        if self._systematic and self._emitted < n:
            take = min(count, n - self._emitted)
            start = self._emitted
            vectors = np.zeros((take, n), dtype=np.uint8)
            vectors[np.arange(take), np.arange(start, start + take)] = 1
            payloads = None
            if self._payload:
                payloads = self._generation.matrix[start : start + take]
            plain = CodedPacket.batch_from_rows(
                self._session_id,
                self._generation.generation_id,
                vectors,
                payloads,
            )
            self._emitted += take
            count -= take
            if count == 0:
                return plain
        matrix = self._rng.integers(0, 256, size=(count, n), dtype=np.uint8)
        zero = ~matrix.any(axis=1)
        while zero.any():
            matrix[zero] = self._rng.integers(
                0, 256, size=(int(np.count_nonzero(zero)), n), dtype=np.uint8
            )
            zero = ~matrix.any(axis=1)
        payloads = None
        if self._payload:
            payloads = self._field.matmul(matrix, self._generation.matrix)
        self._emitted += count
        return plain + CodedPacket.batch_from_rows(
            self._session_id,
            self._generation.generation_id,
            matrix,
            payloads,
        )

    def advance(self, generation: Generation) -> None:
        """Move to the next generation after the destination ACKs."""
        if generation.generation_id <= self._generation.generation_id:
            raise ValueError(
                "generations must advance monotonically: "
                f"{generation.generation_id} <= {self._generation.generation_id}"
            )
        self._generation = generation
        self._emitted = 0


class RelayReEncoder:
    """Buffer innovative packets and emit fresh random recombinations.

    The relay performs its own innovation check so that dependent
    arrivals are discarded immediately — "an intermediate relay accepts
    an incoming packet only if it is ... innovative" (Sec. 3.1).  The
    check is a coefficient-only :class:`~repro.coding.basis.EchelonBasis`
    (the decoder's elimination core): one GF(2^8) product against the
    reduced echelon copy decides it.  Emitted packets are always mixed
    from the *original* buffered vectors and payloads, never from the
    echelon copy.
    """

    def __init__(
        self,
        session_id: int,
        blocks: int,
        rng: np.random.Generator,
        *,
        field: Optional[FieldType] = None,
        generation_id: int = 0,
    ) -> None:
        if blocks <= 0:
            raise ValueError(f"blocks must be > 0, got {blocks}")
        self._session_id = session_id
        self._blocks = blocks
        self._rng = rng
        self._field = resolve_field(field)
        self._generation_id = generation_id
        # Contiguous packet buffers: row i holds the i-th innovative
        # packet.  The payload buffer is allocated lazily on the first
        # payload-bearing packet (its width is not known up front).
        self._vector_buf = np.zeros((blocks, blocks), dtype=np.uint8)
        self._payload_buf: np.ndarray | None = None
        self._count = 0
        # Reduced-echelon copy of the vectors: the innovation check only.
        self._filter = EchelonBasis(self._field, blocks, blocks)

    @property
    def generation_id(self) -> int:
        """Generation the relay is currently buffering."""
        return self._generation_id

    @property
    def buffered(self) -> int:
        """Number of innovative packets buffered (= current rank)."""
        return self._count

    @property
    def is_full(self) -> bool:
        """True once the relay holds a full-rank buffer.

        Such relays "no longer accept packets from upstream nodes since
        all incoming packets will be non-innovative" (Sec. 4), but keep
        re-encoding and broadcasting.
        """
        return self._count >= self._blocks

    def accept(self, packet: CodedPacket) -> bool:
        """Accept ``packet`` if innovative; return whether it was stored.

        Packets from an expired (lower) generation are rejected; a packet
        with a *higher* generation ID flushes the buffer and moves the
        relay forward (Sec. 4).  A packet whose generation size differs
        from the relay's is dropped, not an error: when a session
        switches generation size at a boundary (adaptive-n), stale-sized
        packets are legitimately in flight until every node crosses the
        boundary.  A payload whose width differs from the rows already
        buffered for the generation raises ``ValueError``.
        """
        if packet.session_id != self._session_id:
            raise ValueError(
                f"packet belongs to session {packet.session_id}, "
                f"relay handles {self._session_id}"
            )
        if packet.generation_id < self._generation_id:
            return False
        if packet.generation_id > self._generation_id:
            self.advance(packet.generation_id)
        if packet.blocks != self._blocks:
            return False
        if self.is_full:
            return False
        payload = packet.payload
        payload_buf = self._payload_buf_for(payload)
        if not self._filter.insert(packet.coefficients):
            return False
        row = self._count
        self._vector_buf[row] = packet.coefficients
        if payload is not None and payload_buf is not None:
            payload_buf[row] = payload
        self._count = row + 1
        return True

    def _payload_buf_for(self, payload: np.ndarray | None) -> np.ndarray | None:
        """The payload buffer ``payload`` can be stored in (None without one).

        The first packet of a generation fixes the payload width; an
        empty relay re-shapes its buffer to follow it.  Once rows are
        stored a different width (or a payload-less packet among
        payload-bearing ones) would mix zeros into real data on the next
        re-encode, so it raises instead.
        """
        buffer = self._payload_buf
        offered = None if payload is None else payload.size
        stored = None if buffer is None else buffer.shape[1]
        if offered == stored:
            return buffer
        if self._count:
            raise ValueError(
                f"payload size {offered} != the {stored} of the {self._count} "
                f"packets buffered for generation {self._generation_id}"
            )
        if offered is None:
            buffer = None
        else:
            buffer = np.zeros((self._blocks, offered), dtype=np.uint8)
        self._payload_buf = buffer
        return buffer

    def next_packet(self) -> CodedPacket:
        """Emit one re-encoded packet over the buffered innovative set.

        Raises ``RuntimeError`` if the buffer is empty (a relay with no
        information cannot transmit).
        """
        if self._count == 0:
            raise RuntimeError("relay has no innovative packets to re-encode")
        count = self._count
        mix = self._rng.integers(0, 256, size=count, dtype=np.uint8)
        while not mix.any():
            mix = self._rng.integers(0, 256, size=count, dtype=np.uint8)
        out_vector = self._field.combine(mix, self._vector_buf[:count])
        out_payload = None
        if self._payload_buf is not None:
            out_payload = self._field.combine(mix, self._payload_buf[:count])
        return CodedPacket(
            session_id=self._session_id,
            generation_id=self._generation_id,
            coefficients=out_vector,
            payload=out_payload,
        )

    def next_packets(self, count: int) -> List[CodedPacket]:
        """Emit ``count`` re-encoded packets from one draw + matmul.

        Same semantics as ``count`` calls of :meth:`next_packet`: every
        emitted packet mixes the whole buffered innovative set with fresh
        random coefficients, drawn here as a single (count, buffered)
        matrix and combined by one ``field.matmul`` over the contiguous
        packet buffers.
        """
        if count <= 0:
            raise ValueError(f"count must be > 0, got {count}")
        if self._count == 0:
            raise RuntimeError("relay has no innovative packets to re-encode")
        buffered = self._count
        mix = self._rng.integers(0, 256, size=(count, buffered), dtype=np.uint8)
        zero = ~mix.any(axis=1)
        while zero.any():
            mix[zero] = self._rng.integers(
                0, 256, size=(int(np.count_nonzero(zero)), buffered), dtype=np.uint8
            )
            zero = ~mix.any(axis=1)
        out_vectors = self._field.matmul(mix, self._vector_buf[:buffered])
        out_payloads = None
        if self._payload_buf is not None:
            out_payloads = self._field.matmul(mix, self._payload_buf[:buffered])
        return CodedPacket.batch_from_rows(
            self._session_id,
            self._generation_id,
            out_vectors,
            out_payloads,
        )

    def advance(self, generation_id: int) -> None:
        """Discard the buffer and move to ``generation_id``."""
        if generation_id <= self._generation_id:
            raise ValueError(
                f"generation must increase: {generation_id} <= {self._generation_id}"
            )
        self._generation_id = generation_id
        self._count = 0
        self._filter.clear()
