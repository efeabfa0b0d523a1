"""Progressive decoding by Gauss-Jordan elimination.

The destination keeps the augmented matrix ``[R | X]`` in *reduced
row-echelon form at all times* (paper Sec. 4).  Every arriving packet is
reduced against the existing rows on the fly:

* a non-innovative packet reduces to an all-zero row and is discarded
  immediately;
* an innovative packet contributes a new pivot, is normalized, and is
  eliminated from all previous rows, keeping the matrix reduced.

Once ``n`` innovative packets have arrived, the left half of the matrix is
the identity and the right half is exactly the original generation — no
separate inversion step is needed.  This is what lets the destination
ACK the instant decodability is reached, which the paper credits with
"alleviating the delay effects caused by network coding".

The augmented matrix lives in an :class:`~repro.coding.basis.EchelonBasis`
— the elimination core the relay's innovation filter shares — one
preallocated contiguous ``uint8`` ndarray (rows 0..rank-1 valid, sorted
by pivot column) with a parallel pivot-column index vector.
:meth:`ProgressiveDecoder.add_packet` / :meth:`add_row` is the basis's
single-row insert: one product clears every stored pivot from the row
(legal because the matrix is *reduced*), one batched row update folds
the new pivot back into the stored rows, and an in-place shift puts it
at its sorted position.  :meth:`ProgressiveDecoder.add_packets` /
:meth:`add_rows` is that insert on each row of the batch, in order —
one foreign call for the whole batch on the compiled backend
(``field.basis_insert_rows``) — so a batch and the same rows one by one
leave the same matrix, pivots and verdicts.

:class:`BlockDecoder` is the contrast case for the ablation benchmark: it
buffers packets and decodes with one matrix inversion at the end.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro import obs
from repro.coding import matrix as gfmatrix
from repro.coding.backends import resolve_field
from repro.coding.basis import EchelonBasis
from repro.coding.matrix import FieldType
from repro.coding.generation import Generation
from repro.coding.packet import CodedPacket


class ProgressiveDecoder:
    """On-the-fly Gauss-Jordan decoder for one generation.

    Built inside an :func:`repro.obs.collecting` scope, the decoder
    reports under the ``decoder.`` namespace: innovative/redundant packet
    counters, a rank-progression gauge, and — at the moment rank n is
    reached — the decode latency in packets (total received) and the
    redundancy overhead.
    """

    def __init__(
        self,
        blocks: int,
        block_size: int | None = None,
        *,
        field: Optional[FieldType] = None,
    ) -> None:
        if blocks <= 0:
            raise ValueError(f"blocks must be > 0, got {blocks}")
        if block_size is not None and block_size <= 0:
            raise ValueError(f"block_size must be > 0, got {block_size}")
        self._blocks = blocks
        self._block_size = block_size
        self._field = resolve_field(field)
        width = blocks + (block_size or 0)
        # Contiguous augmented matrix [R | X], kept in sorted RREF.
        self._basis = EchelonBasis(self._field, blocks, width)
        self._width = width
        self._received = 0
        scope = obs.get_registry().attach("decoder")
        self._m_innovative = scope.counter(
            "innovative", "packets that raised the decoder rank"
        )
        self._m_redundant = scope.counter(
            "redundant", "packets that reduced to zero and were discarded"
        )
        self._m_rank = scope.gauge("rank", "current rank of the active generation")
        self._m_eliminated = scope.counter(
            "rows_eliminated", "rows past a batch's leading plain run, owed elimination"
        )
        self._m_decode_packets = scope.histogram(
            "packets_to_decode", "packets received when rank n was reached"
        )
        self._m_overhead = scope.histogram(
            "overhead_packets", "non-innovative packets absorbed per decoded generation"
        )

    @property
    def blocks(self) -> int:
        """Generation size n."""
        return self._blocks

    @property
    def rank(self) -> int:
        """Current rank (number of innovative packets absorbed)."""
        return self._basis.rank

    @property
    def received(self) -> int:
        """Total packets offered, innovative or not."""
        return self._received

    @property
    def redundant(self) -> int:
        """Packets that reduced to zero and were discarded."""
        return self._received - self._basis.rank

    @property
    def is_complete(self) -> bool:
        """True once rank n is reached and the generation is decodable."""
        return self._basis.rank >= self._blocks

    def add_packet(self, packet: CodedPacket) -> bool:
        """Absorb one packet; returns True if it was innovative.

        Payload handling follows the packet: if the decoder was built with
        a ``block_size`` the packet must carry a payload of that size;
        otherwise the decoder runs in coefficient-only mode.
        """
        self._check_packet(packet)
        if self._block_size is not None:
            row = np.concatenate([packet.coefficients, packet.payload])
        else:
            row = packet.coefficients
        return self._absorb_row(row)

    def add_packets(self, packets: Sequence[CodedPacket]) -> np.ndarray:
        """Absorb a batch of packets in order; returns per-packet verdicts.

        Equivalent to calling :meth:`add_packet` on each element; the
        batch is packed into one array for :meth:`add_rows`.
        """
        batch = np.empty((len(packets), self._width), dtype=np.uint8)
        for index, packet in enumerate(packets):
            self._check_packet(packet)
            batch[index, : self._blocks] = packet.coefficients
            if self._block_size is not None:
                batch[index, self._blocks :] = packet.payload
        return self.add_rows(batch)

    def _check_packet(self, packet: CodedPacket) -> None:
        if packet.blocks != self._blocks:
            raise ValueError(
                f"packet generation size {packet.blocks} != decoder's {self._blocks}"
            )
        if self._block_size is not None:
            if packet.payload is None:
                raise ValueError("decoder expects payloads but packet has none")
            if packet.block_size != self._block_size:
                raise ValueError(
                    f"payload size {packet.block_size} != decoder's {self._block_size}"
                )

    def add_row(self, row: np.ndarray) -> bool:
        """Absorb one augmented row ``[vector | payload]``.

        The caller's array is never mutated.
        """
        row = np.asarray(row, dtype=np.uint8)
        if row.ndim != 1 or row.size != self._width:
            raise ValueError(f"row width {row.size} != expected {self._width}")
        return self._absorb_row(row)

    def _absorb_row(self, row: np.ndarray) -> bool:
        """Single-row insert of a validated row (left untouched)."""
        self._received += 1
        if self.is_complete:
            self._m_redundant.inc()
            return False
        if self._m_eliminated.enabled:
            self._count_eliminated(row[None, :])
        if not self._basis.insert(row):
            self._m_redundant.inc()
            return False
        self._count_innovative(1)
        return True

    def add_rows(self, batch: np.ndarray) -> np.ndarray:
        """Absorb a batch of augmented rows; returns per-row verdicts.

        ``batch`` is (k, width) and is never written to; the returned
        boolean array marks which rows were innovative — row i iff it
        lies outside the span of the stored rows plus rows 0..i-1, as
        :meth:`add_row` on each row in order would say.  The batch is one
        ``field.basis_insert_rows`` call.

        ``decoder.rows_eliminated`` counts, for a batch that finds the
        decoder incomplete, every row after the batch's leading plain run
        (:meth:`_count_eliminated`) — none if that run completes the
        decoder — and no row of a batch that finds it complete.
        """
        batch = np.array(batch, dtype=np.uint8, copy=None, ndmin=2)
        if batch.ndim != 2 or batch.shape[1] != self._width:
            raise ValueError(
                f"batch width {batch.shape[-1]} != expected {self._width}"
            )
        k = batch.shape[0]
        self._received += k
        basis = self._basis
        rank = basis.rank
        if not k or rank >= self._blocks:
            self._m_redundant.inc(k)
            return np.zeros(k, dtype=bool)
        if self._m_eliminated.enabled:
            self._count_eliminated(batch)
        verdicts = basis.insert_rows(batch)
        added = basis.rank - rank
        if added:
            self._count_innovative(added)
        self._m_redundant.inc(k - added)
        return verdicts

    def _count_eliminated(self, batch: np.ndarray) -> None:
        """Book ``decoder.rows_eliminated`` for a batch about to be inserted
        into the incomplete decoder: every row after its leading plain run,
        none if that run completes the decoder.

        A row is plain while its coefficient half is a unit vector with
        value 1 on a column that is neither a stored pivot nor claimed
        earlier in the run, up to the rank still missing: such a row is
        already reduced, no elimination work is owed for it.  Dense
        batches fail on the first row, so the scan costs one nonzero
        count in the common case.
        """
        blocks = self._blocks
        basis = self._basis
        limit = blocks - basis.rank
        taken: np.ndarray | None = None
        run = 0
        for row in batch:
            if run >= limit:
                break
            coeffs = row[:blocks]
            if np.count_nonzero(coeffs) != 1:
                break
            col = int(coeffs.argmax())
            if coeffs[col] != 1:
                break
            if taken is None:
                taken = np.zeros(blocks, dtype=bool)
                taken[basis.pivot_cols[: basis.rank]] = True
            if taken[col]:
                break
            taken[col] = True
            run += 1
        if run < limit:
            self._m_eliminated.inc(len(batch) - run)

    def _count_innovative(self, added: int) -> None:
        """Book ``added`` rows the basis just stored."""
        rank = self._basis.rank
        self._m_innovative.inc(added)
        self._m_rank.set(rank)
        if rank >= self._blocks:
            self._m_decode_packets.observe(self._received)
            self._m_overhead.observe(self._received - rank)

    def coefficient_matrix(self) -> np.ndarray:
        """The current (rank x n) reduced coefficient matrix."""
        basis = self._basis
        return basis.matrix[: basis.rank, : self._blocks].copy()

    def decode(self) -> np.ndarray:
        """Return the recovered generation matrix B.

        Only valid when :attr:`is_complete` is True and the decoder holds
        payloads; by the RREF invariant the payload half of the matrix
        *is* B at that point, so this is a copy, not a solve.
        """
        if not self.is_complete:
            raise RuntimeError(
                f"generation not decodable yet: rank {self.rank}/{self._blocks}"
            )
        if self._block_size is None:
            raise RuntimeError("coefficient-only decoder holds no payloads")
        return self._basis.matrix[:, self._blocks :].copy()

    def decode_generation(self, generation_id: int) -> Generation:
        """Decode and wrap the result in a :class:`Generation`."""
        return Generation(generation_id, self.decode())


class BlockDecoder:
    """Decode-at-the-end baseline: buffer packets, invert once.

    The ablation benchmark compares this against the progressive decoder
    to quantify the latency the paper's progressive scheme removes.
    """

    def __init__(
        self, blocks: int, block_size: int, *, field: Optional[FieldType] = None
    ) -> None:
        if blocks <= 0 or block_size <= 0:
            raise ValueError("blocks and block_size must be > 0")
        self._blocks = blocks
        self._block_size = block_size
        self._field = resolve_field(field)
        self._vectors: List[np.ndarray] = []
        self._payloads: List[np.ndarray] = []

    @property
    def received(self) -> int:
        """Number of buffered packets (dependent ones included)."""
        return len(self._vectors)

    def add_packet(self, packet: CodedPacket) -> None:
        """Buffer a packet without any innovation check."""
        if packet.blocks != self._blocks or packet.block_size != self._block_size:
            raise ValueError("packet dimensions do not match decoder")
        self._vectors.append(packet.coefficients.copy())
        self._payloads.append(packet.payload.copy())

    def try_decode(self) -> np.ndarray | None:
        """Attempt a full decode; None if the buffer is not full rank.

        Cost is one rank check plus (on success) one n x n inversion and
        an n x m multiply — all deferred to the end, which is exactly the
        delay profile the progressive decoder avoids.
        """
        if len(self._vectors) < self._blocks:
            return None
        stacked = np.stack(self._vectors)
        # One RREF pass on the transpose yields both the rank and the
        # earliest maximal independent row set: pivot columns of R^T are
        # exactly the greedy-by-incremental-rank row indices of R.
        _, pivots = gfmatrix.rref(stacked.T, self._field)
        if len(pivots) < self._blocks:
            return None
        chosen = pivots[: self._blocks]
        coeffs = stacked[chosen]
        payloads = np.stack([self._payloads[i] for i in chosen])
        return gfmatrix.solve(coeffs, payloads, self._field)
