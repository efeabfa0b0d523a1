"""The one elimination core: a row basis kept in reduced row-echelon form.

Both per-packet innovation checks of the paper run on it — the relay's
"accepts an incoming packet only if it is innovative" (Sec. 3.1), over
bare coding vectors, and the destination's progressive Gauss-Jordan
decode (Sec. 4), over augmented rows ``[vector | payload]``.

The stored rows are *reduced* (no pivot row carries another pivot's
column) and sorted by pivot column.  Reducedness is what makes the
check cheap: clearing every stored pivot from an incoming row is one
vector-matrix product instead of one row operation per pivot, and a new
pivot is folded back into the stored rows with one batched row update.
A single-row :meth:`EchelonBasis.insert` therefore costs at most two
kernel calls whatever the rank.

The type carries no counters; :class:`~repro.coding.decoder.ProgressiveDecoder`
wraps it with the ``decoder.*`` telemetry, the relay filter uses it bare.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.coding.backends import FieldType


@lru_cache(maxsize=None)
def _inverses(field: FieldType) -> Tuple[int, ...]:
    """``_inverses(field)[a]`` is a^-1 (index 0 unused), from one array call.

    Normalizing a pivot needs one scalar inverse per stored row; asking
    the field for it through a one-element array costs as much as a
    whole kernel call.
    """
    return (0, *field.inverse(np.arange(1, 256, dtype=np.uint8)).tolist())


class EchelonBasis:
    """Up to ``blocks`` rows of ``width`` bytes in sorted RREF.

    Pivots are searched in the first ``blocks`` columns only; columns
    past them (a payload) ride along through every row operation.
    Rows ``0..rank-1`` of :attr:`matrix` are valid and row ``i`` has its
    pivot in column ``pivot_cols[i]``.
    """

    __slots__ = ("field", "blocks", "matrix", "pivot_cols", "rank")

    def __init__(self, field: FieldType, blocks: int, width: int) -> None:
        self.field = field
        self.blocks = blocks
        self.matrix = np.zeros((blocks, width), dtype=np.uint8)
        self.pivot_cols = np.zeros(blocks, dtype=np.intp)
        self.rank = 0

    def clear(self) -> None:
        """Forget every row (rows past ``rank`` are never read)."""
        self.rank = 0

    def reduce(self, rows: np.ndarray) -> None:
        """Clear every stored pivot column from ``rows`` (k, width), in place."""
        rank = self.rank
        if rank:
            coeffs = rows[:, self.pivot_cols[:rank]]
            if np.count_nonzero(coeffs):
                np.bitwise_xor(
                    rows, self.field.matmul(coeffs, self.matrix[:rank]), out=rows
                )

    def insert(self, row: np.ndarray) -> bool:
        """Reduce one row against the basis and store it if independent.

        ``row`` is a writable 1-D array the basis may consume.  Returns
        False (basis untouched) when the row lies in the span.
        """
        self.reduce(row[None, :])
        nonzero = np.nonzero(row[: self.blocks])[0]
        if nonzero.size == 0:
            return False
        pivot_col = int(nonzero[0])
        pivot_value = int(row[pivot_col])
        field = self.field
        if pivot_value != 1:
            row = field.scale_row(row, _inverses(field)[pivot_value])
        rank = self.rank
        matrix = self.matrix
        pivot_cols = self.pivot_cols
        if rank:
            column = matrix[:rank, pivot_col].copy()
            if np.count_nonzero(column):
                field.addmul_rows(matrix[:rank], row, column)
        position = int(pivot_cols[:rank].searchsorted(pivot_col))
        if position < rank:
            matrix[position + 1 : rank + 1] = matrix[position:rank]
            pivot_cols[position + 1 : rank + 1] = pivot_cols[position:rank]
        matrix[position] = row
        pivot_cols[position] = pivot_col
        self.rank = rank + 1
        return True

    def install(self, fresh: np.ndarray, fresh_cols: np.ndarray) -> None:
        """Store a batch of already-reduced rows: back-substitute + merge.

        ``fresh`` rows must be mutually reduced, normalized, and zero at
        every stored pivot column, with pivots ``fresh_cols``.
        """
        rank = self.rank
        if rank:
            old = self.matrix[:rank]
            old_coeffs = old[:, fresh_cols]
            if old_coeffs.any():
                np.bitwise_xor(old, self.field.matmul(old_coeffs, fresh), out=old)
        merged_cols = np.concatenate([self.pivot_cols[:rank], fresh_cols])
        order = np.argsort(merged_cols, kind="stable")
        merged = np.concatenate([self.matrix[:rank], fresh], axis=0)
        total = rank + fresh.shape[0]
        self.matrix[:total] = merged[order]
        self.pivot_cols[:total] = merged_cols[order]
        self.rank = total
