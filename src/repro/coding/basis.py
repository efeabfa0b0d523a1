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
A single-row :meth:`EchelonBasis.insert` is therefore one call into the
field (``field.basis_insert``): at most two kernel calls on the numpy
reference, one foreign call on the compiled backend, whatever the rank.
A batch (:meth:`EchelonBasis.insert_rows`, ``field.basis_insert_rows``)
is that insert on each row in order: one foreign call for the whole
batch on the compiled backend.

The type carries no counters; :class:`~repro.coding.decoder.ProgressiveDecoder`
wraps it with the ``decoder.*`` telemetry, the relay filter uses it bare.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.coding.backends import FieldType


class EchelonBasis:
    """Up to ``blocks`` rows of ``width`` bytes in sorted RREF.

    Pivots are searched in the first ``blocks`` columns only; columns
    past them (a payload) ride along through every row operation.
    Rows ``0..rank-1`` of :attr:`matrix` are valid and row ``i`` has its
    pivot in column ``pivot_cols[i]``.

    :attr:`matrix` and :attr:`pivot_cols` are allocated here and never
    again: a backend may resolve their addresses once and keep them in
    :attr:`handle` (opaque to everyone else, not pickled) for as long
    as the basis lives.
    """

    __slots__ = ("field", "blocks", "matrix", "pivot_cols", "rank", "handle")

    def __init__(self, field: FieldType, blocks: int, width: int) -> None:
        self.field = field
        self.blocks = blocks
        self.matrix = np.zeros((blocks, width), dtype=np.uint8)
        self.pivot_cols = np.zeros(blocks, dtype=np.intp)
        self.rank = 0
        self.handle: Any = None

    def __getstate__(self) -> Tuple[Any, ...]:
        return self.field, self.blocks, self.matrix, self.pivot_cols, self.rank

    def __setstate__(self, state: Tuple[Any, ...]) -> None:
        self.field, self.blocks, self.matrix, self.pivot_cols, self.rank = state
        self.handle = None

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

        ``row`` is a 1-D ``uint8`` array of the basis width and is left
        untouched.  Returns False (basis untouched) when the row lies in
        the span.
        """
        return self.field.basis_insert(self, row)

    def insert_rows(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`insert` on each row of ``rows`` (k, width), in order;
        returns the k verdicts.  ``rows`` is left untouched."""
        return self.field.basis_insert_rows(self, rows)
