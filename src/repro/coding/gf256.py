"""Vectorized arithmetic over GF(2^8), the Rijndael finite field.

The numpy reference of the codec: whole-row operations built on exp/log
tables, the oracle every field must equal bit for bit.  The paper's
accelerated loop (Sec. 4) is its compiled subclass,
:class:`repro.coding.native.GF256Native`.

The field is GF(2^8) with the Rijndael reduction polynomial
``x^8 + x^4 + x^3 + x + 1`` (0x11B) and generator 0x03.

All public operations accept and return ``numpy.ndarray`` with
``dtype=uint8``.  Scalars are accepted wherever broadcasting makes sense.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.coding.basis import EchelonBasis

REDUCTION_POLY = 0x11B
GENERATOR = 0x03
FIELD_SIZE = 256
_ORDER = FIELD_SIZE - 1  # multiplicative group order

ArrayLike = int | np.ndarray

# Observability hook: when repro.obs enables global collection it points
# this at a counter's `inc` so the row kernels meter the bytes they
# process.  A module-level `is None` check is the entire disabled-path
# cost, keeping the kernels untouched for the 3-5x speedup claim.
_BYTES_HOOK: Callable[[int], object] | None = None


def set_bytes_hook(hook: Callable[[int], object] | None) -> None:
    """Install (or clear, with None) the byte-metering callback.

    The callback receives the number of payload bytes processed by one
    kernel invocation.  Managed by :mod:`repro.obs`; exposed as a
    function so the hook can be swapped without reaching into module
    globals.
    """
    global _BYTES_HOOK
    _BYTES_HOOK = hook


def meter_bytes(count: int) -> None:
    """Report ``count`` processed payload bytes to the obs hook (if any).

    Backend kernels that do not route through this module's row kernels
    call this so ``codec.bytes_processed`` stays comparable across
    backends.
    """
    if _BYTES_HOOK is not None:
        _BYTES_HOOK(count)


def _build_tables() -> Tuple[np.ndarray, np.ndarray]:
    """Build exp/log tables for the Rijndael field.

    ``exp`` is doubled in length so products of logs (max 2*254) index it
    without a modulo in the hot path.
    """
    exp = np.zeros(2 * _ORDER, dtype=np.uint8)
    log = np.zeros(FIELD_SIZE, dtype=np.int32)
    value = 1
    for power in range(_ORDER):
        exp[power] = value
        log[value] = power
        value = _mul_slow(value, GENERATOR)
    exp[_ORDER:] = exp[:_ORDER]
    return exp, log


def _mul_slow(a: int, b: int) -> int:
    """Reference carry-less multiply with reduction; used to build tables."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= REDUCTION_POLY
        b >>= 1
    return result


_EXP, _LOG = _build_tables()
# Full 256x256 product table: 64 KiB, lets `multiply` be a single fancy-index.
_MUL_TABLE = np.zeros((FIELD_SIZE, FIELD_SIZE), dtype=np.uint8)
_nz = np.arange(1, FIELD_SIZE)
_MUL_TABLE[1:, 1:] = _EXP[_LOG[_nz][:, None] + _LOG[_nz][None, :]]
# Flattened view for the hot kernels: computing `(a << 8) | b` and doing
# one `take` on the flat table is ~3x faster than equivalent 2-D fancy
# indexing (numpy resolves a single int32 index array with a memcpy-like
# gather instead of a broadcasting iterator).
_MUL_FLAT = _MUL_TABLE.ravel()
_INV_TABLE = np.zeros(FIELD_SIZE, dtype=np.uint8)
_INV_TABLE[1:] = _EXP[_ORDER - _LOG[_nz]]


class GF256:
    """Namespace of vectorized GF(2^8) operations.

    The class carries no state; it exists so that the compiled subclasses
    expose the same interface and can be swapped in the encoder/decoder.
    """

    name = "accelerated"

    @staticmethod
    def add(a: ArrayLike, b: ArrayLike) -> np.ndarray:
        """Field addition (= subtraction): bytewise XOR."""
        return np.bitwise_xor(np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8))

    # Subtraction equals addition in characteristic 2.
    sub = add

    @staticmethod
    def multiply(a: ArrayLike, b: ArrayLike) -> np.ndarray:
        """Elementwise field multiplication with numpy broadcasting."""
        a_arr = np.asarray(a, dtype=np.uint8)
        b_arr = np.asarray(b, dtype=np.uint8)
        return _MUL_TABLE[a_arr, b_arr]

    @staticmethod
    def inverse(a: ArrayLike) -> np.ndarray:
        """Elementwise multiplicative inverse.  Raises on zero input."""
        a_arr = np.asarray(a, dtype=np.uint8)
        if np.any(a_arr == 0):
            raise ZeroDivisionError("0 has no multiplicative inverse in GF(2^8)")
        return _INV_TABLE[a_arr]

    @staticmethod
    def divide(a: ArrayLike, b: ArrayLike) -> np.ndarray:
        """Elementwise division ``a / b``.  Raises on zero divisor."""
        return GF256.multiply(a, GF256.inverse(b))

    @staticmethod
    def scale_row(row: np.ndarray, coefficient: int) -> np.ndarray:
        """Multiply a whole row (1-D array) by one scalar coefficient."""
        row = np.asarray(row, dtype=np.uint8)
        return _MUL_TABLE[coefficient].take(row)

    @staticmethod
    def scale_rows(rows: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
        """Row-wise scaling: row i multiplied by ``coefficients[i]``.

        One gather covers every row at once; this is the batch analogue of
        :meth:`scale_row` used to normalize several new pivots per call.
        """
        rows = np.asarray(rows, dtype=np.uint8)
        coefficients = np.asarray(coefficients, dtype=np.int32)
        return _MUL_FLAT.take((coefficients[:, None] << 8) | rows)

    @staticmethod
    def addmul_row(target: np.ndarray, source: np.ndarray, coefficient: int) -> None:
        """In-place ``target ^= coefficient * source`` — the codec hot path."""
        if coefficient == 0:
            return
        np.bitwise_xor(target, _MUL_TABLE[coefficient].take(source), out=target)
        if _BYTES_HOOK is not None:
            _BYTES_HOOK(target.size)

    @staticmethod
    def addmul_rows(
        targets: np.ndarray, source: np.ndarray, coefficients: np.ndarray
    ) -> None:
        """In-place ``targets[i] ^= coefficients[i] * source`` for every row.

        The batch-elimination kernel: one flat-table gather plus one XOR
        covers every target row at once, skipping rows whose coefficient
        is zero.
        """
        coefficients = np.asarray(coefficients)
        nz = np.nonzero(coefficients)[0]
        if nz.size == 0:
            return
        index = (coefficients[nz].astype(np.int32)[:, None] << 8) | source
        targets[nz] ^= _MUL_FLAT.take(index)
        if _BYTES_HOOK is not None:
            _BYTES_HOOK(nz.size * source.size)

    # Above this operand volume the (n, k, m) product tensor of the
    # gather-based fast path stops fitting comfortably in cache and the
    # column-loop accumulation wins on memory traffic.
    _MATMUL_TENSOR_LIMIT = 1 << 22

    @staticmethod
    def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product over GF(2^8).

        ``a`` is (n, k), ``b`` is (k, m); the result is (n, m).  This is the
        encoding operation X = R . B of the paper with ``a`` the coefficient
        matrix and ``b`` the generation matrix.
        """
        a = np.asarray(a, dtype=np.uint8)
        b = np.asarray(b, dtype=np.uint8)
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError("matmul requires 2-D operands")
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"shape mismatch: {a.shape} x {b.shape}")
        n, k = a.shape
        m = b.shape[1]
        if k == 0 or n == 0:
            return np.zeros((n, m), dtype=np.uint8)
        if n == 1:
            # Vector-matrix product (decoder forward elimination, single
            # packet encode): one flat gather + XOR-reduction.
            index = (a[0].astype(np.int32)[:, None] << 8) | b
            out = np.bitwise_xor.reduce(_MUL_FLAT.take(index), axis=0)[None, :]
        elif k == 1:
            # Outer product (back-substituting one new pivot): one gather.
            index = (a[:, 0].astype(np.int32)[:, None] << 8) | b[0]
            out = _MUL_FLAT.take(index)
        elif n * k * m <= GF256._MATMUL_TENSOR_LIMIT:
            # Gather-based fast path: one flat-table gather builds every
            # partial product (n, k, m) and a single XOR-reduction folds
            # them — a fixed number of numpy calls regardless of k, the
            # batched analogue of the paper's SSE2 row loop.
            index = (a.astype(np.int32)[:, :, None] << 8) | b[None, :, :]
            out = np.bitwise_xor.reduce(_MUL_FLAT.take(index), axis=1)
        else:
            out = np.zeros((n, m), dtype=np.uint8)
            # Row-at-a-time accumulation: each step is one vectorized
            # table-lookup + XOR over an entire row of b.
            for j in range(k):
                col = a[:, j]
                nz = np.nonzero(col)[0]
                if nz.size == 0:
                    continue
                index = (col[nz].astype(np.int32)[:, None] << 8) | b[j]
                out[nz] ^= _MUL_FLAT.take(index)
        if _BYTES_HOOK is not None:
            # Meter the rows actually touched: an all-zero coefficient row
            # produces its output without any table work, so it must not
            # count toward bytes processed.
            _BYTES_HOOK(int(np.count_nonzero(a.any(axis=1))) * m)
        return out

    @staticmethod
    def matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Matrix-vector product over GF(2^8)."""
        v = np.asarray(v, dtype=np.uint8)
        if v.ndim != 1:
            raise ValueError("matvec requires a 1-D vector")
        return GF256.matmul(a, v[:, None])[:, 0]

    @classmethod
    def combine(cls, mix: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """One coded row ``mix . rows``: ``mix`` is (k,), ``rows`` (k, m).

        The per-packet emit of both encoders; by contract equal to
        ``matmul(mix[None, :], rows)[0]``, which is the reference.
        """
        return cls.matmul(mix[None, :], rows)[0]

    @classmethod
    def basis_insert(cls, basis: "EchelonBasis", row: np.ndarray) -> bool:
        """Reduce ``row`` against ``basis`` and store it if independent.

        The single-row step of the relay's innovation filter and of the
        progressive decoder (:meth:`repro.coding.basis.EchelonBasis.insert`
        is this call).  ``row`` is never written to.  Every backend must
        leave ``matrix[:rank]``, ``pivot_cols[:rank]`` and ``rank``
        exactly as :func:`basis_insert_reference` does.
        """
        return basis_insert_reference(cls, basis, row)

    @classmethod
    def basis_insert_rows(cls, basis: "EchelonBasis", rows: np.ndarray) -> np.ndarray:
        """:meth:`basis_insert` on each row of ``rows`` (k, width), in order.

        The progressive decoder's batch step; returns the k verdicts as a
        ``bool`` array.  That loop is the definition: row i is stored iff
        it lies outside the span of the basis plus rows 0..i-1, and
        ``rows`` is never written to.
        """
        return np.array([cls.basis_insert(basis, row) for row in rows], dtype=bool)

    @staticmethod
    def power(a: int, exponent: int) -> int:
        """Scalar exponentiation ``a ** exponent`` in the field."""
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        if a == 0:
            return 0 if exponent > 0 else 1
        if exponent == 0:
            return 1
        return int(_EXP[(int(_LOG[a]) * exponent) % _ORDER])

    @classmethod
    def eliminate_panel(
        cls, work: np.ndarray, panel: int, limit: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """In-place Gauss-Jordan elimination with pivots from a column panel.

        This is the blocked-elimination contract every backend must honor
        bit-for-bit (the decoder and ``matrix.rref`` are built on it):

        ``work`` is a C-contiguous ``(rows, width)`` uint8 matrix whose
        first ``panel`` columns are searched for pivots; the remaining
        columns (a transform or payload carry) ride along through every
        row operation.  Rows are scanned top-down.  A row whose leading
        nonzero entry within the panel is at column ``c`` becomes a pivot
        row: it is normalized so ``work[i, c] == 1`` and column ``c`` is
        eliminated from *every* other row (full width).  Scanning stops
        after ``limit`` pivots.  Returns ``(pivot_rows, pivot_cols)`` as
        ``intp`` arrays in discovery (row) order.

        The result is deterministic — pivot choice is "first nonzero
        column of the earliest eligible row" — so any two conforming
        implementations mutate ``work`` identically.
        """
        return eliminate_panel_reference(cls, work, panel, limit)


def eliminate_panel_reference(
    field: type[GF256], work: np.ndarray, panel: int, limit: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Reference implementation of the :meth:`GF256.eliminate_panel`
    contract, expressed through the row kernels of ``field`` so that any
    backend overriding them (the compiled one) is exercised end to
    end."""
    if work.ndim != 2:
        raise ValueError(f"expected a 2-D work matrix, got ndim={work.ndim}")
    if not 0 <= panel <= work.shape[1]:
        raise ValueError(f"panel {panel} outside width {work.shape[1]}")
    rows = work.shape[0]
    pivot_rows: list[int] = []
    pivot_cols: list[int] = []
    for i in range(rows):
        if len(pivot_rows) >= limit:
            break
        row = work[i]
        nonzero = np.nonzero(row[:panel])[0]
        if nonzero.size == 0:
            continue
        col = int(nonzero[0])
        value = int(row[col])
        if value != 1:
            row[:] = field.scale_row(row, int(field.inverse(value)))
        column = work[:, col].copy()
        column[i] = 0
        field.addmul_rows(work, row, column)
        pivot_rows.append(i)
        pivot_cols.append(col)
    return (
        np.asarray(pivot_rows, dtype=np.intp),
        np.asarray(pivot_cols, dtype=np.intp),
    )


@lru_cache(maxsize=None)
def _inverses(field: type[GF256]) -> Tuple[int, ...]:
    """``_inverses(field)[a]`` is a^-1 (index 0 unused), from one array call.

    Normalizing a pivot needs one scalar inverse per stored row; asking
    the field for it through a one-element array costs as much as a
    whole kernel call.
    """
    return (0, *field.inverse(np.arange(1, 256, dtype=np.uint8)).tolist())


def basis_insert_reference(
    field: type[GF256], basis: "EchelonBasis", row: np.ndarray
) -> bool:
    """Reference implementation of the :meth:`GF256.basis_insert` contract
    through the row kernels of ``field``: at most two kernel calls
    whatever the rank, because the stored rows are *reduced* — every
    stored pivot clears from ``row`` in one vector-matrix product, and a
    new pivot folds back into the stored rows in one batched row update.
    Returns False (basis untouched) when the row lies in the span.
    """
    row = row.copy()
    basis.reduce(row[None, :])
    nonzero = np.nonzero(row[: basis.blocks])[0]
    if nonzero.size == 0:
        return False
    pivot_col = int(nonzero[0])
    pivot_value = int(row[pivot_col])
    if pivot_value != 1:
        row = field.scale_row(row, _inverses(field)[pivot_value])
    rank = basis.rank
    matrix = basis.matrix
    pivot_cols = basis.pivot_cols
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
    basis.rank = rank + 1
    return True


def exp_table() -> np.ndarray:
    """Copy of the exponentiation table (length 510, doubled)."""
    return _EXP.copy()


def log_table() -> np.ndarray:
    """Copy of the discrete-log table (index 0 is unused/0)."""
    return _LOG.copy()
