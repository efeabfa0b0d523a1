"""Baseline GF(2^8) codec: pure-Python, byte-at-a-time lookup tables.

This mirrors the "traditional lookup-table approach" the paper benchmarks
its accelerated codec against (Sec. 4).  Every operation walks rows one
byte at a time through Python-level loops, exactly the cost profile the
accelerated :class:`repro.coding.gf256.GF256` engine removes.

The class implements the same interface as ``GF256`` so the encoder and
decoder can be instantiated with either engine — the coding-speed
benchmark (``benchmarks/bench_coding_speed.py``) relies on this symmetry
to reproduce the paper's 3-5x speedup claim.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

import numpy as np

from repro.coding.gf256 import (
    basis_insert_reference,
    eliminate_panel_reference,
    exp_table,
    log_table,
)

if TYPE_CHECKING:
    from repro.coding.basis import EchelonBasis

ArrayLike = int | np.ndarray

_EXP: List[int] = [int(v) for v in exp_table()]
_LOG: List[int] = [int(v) for v in log_table()]
_ORDER = 255



def _restore_shape(result: np.ndarray, *operands: ArrayLike) -> np.ndarray:
    """Return a 0-d array when every operand was scalar, matching the
    accelerated engine's output shape semantics."""
    if all(np.asarray(op).ndim == 0 for op in operands):
        return result.reshape(())
    return result

def _mul_byte(a: int, b: int) -> int:
    """Single-byte field multiply via log/exp lookup."""
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


class GF256Baseline:
    """Pure-Python lookup-table codec with the ``GF256`` interface."""

    name = "baseline"

    @staticmethod
    def add(a: ArrayLike, b: ArrayLike) -> np.ndarray:
        """Field addition: bytewise XOR computed in a Python loop."""
        a_arr = np.atleast_1d(np.asarray(a, dtype=np.uint8))
        b_arr = np.atleast_1d(np.asarray(b, dtype=np.uint8))
        a_list, b_list = a_arr.tolist(), b_arr.tolist()
        if len(a_list) == 1 and len(b_list) > 1:
            a_list = a_list * len(b_list)
        if len(b_list) == 1 and len(a_list) > 1:
            b_list = b_list * len(a_list)
        result = np.array([x ^ y for x, y in zip(a_list, b_list)], dtype=np.uint8)
        return _restore_shape(result, a, b)

    sub = add

    @staticmethod
    def multiply(a: ArrayLike, b: ArrayLike) -> np.ndarray:
        """Elementwise multiply, one table lookup per byte."""
        a_arr = np.atleast_1d(np.asarray(a, dtype=np.uint8))
        b_arr = np.atleast_1d(np.asarray(b, dtype=np.uint8))
        a_list, b_list = a_arr.tolist(), b_arr.tolist()
        if len(a_list) == 1 and len(b_list) > 1:
            a_list = a_list * len(b_list)
        if len(b_list) == 1 and len(a_list) > 1:
            b_list = b_list * len(a_list)
        result = np.array(
            [_mul_byte(x, y) for x, y in zip(a_list, b_list)], dtype=np.uint8
        )
        return _restore_shape(result, a, b)

    @staticmethod
    def inverse(a: ArrayLike) -> np.ndarray:
        """Elementwise inverse via ``exp[255 - log[a]]``; raises on zero."""
        a_arr = np.atleast_1d(np.asarray(a, dtype=np.uint8))
        out = []
        for value in a_arr.tolist():
            if value == 0:
                raise ZeroDivisionError("0 has no multiplicative inverse in GF(2^8)")
            out.append(_EXP[_ORDER - _LOG[value]])
        return _restore_shape(np.array(out, dtype=np.uint8), a)

    @staticmethod
    def divide(a: ArrayLike, b: ArrayLike) -> np.ndarray:
        """Elementwise ``a / b``."""
        return GF256Baseline.multiply(a, GF256Baseline.inverse(b))

    @staticmethod
    def scale_row(row: np.ndarray, coefficient: int) -> np.ndarray:
        """Multiply a row by a scalar, byte at a time."""
        return np.array(
            [_mul_byte(coefficient, v) for v in np.asarray(row, dtype=np.uint8).tolist()],
            dtype=np.uint8,
        )

    @staticmethod
    def scale_rows(rows: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
        """Row-wise scaling, one byte-at-a-time pass per row."""
        rows = np.asarray(rows, dtype=np.uint8)
        coefficients = np.asarray(coefficients, dtype=np.uint8)
        return np.stack(
            [
                GF256Baseline.scale_row(row, int(coeff))
                for row, coeff in zip(rows, coefficients)
            ]
        )

    @staticmethod
    def addmul_row(target: np.ndarray, source: np.ndarray, coefficient: int) -> None:
        """In-place ``target ^= coefficient * source``, byte at a time."""
        if coefficient == 0:
            return
        src = np.asarray(source, dtype=np.uint8).tolist()
        for index, value in enumerate(src):
            target[index] ^= _mul_byte(coefficient, value)

    @staticmethod
    def addmul_rows(
        targets: np.ndarray, source: np.ndarray, coefficients: np.ndarray
    ) -> None:
        """In-place ``targets[i] ^= coefficients[i] * source`` per row."""
        coefficients = np.asarray(coefficients, dtype=np.uint8)
        for index, coeff in enumerate(coefficients.tolist()):
            if coeff:
                GF256Baseline.addmul_row(targets[index], source, coeff)

    @staticmethod
    def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product with triple-nested Python loops."""
        a = np.asarray(a, dtype=np.uint8)
        b = np.asarray(b, dtype=np.uint8)
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError("matmul requires 2-D operands")
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"shape mismatch: {a.shape} x {b.shape}")
        n, k = a.shape
        m = b.shape[1]
        a_rows = a.tolist()
        b_rows = b.tolist()
        out = np.zeros((n, m), dtype=np.uint8)
        for i in range(n):
            row_out = [0] * m
            a_row = a_rows[i]
            for j in range(k):
                coeff = a_row[j]
                if coeff == 0:
                    continue
                b_row = b_rows[j]
                log_c = _LOG[coeff]
                for col in range(m):
                    value = b_row[col]
                    if value:
                        row_out[col] ^= _EXP[log_c + _LOG[value]]
            out[i] = row_out
        return out

    @staticmethod
    def matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Matrix-vector product."""
        v = np.asarray(v, dtype=np.uint8)
        if v.ndim != 1:
            raise ValueError("matvec requires a 1-D vector")
        return GF256Baseline.matmul(a, v[:, None])[:, 0]

    @classmethod
    def combine(cls, mix: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """One coded row ``mix . rows`` (see :meth:`GF256.combine`)."""
        return cls.matmul(mix[None, :], rows)[0]

    @classmethod
    def basis_insert(cls, basis: "EchelonBasis", row: np.ndarray) -> bool:
        """Single-row basis insert (see :meth:`GF256.basis_insert`),
        driven through the byte-at-a-time row kernels."""
        return basis_insert_reference(cls, basis, row)

    @staticmethod
    def power(a: int, exponent: int) -> int:
        """Scalar exponentiation by repeated multiplication."""
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        result = 1
        for _ in range(exponent):
            result = _mul_byte(result, a)
        return result

    @classmethod
    def eliminate_panel(
        cls, work: np.ndarray, panel: int, limit: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Panel Gauss-Jordan elimination (see :meth:`GF256.eliminate_panel`),
        driven through the byte-at-a-time row kernels."""
        return eliminate_panel_reference(cls, work, panel, limit)
