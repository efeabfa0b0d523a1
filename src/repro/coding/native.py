"""The compiled GF(2^8) backend: C kernels loaded through ctypes.

The paper's accelerated codec is an SSE2 loop that multiplies a whole
row by a scalar with shuffle-based nibble tables; :data:`_C_SOURCE`
below is that loop's modern descendant (``pshufb`` on AVX2 or SSSE3,
scalar table walk elsewhere).  The source is embedded, compiled once
with the system C compiler into a content-addressed shared object under
the user cache directory and loaded through ``ctypes``, both by
:mod:`repro.util.clib`.

Nothing here is imported eagerly: :func:`load_native_backend` is what
:func:`repro.coding.backends.default_field` calls once per process.  It
returns ``None`` whenever the toolchain is missing or the self-test
against the numpy reference fails, so machines without a compiler run
the reference instead of breaking the codec.

The per-packet entry points (:meth:`GF256Native.basis_insert`,
:meth:`GF256Native.combine`) are one foreign call each: what a wrapper
does around the call — contiguity checks, address look-ups, the byte
meter's argument — costs more than the field arithmetic on a 40-byte
coding vector, so addresses are bound once per basis and the meter is
computed only while a hook listens.
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from repro.coding import gf256 as _reference
from repro.coding.basis import EchelonBasis
from repro.coding.gf256 import (
    _INV_TABLE,
    _MUL_TABLE,
    GF256,
    eliminate_panel_reference,
    meter_bytes,
)
from repro.util import clib

_C_SOURCE = r"""
#include <stdint.h>
#include <stddef.h>
#include <string.h>

static uint8_t MUL[256 * 256];
static uint8_t SHUF[256 * 32]; /* per c: 16B low-nibble, 16B high-nibble products */
static uint8_t INV[256];

void gf_init(const uint8_t *mul_table, const uint8_t *shuf_tables,
             const uint8_t *inv_table) {
    memcpy(MUL, mul_table, sizeof MUL);
    memcpy(SHUF, shuf_tables, sizeof SHUF);
    memcpy(INV, inv_table, sizeof INV);
}

#if defined(__AVX2__)
#include <immintrin.h>
static void addmul(uint8_t *t, const uint8_t *s, unsigned c, size_t n) {
    if (c == 0) return;
    const __m128i tl128 = _mm_loadu_si128((const __m128i *)(SHUF + c * 32));
    const __m128i th128 = _mm_loadu_si128((const __m128i *)(SHUF + c * 32 + 16));
    const __m256i tl = _mm256_broadcastsi128_si256(tl128);
    const __m256i th = _mm256_broadcastsi128_si256(th128);
    const __m256i mask = _mm256_set1_epi8(0x0f);
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        __m256i v = _mm256_loadu_si256((const __m256i *)(s + i));
        __m256i lo = _mm256_and_si256(v, mask);
        __m256i hi = _mm256_and_si256(_mm256_srli_epi64(v, 4), mask);
        __m256i p = _mm256_xor_si256(_mm256_shuffle_epi8(tl, lo),
                                     _mm256_shuffle_epi8(th, hi));
        __m256i o = _mm256_loadu_si256((const __m256i *)(t + i));
        _mm256_storeu_si256((__m256i *)(t + i), _mm256_xor_si256(o, p));
    }
    const uint8_t *row = MUL + (size_t)c * 256;
    for (; i < n; i++) t[i] ^= row[s[i]];
}
#elif defined(__SSSE3__)
#include <tmmintrin.h>
static void addmul(uint8_t *t, const uint8_t *s, unsigned c, size_t n) {
    if (c == 0) return;
    const __m128i tl = _mm_loadu_si128((const __m128i *)(SHUF + c * 32));
    const __m128i th = _mm_loadu_si128((const __m128i *)(SHUF + c * 32 + 16));
    const __m128i mask = _mm_set1_epi8(0x0f);
    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        __m128i v = _mm_loadu_si128((const __m128i *)(s + i));
        __m128i lo = _mm_and_si128(v, mask);
        __m128i hi = _mm_and_si128(_mm_srli_epi64(v, 4), mask);
        __m128i p = _mm_xor_si128(_mm_shuffle_epi8(tl, lo),
                                  _mm_shuffle_epi8(th, hi));
        __m128i o = _mm_loadu_si128((const __m128i *)(t + i));
        _mm_storeu_si128((__m128i *)(t + i), _mm_xor_si128(o, p));
    }
    const uint8_t *row = MUL + (size_t)c * 256;
    for (; i < n; i++) t[i] ^= row[s[i]];
}
#else
static void addmul(uint8_t *t, const uint8_t *s, unsigned c, size_t n) {
    if (c == 0) return;
    const uint8_t *row = MUL + (size_t)c * 256;
    for (size_t i = 0; i < n; i++) t[i] ^= row[s[i]];
}
#endif

void gf_addmul_row(uint8_t *t, const uint8_t *s, unsigned c, size_t n) {
    addmul(t, s, c, n);
}

void gf_addmul_rows(uint8_t *tgts, ptrdiff_t stride, const uint8_t *src,
                    const uint8_t *coefs, size_t rows, size_t width) {
    for (size_t r = 0; r < rows; r++)
        addmul(tgts + (ptrdiff_t)r * stride, src, coefs[r], width);
}

void gf_matmul(uint8_t *out, const uint8_t *a, const uint8_t *b,
               size_t n, size_t k, size_t m) {
    for (size_t i = 0; i < n; i++) {
        uint8_t *dst = out + i * m;
        const uint8_t *arow = a + i * k;
        for (size_t j = 0; j < k; j++)
            addmul(dst, b + j * m, arow[j], m);
    }
}

ptrdiff_t gf_eliminate(uint8_t *work, size_t rows, size_t width, size_t panel,
                       size_t limit, ptrdiff_t *out_rows, ptrdiff_t *out_cols) {
    ptrdiff_t found = 0;
    for (size_t i = 0; i < rows && (size_t)found < limit; i++) {
        uint8_t *row = work + i * width;
        size_t col = panel;
        for (size_t c = 0; c < panel; c++) {
            if (row[c]) { col = c; break; }
        }
        if (col == panel) continue;
        unsigned pv = row[col];
        if (pv != 1) {
            const uint8_t *mrow = MUL + (size_t)INV[pv] * 256;
            for (size_t c2 = col; c2 < width; c2++) row[c2] = mrow[row[c2]];
        }
        for (size_t r = 0; r < rows; r++) {
            if (r == i) continue;
            uint8_t *other = work + r * width;
            unsigned c2 = other[col];
            if (c2) addmul(other + col, row + col, c2, width - col);
        }
        out_rows[found] = (ptrdiff_t)i;
        out_cols[found] = (ptrdiff_t)col;
        found++;
    }
    return found;
}

/* Single-row insert into a sorted reduced echelon basis, all in place:
   `matrix` holds `rank` valid rows of `width` bytes with pivots
   `pivots[0..rank)` ascending inside the first `blocks` columns, `row`
   is the caller's scratch copy of the candidate.  Returns the position
   the row was stored at, or -1 when it lies in the span.  counts[0] is
   the number of stored rows folded into the candidate, counts[1] the
   number of stored rows the new pivot was eliminated from.

   The stored rows are *reduced* - row i is zero at every other pivot
   column - so folding row i into the candidate cannot change the
   candidate's entry at pivots[j], j != i: each coefficient can be read
   when its turn comes, no coefficient buffer is needed. */
ptrdiff_t gf_basis_insert(uint8_t *matrix, ptrdiff_t *pivots, uint8_t *row,
                          size_t *counts, size_t blocks, size_t width,
                          size_t rank) {
    size_t folded = 0, touched = 0, position = 0, col = 0;
    for (size_t i = 0; i < rank; i++) {
        unsigned c = row[pivots[i]];
        if (c) { addmul(row, matrix + i * width, c, width); folded++; }
    }
    counts[0] = folded;
    counts[1] = 0;
    while (col < blocks && !row[col]) col++;
    if (col == blocks) return -1;
    unsigned pv = row[col];
    if (pv != 1) {
        const uint8_t *mrow = MUL + (size_t)INV[pv] * 256;
        for (size_t c = col; c < width; c++) row[c] = mrow[row[c]];
    }
    for (size_t i = 0; i < rank; i++) {
        uint8_t *other = matrix + i * width;
        unsigned c = other[col];
        if (c) { addmul(other + col, row + col, c, width - col); touched++; }
        position += (size_t)pivots[i] < col;
    }
    counts[1] = touched;
    uint8_t *slot = matrix + position * width;
    memmove(slot + width, slot, (rank - position) * width);
    memmove(pivots + position + 1, pivots + position,
            (rank - position) * sizeof *pivots);
    memcpy(slot, row, width);
    pivots[position] = (ptrdiff_t)col;
    return (ptrdiff_t)position;
}
"""


def _cpu_flags() -> frozenset[str]:
    """The CPU feature flags from /proc/cpuinfo (empty off-Linux)."""
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return frozenset()
    for line in text.splitlines():
        if line.startswith(("flags", "Features")):
            return frozenset(line.split(":", 1)[1].split())
    return frozenset()


def _simd_cflags() -> List[str]:
    """Compiler flags matching what this CPU can actually run.

    The kernel picks its SIMD path with ``#if`` at compile time, so the
    flag must never promise an ISA the host lacks; with neither flag the
    scalar table walk compiles everywhere.
    """
    flags = _cpu_flags()
    if "avx2" in flags:
        return ["-mavx2"]
    if "ssse3" in flags:
        return ["-mssse3"]
    return []


def _build_shuffle_tables() -> np.ndarray:
    """Per-coefficient pshufb tables: ``[c*0..c*15, c*0x00..c*0xF0]``."""
    nibbles = np.arange(16, dtype=np.intp)
    shuf = np.zeros((256, 32), dtype=np.uint8)
    shuf[:, :16] = _MUL_TABLE[:, nibbles]
    shuf[:, 16:] = _MUL_TABLE[:, nibbles << 4]
    return np.ascontiguousarray(shuf)


def _load_library(so_path: Path) -> Optional[ctypes.CDLL]:
    """dlopen the kernel, declare every signature and hand it the tables."""
    ptr = ctypes.c_void_p
    size = ctypes.c_size_t
    ssize = ctypes.c_ssize_t
    lib = clib.load(so_path, {
        "gf_init": ([ptr, ptr, ptr], None),
        "gf_addmul_row": ([ptr, ptr, ctypes.c_uint, size], None),
        "gf_addmul_rows": ([ptr, ssize, ptr, ptr, size, size], None),
        "gf_matmul": ([ptr, ptr, ptr, size, size, size], None),
        "gf_eliminate": ([ptr, size, size, size, size, ptr, ptr], ssize),
        "gf_basis_insert": ([ptr, ptr, ptr, ptr, size, size, size], ssize),
    })
    if lib is None:
        return None
    mul = np.ascontiguousarray(_MUL_TABLE)
    shuf = _build_shuffle_tables()
    inv = np.ascontiguousarray(_INV_TABLE)
    lib.gf_init(mul.ctypes.data, shuf.ctypes.data, inv.ctypes.data)
    return lib


_LIB: Optional[ctypes.CDLL] = None


def _lib() -> ctypes.CDLL:
    """The loaded kernels.  A process handed :class:`GF256Native` by pickle
    (a spawned worker) never ran the provider: load on first use."""
    if _LIB is None and load_native_backend() is None:
        raise RuntimeError("the native GF(2^8) backend cannot load in this process")
    assert _LIB is not None
    return _LIB


def _address(array: np.ndarray) -> int:
    """Address of a C-contiguous array's first byte; ``TypeError`` if strided.

    ``ndarray.ctypes`` builds a helper object per access (over 1 us);
    the buffer protocol is a third of that and checks contiguity itself,
    but refuses the read-only memory packets and generations hand out.
    """
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    except TypeError:
        if array.flags.c_contiguous:
            return int(array.ctypes.data)
        raise


def _bind_basis(basis: EchelonBasis) -> tuple:
    """The per-basis call state of :meth:`GF256Native.basis_insert`.

    ``(scratch, counts, args)``: the row buffer the kernel works in, its
    two out-counts, and the leading ``gf_basis_insert`` arguments with
    every address resolved.  Valid for the life of the basis because
    ``matrix`` and ``pivot_cols`` are never reallocated after
    ``EchelonBasis.__init__`` (and the handle is never pickled).
    """
    matrix, pivot_cols = basis.matrix, basis.pivot_cols
    width = matrix.shape[1]
    scratch = np.empty(width, dtype=np.uint8)
    counts = np.zeros(2, dtype=np.uintp)
    args = (
        _address(matrix),
        _address(pivot_cols),
        _address(scratch),
        _address(counts),
        basis.blocks,
        width,
    )
    return scratch, counts, args


class GF256Native(GF256):
    """GF(2^8) arithmetic on the compiled ``pshufb`` kernels.

    Row kernels, panel elimination and the per-packet ``basis_insert`` /
    ``combine`` run in C; rarely-hot operations (``scale_row``/
    ``scale_rows``, elementwise multiply) inherit the numpy reference.
    Inputs that violate the C layout contract (non-contiguous rows)
    fall back to the reference kernels, so the class is a strict
    drop-in.  Byte-meter arguments are computed only while
    ``codec.bytes_processed`` has a listener.
    """

    name = "native"

    @staticmethod
    def addmul_row(target: np.ndarray, source: np.ndarray, coefficient: int) -> None:
        if coefficient == 0:
            return
        if not (
            target.dtype == np.uint8
            and target.flags.c_contiguous
            and target.flags.writeable
            and source.dtype == np.uint8
            and source.flags.c_contiguous
            and target.shape == source.shape
        ):
            GF256.addmul_row(target, source, coefficient)
            return
        _lib().gf_addmul_row(
            _address(target), _address(source), coefficient, target.size
        )
        meter_bytes(target.size)

    @staticmethod
    def addmul_rows(
        targets: np.ndarray, source: np.ndarray, coefficients: np.ndarray
    ) -> None:
        coefficients = np.ascontiguousarray(coefficients, dtype=np.uint8)
        if not (
            targets.ndim == 2
            and targets.dtype == np.uint8
            and targets.strides[1] == 1
            and targets.flags.writeable
            and source.dtype == np.uint8
            and source.ndim == 1
            and source.flags.c_contiguous
            and targets.shape == (coefficients.shape[0], source.shape[0])
        ):
            GF256.addmul_rows(targets, source, coefficients)
            return
        _lib().gf_addmul_rows(
            targets.ctypes.data,
            targets.strides[0],
            source.ctypes.data,
            coefficients.ctypes.data,
            targets.shape[0],
            source.shape[0],
        )
        if _reference._BYTES_HOOK is not None:
            meter_bytes(int(np.count_nonzero(coefficients)) * source.shape[0])

    @staticmethod
    def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.ascontiguousarray(a, dtype=np.uint8)
        b = np.ascontiguousarray(b, dtype=np.uint8)
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError("matmul requires 2-D operands")
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"shape mismatch: {a.shape} x {b.shape}")
        n, k = a.shape
        m = b.shape[1]
        out = np.zeros((n, m), dtype=np.uint8)
        if k and n and m:
            _lib().gf_matmul(out.ctypes.data, a.ctypes.data, b.ctypes.data, n, k, m)
        if _reference._BYTES_HOOK is not None:
            meter_bytes(int(np.count_nonzero(a.any(axis=1))) * m)
        return out

    @classmethod
    def combine(cls, mix: np.ndarray, rows: np.ndarray) -> np.ndarray:
        if not (
            rows.ndim == 2
            and rows.dtype == np.uint8
            and rows.size
            and mix.dtype == np.uint8
            and mix.shape == rows.shape[:1]
        ):
            return super().combine(mix, rows)
        k, m = rows.shape
        out = np.zeros(m, dtype=np.uint8)
        try:
            _lib().gf_matmul(_address(out), _address(mix), _address(rows), 1, k, m)
        except TypeError:  # a strided operand
            return super().combine(mix, rows)
        if _reference._BYTES_HOOK is not None:
            meter_bytes(m if mix.any() else 0)
        return out

    @classmethod
    def basis_insert(cls, basis: EchelonBasis, row: np.ndarray) -> bool:
        handle = basis.handle
        if handle is None:
            handle = basis.handle = _bind_basis(basis)
        scratch, counts, args = handle
        if row.shape != scratch.shape or row.dtype != np.uint8:
            return super().basis_insert(basis, row)
        scratch[:] = row
        stored = _lib().gf_basis_insert(*args, basis.rank) >= 0
        if _reference._BYTES_HOOK is not None:
            # what the reference's two kernels meter: one product row if
            # anything was folded in, one row per back-substituted pivot row
            meter_bytes((min(int(counts[0]), 1) + int(counts[1])) * scratch.size)
        if stored:
            basis.rank += 1
        return stored

    @classmethod
    def eliminate_panel(
        cls, work: np.ndarray, panel: int, limit: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        if work.ndim != 2:
            raise ValueError(f"expected a 2-D work matrix, got ndim={work.ndim}")
        if not 0 <= panel <= work.shape[1]:
            raise ValueError(f"panel {panel} outside width {work.shape[1]}")
        if not (
            work.dtype == np.uint8
            and work.flags.c_contiguous
            and work.flags.writeable
        ):
            return eliminate_panel_reference(cls, work, panel, limit)
        rows = work.shape[0]
        pivot_rows = np.zeros(rows, dtype=np.intp)
        pivot_cols = np.zeros(rows, dtype=np.intp)
        found = 0
        if rows and work.shape[1]:
            found = int(
                _lib().gf_eliminate(
                    work.ctypes.data,
                    rows,
                    work.shape[1],
                    panel,
                    max(limit, 0),
                    pivot_rows.ctypes.data,
                    pivot_cols.ctypes.data,
                )
            )
        if _reference._BYTES_HOOK is not None:
            # Upper-bound byte meter: each pivot eliminates against up to
            # rows-1 rows full-width (the reference meters only the nonzero
            # subset; exact parity would need per-pivot counts out of C).
            meter_bytes(found * max(rows - 1, 0) * work.shape[1])
        return pivot_rows[:found].copy(), pivot_cols[:found].copy()


def _pattern(rows: int, width: int, step: int) -> np.ndarray:
    """A deterministic (rows, width) byte pattern (no RNG: lint-clean)."""
    values = np.arange(rows * width, dtype=np.int64) * step % 256
    return values.astype(np.uint8).reshape(rows, width)


def _self_test(backend: "type[GF256]") -> bool:
    """Deterministic bit-for-bit check of a candidate against GF256.

    Shapes cover the SIMD main loops and their scalar tails.
    """
    for n, k, m in ((1, 1, 1), (3, 5, 7), (8, 8, 64), (5, 4, 33)):
        a, b = _pattern(n, k, 37), _pattern(k, m, 101)
        if not np.array_equal(backend.matmul(a, b), GF256.matmul(a, b)):
            return False
        if not np.array_equal(backend.combine(a[0], b), GF256.combine(a[0], b)):
            return False
    for rows, width in ((4, 16), (6, 67)):
        targets = _pattern(rows, width, 13)
        source = _pattern(1, width, 7)[0]
        coefficients = _pattern(1, rows, 29)[0]
        expected = targets.copy()
        GF256.addmul_rows(expected, source, coefficients)
        got = targets.copy()
        backend.addmul_rows(got, source, coefficients)
        if not np.array_equal(got, expected):
            return False
    work = _pattern(6, 20, 151)
    expected_work = work.copy()
    exp_rows, exp_cols = GF256.eliminate_panel(expected_work, 6, 6)
    got_work = work.copy()
    got_rows, got_cols = backend.eliminate_panel(got_work, 6, 6)
    if not (
        np.array_equal(got_work, expected_work)
        and np.array_equal(got_rows, exp_rows)
        and np.array_equal(got_cols, exp_cols)
    ):
        return False
    return all(
        _insert_stream_matches(backend, blocks, width)
        for blocks, width in ((5, 5), (5, 5 + 31), (5, 5 + 33), (12, 12 + 64))
    )


def _insert_stream_matches(backend: "type[GF256]", blocks: int, width: int) -> bool:
    """Feed one row stream (dense, scaled copies, a zero row) through the
    candidate's and the reference's ``basis_insert``; compare everything."""
    rows = _pattern(blocks + 3, width, 89)
    rows[2] = GF256.scale_row(rows[0], 7)
    rows[4] = 0
    got, expected = EchelonBasis(backend, blocks, width), EchelonBasis(GF256, blocks, width)
    for row in rows:
        if got.insert(row) != expected.insert(row):
            return False
    rank = expected.rank
    return (
        got.rank == rank
        and np.array_equal(got.matrix[:rank], expected.matrix[:rank])
        and np.array_equal(got.pivot_cols[:rank], expected.pivot_cols[:rank])
    )


def load_native_backend() -> Optional["type[GF256]"]:
    """The compiled field, or ``None`` where it cannot run.

    Compiles (or reuses) the shared object, loads it, and only returns
    the class after it passes the reference self-test.  Any failure —
    no compiler, dlopen error, divergence — yields ``None``.
    """
    global _LIB
    if _LIB is None:
        so_path = clib.build("gf_native", _C_SOURCE, ["-O3", *_simd_cflags()])
        if so_path is None:
            return None
        _LIB = _load_library(so_path)
        if _LIB is None:
            return None
    if not _self_test(GF256Native):
        return None
    return GF256Native


__all__ = ["GF256Native", "load_native_backend"]
