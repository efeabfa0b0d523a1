"""The compiled GF(2^8) backend: C kernels loaded through ctypes.

The paper's accelerated codec is an SSE2 loop that multiplies a whole
row by a scalar with shuffle-based nibble tables; ``repro/kernels/gf256.c``
(:data:`SOURCE`) is that loop's modern descendant (``pshufb`` on AVX2 or
SSSE3, scalar table walk elsewhere).  It is compiled once with the
system C compiler into a content-addressed shared object under the user
cache directory and loaded through ``ctypes``, both by
:mod:`repro.util.clib`.

Nothing here is imported eagerly: :func:`load_native_backend` is what
:func:`repro.coding.backends.default_field` calls once per process.  It
returns ``None`` whenever the toolchain is missing or the self-test
against the numpy reference fails, so machines without a compiler run
the reference instead of breaking the codec.

Each class calls the library it loaded itself.  :class:`GF256TableWalk`
is the same code on the same source built without SIMD flags, so its row
kernel is the ``MUL`` table walk: the paper's lookup-table codec, which
Sec. 4's timing (:mod:`repro.experiments.coding_speed`) compares with
the ``pshufb`` build through :func:`load_table_walk`.

The per-packet entry points (:meth:`GF256Native.basis_insert`,
:meth:`GF256Native.combine`) are one foreign call each, and so is the
decoder's batch (:meth:`GF256Native.basis_insert_rows`): what a wrapper
does around the call — contiguity checks, address look-ups, the byte
meter's argument — costs more than the field arithmetic on a 40-byte
coding vector, so addresses are bound once per basis and the meter is
computed only while a hook listens.
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import ClassVar, List, Optional, Tuple

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

SOURCE = Path(__file__).parents[1] / "kernels" / "gf256.c"


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


def _load_library(stem: str, flags: List[str]) -> Optional[ctypes.CDLL]:
    """Build and dlopen the kernels with ``-O3`` and ``flags``, declare
    every signature and hand them the tables."""
    ptr = ctypes.c_void_p
    size = ctypes.c_size_t
    ssize = ctypes.c_ssize_t
    lib = clib.load(stem, SOURCE, ["-O3", *flags], {
        "gf_init": ([ptr, ptr, ptr], None),
        "gf_addmul_row": ([ptr, ptr, ctypes.c_uint, size], None),
        "gf_addmul_rows": ([ptr, ssize, ptr, ptr, size, size], None),
        "gf_matmul": ([ptr, ptr, ptr, size, size, size], None),
        "gf_eliminate": ([ptr, size, size, size, size, ptr, ptr], ssize),
        "gf_basis_insert": ([ptr, ptr, ptr, ptr, size, size, size], ssize),
        "gf_basis_insert_rows": (
            [ptr, ptr, ptr, ptr, size, size, size, ptr, size, ptr], size
        ),
    })
    if lib is None:
        return None
    mul = np.ascontiguousarray(_MUL_TABLE)
    shuf = _build_shuffle_tables()
    inv = np.ascontiguousarray(_INV_TABLE)
    lib.gf_init(mul.ctypes.data, shuf.ctypes.data, inv.ctypes.data)
    return lib


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
    """The per-basis call state of :meth:`GF256Native.basis_insert` and
    :meth:`GF256Native.basis_insert_rows`.

    ``(scratch, counts, args)``: the row buffer the kernel works in, its
    two out-counts, and the leading ``gf_basis_insert[_rows]`` arguments with
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

    Row kernels, panel elimination, the per-packet ``basis_insert`` /
    ``combine`` and the batched ``basis_insert_rows`` run in C;
    rarely-hot operations (``scale_row``/``scale_rows``, elementwise
    multiply) inherit the numpy reference.
    Inputs that violate the C layout contract (non-contiguous rows)
    fall back to the reference kernels, so the class is a strict
    drop-in.  Byte-meter arguments are computed only while
    ``codec.bytes_processed`` has a listener.
    """

    name = "native"
    #: The kernels this class calls, once :func:`_load` has opened them.
    _lib: ClassVar[Optional[ctypes.CDLL]] = None
    #: The shared object's cache stem.
    _stem: ClassVar[str] = "gf_native"

    @staticmethod
    def _cflags() -> List[str]:
        """Flags beyond ``-O3``: the SIMD path this CPU runs."""
        return _simd_cflags()

    @classmethod
    def _open(cls) -> ctypes.CDLL:
        """The kernels, loaded on first use: a process handed the class by
        pickle (a spawned worker) never ran the provider."""
        if _load(cls) is None or cls._lib is None:
            raise RuntimeError(f"the {cls.name} GF(2^8) kernels cannot load in this process")
        return cls._lib

    @classmethod
    def addmul_row(cls, target: np.ndarray, source: np.ndarray, coefficient: int) -> None:
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
        (cls._lib or cls._open()).gf_addmul_row(
            _address(target), _address(source), coefficient, target.size
        )
        meter_bytes(target.size)

    @classmethod
    def addmul_rows(
        cls, targets: np.ndarray, source: np.ndarray, coefficients: np.ndarray
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
        (cls._lib or cls._open()).gf_addmul_rows(
            targets.ctypes.data,
            targets.strides[0],
            source.ctypes.data,
            coefficients.ctypes.data,
            targets.shape[0],
            source.shape[0],
        )
        if _reference._BYTES_HOOK is not None:
            meter_bytes(int(np.count_nonzero(coefficients)) * source.shape[0])

    @classmethod
    def matmul(cls, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if not (type(a) is np.ndarray and a.dtype == np.uint8 and a.flags.c_contiguous):
            a = np.ascontiguousarray(a, dtype=np.uint8)
        if not (type(b) is np.ndarray and b.dtype == np.uint8 and b.flags.c_contiguous):
            b = np.ascontiguousarray(b, dtype=np.uint8)
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError("matmul requires 2-D operands")
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"shape mismatch: {a.shape} x {b.shape}")
        n, k = a.shape
        m = b.shape[1]
        out = np.zeros((n, m), dtype=np.uint8)
        if k and n and m:
            (cls._lib or cls._open()).gf_matmul(
                _address(out), _address(a), _address(b), n, k, m
            )
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
            (cls._lib or cls._open()).gf_matmul(
                _address(out), _address(mix), _address(rows), 1, k, m
            )
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
        stored = (cls._lib or cls._open()).gf_basis_insert(*args, basis.rank) >= 0
        if _reference._BYTES_HOOK is not None:
            # what the reference's two kernels meter: one product row if
            # anything was folded in, one row per back-substituted pivot row
            meter_bytes((min(int(counts[0]), 1) + int(counts[1])) * scratch.size)
        if stored:
            basis.rank += 1
        return stored

    @classmethod
    def basis_insert_rows(cls, basis: EchelonBasis, rows: np.ndarray) -> np.ndarray:
        handle = basis.handle
        if handle is None:
            handle = basis.handle = _bind_basis(basis)
        scratch, counts, args = handle
        if not (
            rows.ndim == 2
            and rows.shape[0]
            and rows.shape[1] == scratch.size
            and rows.dtype == np.uint8
            and rows.flags.c_contiguous
        ):
            return super().basis_insert_rows(basis, rows)
        verdicts = np.empty(rows.shape[0], dtype=bool)
        basis.rank = (cls._lib or cls._open()).gf_basis_insert_rows(
            *args, basis.rank, _address(rows), rows.shape[0], _address(verdicts)
        )
        if _reference._BYTES_HOOK is not None:
            meter_bytes((int(counts[0]) + int(counts[1])) * scratch.size)
        return verdicts

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
                (cls._lib or cls._open()).gf_eliminate(
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
    """Feed one row stream (dense, scaled copies, a zero row, rows past
    full rank) through the reference's ``basis_insert``, the candidate's,
    and the candidate's ``basis_insert_rows`` in batches of 1, 4 and the
    rest; compare everything."""
    rows = _pattern(blocks + 3, width, 89)
    rows[2] = GF256.scale_row(rows[0], 7)
    rows[4] = 0
    expected = EchelonBasis(GF256, blocks, width)
    verdicts = [expected.insert(row) for row in rows]
    got = EchelonBasis(backend, blocks, width)
    if [got.insert(row) for row in rows] != verdicts:
        return False
    batched = EchelonBasis(backend, blocks, width)
    batches = (rows[:1], rows[1:5], rows[5:])
    if [v for batch in batches for v in batched.insert_rows(batch).tolist()] != verdicts:
        return False
    rank = expected.rank
    return all(
        basis.rank == rank
        and np.array_equal(basis.matrix[:rank], expected.matrix[:rank])
        and np.array_equal(basis.pivot_cols[:rank], expected.pivot_cols[:rank])
        for basis in (got, batched)
    )


class GF256TableWalk(GF256Native):
    """:class:`GF256Native` on the same source built without SIMD flags:
    ``addmul`` compiles to the ``MUL`` table walk, the lookup-table codec
    the paper's SSE2 loop is measured against (Sec. 4)."""

    name = "table-walk"
    _lib = None
    _stem = "gf_table"

    @staticmethod
    def _cflags() -> List[str]:
        return []


def _load(field: "type[GF256Native]") -> Optional["type[GF256Native]"]:
    """``field`` once its library is loaded and it passes the reference
    self-test, else ``None``: no compiler, dlopen error, divergence."""
    if field._lib is None:
        field._lib = _load_library(field._stem, field._cflags())
    if field._lib is None or not _self_test(field):
        return None
    return field


def load_native_backend() -> Optional["type[GF256]"]:
    """The compiled field, or ``None`` where it cannot run.

    Compiles (or reuses) the shared object, loads it, and only returns
    the class after it passes the reference self-test.
    """
    return _load(GF256Native)


def load_table_walk() -> Optional["type[GF256]"]:
    """:class:`GF256TableWalk`, loaded and self-tested like
    :func:`load_native_backend`, or ``None`` where it cannot run."""
    return _load(GF256TableWalk)


__all__ = ["GF256Native", "GF256TableWalk", "load_native_backend", "load_table_walk"]
