"""The slot loop compiled: one foreign call per epoch, or per half slot.

A core that :func:`~repro.emulator.engine.compilable` admits keeps its
runtimes as :class:`~repro.emulator.columns.Columns` rows and runs its
slots through ``repro/kernels/slots.c`` (:data:`SOURCE`), in place on the
arrays it owns.  Per slot the loop runs what the scalar form
(:class:`~repro.emulator.engine.EngineCore` over runtime objects) runs, in
its order: every row's ``on_slot`` (credit, cap, drain, drops, the
credit-mode EWMA, contenders and weights, the park check; a unicast row
queues a packet per whole credit and drops what does not fit), the lottery
keys, the stable (key, position) order and the greedy grant, then the
granted transmitters' pops (a composite's round robin, XOR pairs first),
transmitting and blanking coverage over every granted id, one loss run per
transmitter in grant order, ``on_receive`` at the receivers taken
row-major (a composite's at the packet's session's row, an exact row's
elimination in ``kernels/gf256.h``), the unicast attempts (one uniform of the
row's loss stream, drawn only past the half-duplex and blanking checks and
at ``p > 0``), their hops' appends or drops and
``complete_transmission``'s verdicts, and the queue samples.  It is exact,
not close: every double operation is the scalar form's, in its order,
compiled with ``-ffp-contract=off`` (no FMA contraction, no
``-ffast-math``, no ``-march``).

``Core.phase`` says what a call runs (:data:`EPOCH` and the rest): an
epoch of up to ``budget`` slots, granted here; or one half of a slot
whose grant a shard parent makes over several cores' keys — the tick and
the keys, or the fire given the whole granted tuple, absorbing at the
receivers or handing every arrival back untouched.  A delivery to a sink
and a destination's decode come back as ``(slot, rank, place, position,
value)`` for Python to call ``on_delivered`` or ``on_decoded``; after the
slot's queue samples the kernel ACKs the decode, every row's ``_reset``
(a composite's, that session's rows').  An exact row's coefficients come
from its own generator's PCG64 state, drawn as numpy's ``integers(0, 256,
dtype=np.uint8)`` draws them (``random_bounded_uint8_fill``).

An epoch returns on any of six exits, each at a slot boundary the scalar
form also stops at, or before the samples of a slot Python finishes: the
budget, the decode limit or an output buffer is spent, nothing is left
awake, a hosted node on the cut contends (:data:`CUT`: the keys and
contenders are handed back), a relay hears a newer generation — a
forwarder a re-plan added (:data:`FALLBACK`: the arrivals are handed
back, the slot is not sampled yet) — or a decode's ACK would adopt a
row's deferred coding decision (:data:`ACK`: the slot is done, nothing
advanced).  Every lottery key and loss uniform comes from a
:class:`StreamBank` whose rows the kernel seeds, fills and reads itself,
numpy's own algorithms in C, so the banks hand every node the values its
buffers would and no call re-enters Python.

:func:`load` compiles that file on first use (:mod:`repro.util.clib`),
linking numpy's ``libnpyrandom.a`` for the exponential and the byte
draws, and opens it (the GF(2^8) tables handed over as the codec's);
:func:`~repro.emulator.engine.compiled_kernel` self-tests it against the
scalar form and numpy's generators before any core runs on it.
:class:`Core` takes its pointers from one table, :data:`POINTERS` (each
field's dtype and its shape in Core's dimension fields, checked whenever
it is pointed), and ``tests/test_struct_mirror.py`` checks it, and
:class:`Bank`, against the C structs field for field (every field 8
bytes, so no padding).
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.util import clib
from repro.util.rng import DrawBuffers, RngFactory

SOURCE = Path(__file__).parents[1] / "kernels" / "slots.c"

#: What :func:`load`'s kernel returns: the budget, decode limit or an
#: output buffer ran out, nothing is awake, a cut node contends, an
#: arrival or an ACK takes the object path, or scratch or a level failed.
BUDGET, ASLEEP, CUT, FALLBACK, ACK, FAILED = 0, 1, 2, 3, 4, -1
#: What a call runs (``Core.phase``): an epoch of up to ``budget`` slots;
#: a slot's first half, handing the keys back as :data:`CUT` does; or its
#: second half over the granted ids in ``grant_in``, absorbing at the
#: receivers (``RESOLVE``) or handing every arrival back as :data:`FALLBACK`
#: does, no row touched and the slot not sampled (``FIRE``).
EPOCH, CONTEND, RESOLVE, FIRE = 0, 1, 2, 3
#: Columns of a handed-back arrival: receiver, rank, place, sender, exact,
#: then (session, generation, level) per component, a flow packet's
#: content or an exact one's vector length, -1s for a second it lacks.
HANDED = 11

#: A declared shape: the extents the kernel indexes an array by, read
#: from :class:`Core`'s dimension fields (``None``: bounded some other way,
#: by an offset table, an argument or an id).
Shape = Callable[[Any], Tuple[Optional[int], ...]]
#: One :data:`POINTERS` entry: field, dtype, shape.
Pointer = Tuple[str, Optional[type], Shape]


def _each(
    fields: str, dtype: Optional[type], shape: Shape = lambda c: (c.rows,)
) -> Iterator[Pointer]:
    return ((field, dtype, shape) for field in fields.split())


#: ``(field, dtype, shape)`` of every :class:`Core` pointer, in the C
#: struct's order.  The array is the core's
#: :class:`~repro.emulator.columns.Columns` attribute ``_field`` or
#: ``field``, else the :class:`~repro.emulator.engine.EngineCore`'s own
#: ``_field``; a ``None`` dtype is a :class:`StreamBank`.
POINTERS: Tuple[Pointer, ...] = (
    # Columns
    *_each("role", np.int8), *_each("credit_mode source destination rate_relay", np.bool_),
    ("upstream", np.bool_, lambda c: (c.positions, c.rx_width)),
    *_each("pending exact", np.bool_),
    *_each("increment tx_credit cap accrual credit demand enqueued information", np.float64),
    *_each("blocks session limit", np.int64),
    ("credit_rows", np.int64, lambda c: (c.credit_count,)),
    *_each("generation queue", np.int64), ("levels", np.int64, lambda c: (c.rows, c.width)),
    *_each("generated sent dropped heard accepted decoded decoded_blocks", np.int64),
    ("awake", np.bool_, lambda c: (c.positions,)),
    # the unicast rows' own
    ("unicast_rows", np.int64, lambda c: (c.unicasts,)), *_each("next_hop hop_cell", np.int64),
    ("ring_ptr", np.int64, lambda c: (c.rows + 1,)), *_each("arrival hop_p", np.float64),
    *_each("offered", np.bool_), *_each("next_seq head", np.int64),
    ("ring", np.int64, lambda c: (None,)),
    # the composites' own (empty without one)
    ("group_ptr", np.int64, lambda c: (c.positions + 1,)), *_each("row_position", np.int64),
    *_each("active", np.bool_), ("composite", np.bool_, lambda c: (c.positions,)),
    ("cursor", np.int64, lambda c: (c.positions,)),
    ("pair_ptr", np.int64, lambda c: (c.positions + 1,)),
    ("pair_rows", np.int64, lambda c: (None, 2)), ("xor_sent", np.int64, lambda c: (c.positions,)),
    *_each("session_tx", np.int64), *_each("row_queue_time", np.float64),
    *_each("heard_from row_upstream", np.bool_, lambda c: (c.rows, c.pad + 1)),
    # the exact rows' own (empty without one)
    *_each("systematic", np.bool_), *_each("emitted received", np.int64),
    ("coded_ptr", np.int64, lambda c: (c.rows + 1,)), *_each("coded_cap", np.int64),
    ("coded_ring", np.uint8, lambda c: (None,)),
    ("basis", np.uint8, lambda c: (c.rows, c.vwidth * c.vwidth)),
    ("pivots", np.int64, lambda c: (c.rows, c.vwidth)),
    ("vectors", np.uint8, lambda c: (c.rows, c.vwidth * c.vwidth)),
    ("coding", np.uint64, lambda c: (c.rows, 6)),
    # EngineCore
    ("rx_ids", np.int64, lambda c: (c.positions, c.rx_width)),
    ("cov", np.int64, lambda c: (None, c.cov_width)), ("cov_row", np.int64, lambda c: (c.pad,)),
    ("position_of", np.int64, lambda c: (c.pad + 1,)),
    ("node_of", np.int64, lambda c: (c.positions,)),
    ("conflict_ptr", np.int64, lambda c: (c.positions + 1,)),
    ("conflict", np.int64, lambda c: (None,)),
    ("rx_p", np.float64, lambda c: (c.positions, c.rx_width)),
    ("cut_mask", np.bool_, lambda c: (c.positions,)),
    ("queue_time", np.float64, lambda c: (c.positions,)),
    ("fired", np.int64, lambda c: (c.positions,)),
    ("delivered", np.bool_, lambda c: (c.positions, c.rx_width)),
    *_each("mac loss", None), *_each("mac_rows loss_rows", np.int64, lambda c: (c.positions,)),
    # what a call hands back, and what a finish is given
    *_each("slot_granted slot_contenders", np.int64, lambda c: (None,)),
    ("granted_ids", np.int64, lambda c: (c.id_capacity,)),
    ("contender_out", np.int64, lambda c: (c.positions + 1,)),
    ("fallback_out", np.int64, lambda c: (c.pad + 1, HANDED)),
    ("sink_out", np.int64, lambda c: (c.sink_capacity, 5)),
    ("key_out", np.float64, lambda c: (c.positions + 1,)),
    ("fallback_vectors", np.uint8, lambda c: (c.pad + 1, 2 * c.vwidth)),
    ("grant_in", np.int64, lambda c: (c.pad + 1,)),
)


class Core(ctypes.Structure):
    """One core's arrays and an epoch's outputs, as the kernel sees them."""

    _fields_ = clib.fields(
        "rows positions width rx_width cov_width pad credit_count unicasts grouped vwidth"
        " blanking cut ticks park_interval named id_capacity sink_capacity decode_limit"
        " slots ids contenders fallbacks sunk decodes phase grants",
        "floor smoothing",
        " ".join(field for field, _dtype, _shape in POINTERS),
    )


def address(
    array: np.ndarray, dtype: type, shape: Tuple[Optional[int], ...], field: str
) -> Optional[int]:
    """``array``'s data pointer, once it is checked to be what the kernel
    reads at ``field`` — ``dtype``, ``shape`` (``None``: any length),
    C-contiguous — else a ``ValueError``.  An empty array is NULL, of any
    shape: the kernel never indexes one (a kind of row the core lacks)."""
    found: object
    if array.dtype != dtype:
        expected, found = f"dtype {np.dtype(dtype)}", array.dtype
    elif not array.size:
        return None
    elif array.shape != shape and (array.ndim != len(shape) or any(
        bound is not None and bound != extent for bound, extent in zip(shape, array.shape)
    )):
        expected, found = f"shape {tuple('*' if b is None else b for b in shape)}", array.shape
    elif not array.flags.c_contiguous:
        expected, found = "a C-contiguous array", f"strides {array.strides}"
    else:
        return int(array.ctypes.data)
    raise ValueError(f"Core.{field}: expected {expected}, found {found}")


class Bank(ctypes.Structure):
    """One :class:`StreamBank` as the kernel sees it."""

    _fields_ = clib.fields(
        "block exponential words unbanked", "", "entropy name values cursor state nodes"
    )


class StreamBank:
    """Pre-drawn blocks of per-node streams, for the compiled slot loop.

    One row of :attr:`BLOCK` values per node, a cursor, and the node's
    generator state, all drawn in C: on a row's first draw its PCG64 is
    seeded as ``RngFactory(seed).derive(f"node-{kind}", node)`` seeds it
    (numpy's ``SeedSequence`` algorithm), and a fill is the call the
    scalar consumer makes — numpy's own ``random_standard_exponential``
    for "mac", PCG64's ``next_double`` for "channel".  So a node consumes
    exactly the values :class:`~repro.util.rng.DrawBuffers` hands the
    scalar form, whatever else is taken and wherever refills fall: the
    kernel draws inside an epoch without calling back into Python, and
    the scalar form's numpy generators are the reference the load-time
    self-test checks these streams against.

    ``take`` is the kernel's ``bank_take`` (:class:`Kernel`); :meth:`take`
    is how Python reads a bank.
    """

    #: Values drawn per refill: the scalar form's block, one constant.
    BLOCK = DrawBuffers.BLOCK

    _EXPONENTIAL = {"mac": 1, "channel": 0}

    def __init__(self, take: Callable[..., None], factory: RngFactory, kind: str) -> None:
        try:
            exponential = self._EXPONENTIAL[kind]
        except KeyError:
            known = ", ".join(self._EXPONENTIAL)
            raise ValueError(f"stream kind {kind!r} cannot be banked (known: {known})") from None
        self._take = take
        self._block = block = self.BLOCK
        seed = factory.seed
        words = [seed >> shift & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)]
        # SeedSequence's entropy words, padded to its pool of four as it
        # pads them when a spawn key follows.
        self._entropy = np.zeros(max(len(words), 4), dtype=np.uint32)
        self._entropy[: len(words)] = words
        self._name = ctypes.create_string_buffer(f"node-{kind}".encode())
        self._row_of: Dict[int, int] = {}
        self._nodes = np.empty(0, dtype=np.int64)
        self._values = np.empty((0, block))
        # A row is empty when its cursor stands at the block's end, which
        # is how every row starts: generators are seeded, and rows filled,
        # only for nodes that actually draw.
        self._cursor = np.empty(0, dtype=np.int64)
        self._state = np.empty((0, 4), dtype=np.uint64)
        self._bank = Bank(
            block=block, exponential=exponential, words=len(self._entropy),
            entropy=self._entropy.ctypes.data, name=ctypes.addressof(self._name),
        )

    @property
    def address(self) -> int:
        """Where the kernel finds the bank (a :class:`Core` bank pointer)."""
        return ctypes.addressof(self._bank)

    def rows_for(self, nodes: Sequence[int]) -> np.ndarray:
        """The bank rows of ``nodes``, in order; unseen nodes get new rows
        (one each, however often they are named)."""
        row_of = self._row_of
        fresh = list(dict.fromkeys(node for node in nodes if node not in row_of))
        if fresh:
            for node in fresh:
                row_of[node] = len(row_of)
            block, grown = self._block, len(fresh)
            self._nodes = np.concatenate([self._nodes, np.array(fresh, dtype=np.int64)])
            self._values = np.concatenate([self._values, np.empty((grown, block))])
            self._cursor = np.concatenate([self._cursor, np.full(grown, block, dtype=np.int64)])
            self._state = np.concatenate([self._state, np.zeros((grown, 4), dtype=np.uint64)])
            for name in ("nodes", "values", "cursor", "state"):
                setattr(self._bank, name, getattr(self, "_" + name).ctypes.data)
        return np.fromiter((row_of[node] for node in nodes), dtype=np.intp, count=len(nodes))

    def take(self, rows: np.ndarray, counts: Optional[np.ndarray] = None) -> np.ndarray:
        """The next ``counts[i]`` values of row ``rows[i]``, concatenated
        (one value per row without ``counts``)."""
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        if len(rows) and not 0 <= rows.min() <= rows.max() < len(self._row_of):
            raise ValueError("a row this bank does not have")
        counts_at: Optional[int] = None
        total = len(rows)
        if counts is not None:
            counts = np.ascontiguousarray(counts, dtype=np.int64)
            if counts.shape != rows.shape or (len(counts) and counts.min() < 0):
                raise ValueError("one count per row, none negative")
            counts_at, total = counts.ctypes.data, int(counts.sum())
        out = np.empty(total)
        bank = ctypes.byref(self._bank)
        self._take(bank, len(rows), rows.ctypes.data, counts_at, out.ctypes.data)
        return out


#: numpy's C distributions, shipped in its wheel: the kernel links
#: ``random_standard_exponential`` from here.
NPYRANDOM = Path(np.random.__file__).parent / "lib" / "libnpyrandom.a"


class Kernel(NamedTuple):
    """The compiled slot loop: ``run(core, budget) -> status``; ``take``,
    the draw every :class:`StreamBank` of its cores reads with; and
    ``coding_draw(state, out, count)``, an exact row's coefficient draw
    (``Generator.integers(0, 256, size=count, dtype=np.uint8)`` on the
    PCG64 whose state is six words: :func:`coding_state`)."""

    run: Callable[..., int]
    take: Callable[..., None]
    coding_draw: Callable[..., None]


def coding_state(generator: np.random.Generator) -> list:
    """``generator``'s PCG64 state as the kernel holds it: the state's and
    the increment's high and low words, ``has_uint32`` and ``uinteger``."""
    state = generator.bit_generator.state
    words = state["state"]["state"], state["state"]["inc"]
    mask = (1 << 64) - 1
    return [
        *(part for word in words for part in (word >> 64, word & mask)),
        state["has_uint32"], state["uinteger"],
    ]


def set_coding_state(generator: np.random.Generator, words: Sequence[int]) -> None:
    """Put six kernel words (:func:`coding_state`) back into ``generator``."""
    generator.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": words[0] << 64 | words[1], "inc": words[2] << 64 | words[3]},
        "has_uint32": words[4],
        "uinteger": words[5],
    }


def load() -> Optional[Kernel]:
    """Build (or find) and dlopen the kernel; ``None`` if either fails —
    or if numpy's ``libnpyrandom.a``, which it links, is not there.

    Unchecked: :func:`repro.emulator.engine.compiled_kernel` self-tests
    it against the scalar form and numpy's generators before any core
    runs on it.
    """
    from repro.coding.gf256 import _INV_TABLE, _MUL_TABLE
    from repro.coding.native import _build_shuffle_tables

    pointer, int64 = ctypes.c_void_p, ctypes.c_int64
    signatures = {
        "slots_run": ([pointer, int64], ctypes.c_int),
        "bank_take": ([pointer, int64, pointer, pointer, pointer], None),
        "coding_draw": ([pointer, pointer, int64], None),
        "gf_init": ([pointer, pointer, pointer], None),
    }
    lib = clib.load(
        "slots", SOURCE, ["-O2", "-ffp-contract=off"], signatures, [str(NPYRANDOM), "-lm"]
    )
    if lib is None:
        return None
    tables = [
        np.ascontiguousarray(_MUL_TABLE), _build_shuffle_tables(), np.ascontiguousarray(_INV_TABLE)
    ]
    lib.gf_init(*(table.ctypes.data for table in tables))
    return Kernel(lib.slots_run, lib.bank_take, lib.coding_draw)
