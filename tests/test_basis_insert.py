"""The per-packet field calls: ``basis_insert`` and ``combine``.

Every backend's single-row insert, and its batched
``basis_insert_rows``, must leave the basis exactly as the numpy
reference's two-kernel shape does, row by row — rows, pivots, rank,
verdicts and the bytes it reports to ``codec.bytes_processed`` — on any
row stream and any width (the compiled kernel has SIMD main loops and
scalar tails, and no buffer sized by the generation).  ``combine`` is
``matmul(mix[None], rows)[0]`` on every input, whatever its layout.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.coding.backends import available_backends, get_backend
from repro.coding.basis import EchelonBasis
from repro.coding.encoder import RelayReEncoder
from repro.coding.gf256 import GF256
from repro.coding.packet import CodedPacket

FIELDS = [get_backend(name) for name in available_backends()]
by_field = pytest.mark.parametrize("field", FIELDS, ids=lambda field: field.name)

ROW_KINDS = ("dense", "late", "dependent", "scaled", "unit", "zero", "payload-only")


def _row_stream(rng, kinds, blocks, width):
    """One row per kind; "dependent"/"scaled" refer back to earlier rows."""
    rows = np.zeros((len(kinds), width), dtype=np.uint8)
    for index, kind in enumerate(kinds):
        dense = rng.integers(0, 256, size=width, dtype=np.uint8)
        if kind == "dense":
            rows[index] = dense
        elif kind == "late":  # leading zeros: the pivot lands mid-basis
            dense[: rng.integers(0, blocks)] = 0
            rows[index] = dense
        elif kind == "dependent" and index:
            mix = rng.integers(0, 256, size=(1, index), dtype=np.uint8)
            rows[index] = GF256.matmul(mix, rows[:index])[0]
        elif kind == "scaled" and index:
            earlier = rows[rng.integers(0, index)]
            rows[index] = GF256.scale_row(earlier, int(rng.integers(1, 256)))
        elif kind == "unit":
            dense[:blocks] = 0
            dense[rng.integers(0, blocks)] = 1
            rows[index] = dense
        elif kind == "payload-only":  # in the span, payload bytes or not
            rows[index, blocks:] = dense[blocks:]
    return rows


def _feed(field, blocks, rows, batched=False):
    """Insert ``rows`` one by one (as one batch if ``batched``); the basis,
    the verdicts, the metered bytes."""
    with obs.collecting() as registry:
        basis = EchelonBasis(field, blocks, rows.shape[1])
        if batched:
            verdicts = field.basis_insert_rows(basis, rows).tolist()
        else:
            verdicts = [field.basis_insert(basis, row) for row in rows]
    return basis, verdicts, registry.value("codec.bytes_processed")


@by_field
class TestBasisInsert:
    @given(
        blocks=st.sampled_from([1, 7, 40, 300]),
        extra=st.sampled_from([0, 1, 31, 32, 33, 1024]),
        kinds=st.lists(st.sampled_from(ROW_KINDS), max_size=14),
        strided=st.booleans(),
        batched=st.booleans(),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_row_stream_matches_the_reference(
        self, field, blocks, extra, kinds, strided, batched, seed
    ):
        width = blocks + extra
        rows = _row_stream(np.random.default_rng(seed), kinds, blocks, width)
        if strided:  # every row a non-contiguous view
            rows = np.repeat(rows, 2, axis=1)[:, ::2]
        offered = rows.copy()
        got, got_verdicts, got_bytes = _feed(field, blocks, rows, batched)
        want, want_verdicts, want_bytes = _feed(GF256, blocks, rows)
        assert np.array_equal(rows, offered)
        assert got_verdicts == want_verdicts
        rank = want.rank
        assert got.rank == rank == sum(want_verdicts)
        assert np.array_equal(got.matrix[:rank], want.matrix[:rank])
        assert np.array_equal(got.pivot_cols[:rank], want.pivot_cols[:rank])
        assert got_bytes == want_bytes

    def test_full_generation_decodes_to_the_identity(self, field):
        blocks, width = 12, 12 + 45
        rng = np.random.default_rng(3)
        basis = EchelonBasis(field, blocks, width)
        offered = 0
        while basis.rank < blocks:
            basis.insert(rng.integers(0, 256, size=width, dtype=np.uint8))
            offered += 1
        assert offered < 3 * blocks
        assert np.array_equal(basis.matrix[:, :blocks], np.eye(blocks, dtype=np.uint8))
        assert np.array_equal(basis.pivot_cols, np.arange(blocks))
        # full rank: everything is in the span, nothing is written
        before = basis.matrix.copy()
        assert not basis.insert(rng.integers(0, 256, size=width, dtype=np.uint8))
        assert np.array_equal(basis.matrix, before)

    def test_basis_survives_pickling_mid_stream(self, field):
        # Shard workers receive runtimes by pickle: whatever a backend
        # cached about the buffers must not travel with them.
        rng = np.random.default_rng(11)
        rows = rng.integers(0, 256, size=(8, 6 + 33), dtype=np.uint8)
        whole = EchelonBasis(field, 6, rows.shape[1])
        halves = EchelonBasis(field, 6, rows.shape[1])
        for row in rows[:3]:
            whole.insert(row)
            halves.insert(row)
        halves = pickle.loads(pickle.dumps(halves))
        for row in rows[3:]:
            assert whole.insert(row) == halves.insert(row)
        assert halves.rank == whole.rank
        assert np.array_equal(halves.matrix, whole.matrix)
        assert np.array_equal(halves.pivot_cols, whole.pivot_cols)

    def test_relay_accept_leaves_the_packet_untouched(self, field):
        rng = np.random.default_rng(7)
        relay = RelayReEncoder(1, 5, rng, field=field)
        vectors = rng.integers(0, 256, size=(7, 5), dtype=np.uint8)
        vectors[3] = GF256.scale_row(vectors[1], 0x1D)  # one dependent arrival
        for vector in vectors:
            packet = CodedPacket(1, 0, vector)
            relay.accept(packet)
            assert np.array_equal(packet.coefficients, vector)


@by_field
class TestCombine:
    @given(
        k=st.integers(min_value=0, max_value=12),
        m=st.sampled_from([0, 1, 31, 32, 33, 64, 1024]),
        layout=st.sampled_from(
            ["contiguous", "read-only", "strided-rows", "strided-columns", "strided-mix"]
        ),
        zero_mix=st.booleans(),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_combine_is_the_one_row_matmul(self, field, k, m, layout, zero_mix, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 256, size=(k, m), dtype=np.uint8)
        mix = rng.integers(0, 256 * (not zero_mix) + zero_mix, size=k, dtype=np.uint8)
        if layout == "read-only":
            rows.setflags(write=False)
            mix.setflags(write=False)
        elif layout == "strided-rows":
            rows = np.repeat(rows, 2, axis=0)[::2]
        elif layout == "strided-columns":
            rows = np.repeat(rows, 2, axis=1)[:, ::2]
        elif layout == "strided-mix":
            mix = np.repeat(mix, 2)[::2]
        with obs.collecting() as registry:
            got = field.combine(mix, rows)
        got_bytes = registry.value("codec.bytes_processed")
        with obs.collecting() as registry:
            want = GF256.matmul(mix[None, :], rows)[0]
        assert got.shape == want.shape == (m,)
        assert np.array_equal(got, want)
        assert got_bytes == registry.value("codec.bytes_processed")


@pytest.mark.skipif(
    "native" not in available_backends(), reason="no compiled backend here"
)
def test_single_row_stream_meters_the_same_bytes_on_numpy_and_native():
    """``codec.bytes_processed`` over a relay -> decoder stream of
    single-row inserts does not depend on who does the arithmetic."""
    from repro.coding.decoder import ProgressiveDecoder

    def metered(field):
        rng = np.random.default_rng(2008)
        relay = RelayReEncoder(1, 16, rng, field=field)
        decoder = ProgressiveDecoder(16, 48, field=field)
        with obs.collecting() as registry:
            while not decoder.is_complete:
                if not relay.is_full:
                    vector = rng.integers(0, 256, size=16, dtype=np.uint8)
                    payload = rng.integers(0, 256, size=48, dtype=np.uint8)
                    relay.accept(CodedPacket(1, 0, vector, payload))
                decoder.add_packet(relay.next_packet())
        return registry.value("codec.bytes_processed"), decoder.decode().tobytes()

    assert metered(get_backend("native")) == metered(get_backend("numpy"))
    assert metered(get_backend("numpy"))[0] > 0
