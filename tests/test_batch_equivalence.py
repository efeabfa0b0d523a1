"""Batch/incremental equivalence properties for the hot-path kernels.

The batched entry points (``ProgressiveDecoder.add_rows``,
``SourceEncoder.next_packets``, ``RelayReEncoder.next_packets``,
``CodedPacket.batch_from_rows``) are performance rewrites of the
single-item APIs — they must be observationally equivalent.  These
hypothesis properties pin that down: identical ranks, pivot structure,
per-row verdicts, and decoded generations, under arbitrary row orders
including shuffles and duplicates.

Note on the encoders: a batched ``(k, n)`` RNG draw does not consume the
generator's stream the same way as ``k`` sequential draws, so the
guarantee is *decode equivalence* (every emitted batch decodes to the
same generation with full rank), not byte equality of the packets.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.coding.backends import available_backends, get_backend
from repro.coding.decoder import ProgressiveDecoder
from repro.coding.encoder import RelayReEncoder, SourceEncoder
from repro.coding.generation import GenerationParams, random_generation
from repro.coding.gf256 import GF256
from repro.coding.packet import CodedPacket

FIELDS = [get_backend(name) for name in available_backends()]


def _augmented_rows(blocks, block_size, count, rng, *, duplicate_fraction=0.3):
    """Random augmented rows consistent with one generation.

    Rows are coded packets of a shared generation so that rank can
    saturate; a fraction are exact duplicates of earlier rows to
    exercise the redundant paths.
    """
    generation = random_generation(0, GenerationParams(blocks, block_size), rng)
    vectors = rng.integers(0, 256, size=(count, blocks), dtype=np.uint8)
    payloads = GF256.matmul(vectors, generation.matrix)
    rows = np.concatenate([vectors, payloads], axis=1)
    for index in range(1, count):
        if rng.random() < duplicate_fraction:
            rows[index] = rows[rng.integers(0, index)]
    return generation, rows


def _mixed_rows(kinds, blocks, block_size, rng):
    """One augmented row per entry of ``kinds`` over a shared generation:
    dense, a duplicate of an earlier row, all zero, or plain (a unit
    coding vector with value 1, systematic style)."""
    generation = random_generation(0, GenerationParams(blocks, block_size), rng)
    vectors = np.zeros((len(kinds), blocks), dtype=np.uint8)
    for index, kind in enumerate(kinds):
        if kind == "plain":
            vectors[index, rng.integers(blocks)] = 1
        elif kind == "duplicate" and index:
            vectors[index] = vectors[rng.integers(index)]
        elif kind != "zero":
            vectors[index] = rng.integers(0, 256, size=blocks, dtype=np.uint8)
    payloads = GF256.matmul(vectors, generation.matrix)
    return np.concatenate([vectors, payloads], axis=1)


def _rows_eliminated_rule(decoder, batch):
    """What ``decoder.rows_eliminated`` owes for ``batch``: nothing once
    the decoder is complete, else every row after the leading plain run,
    and nothing if that run completes it."""
    blocks, rank = decoder.blocks, decoder.rank
    taken = set(decoder._basis.pivot_cols[:rank].tolist())
    run = 0
    for row in batch:
        if rank + run >= blocks:
            break
        nonzero = np.flatnonzero(row[:blocks])
        if nonzero.size != 1 or row[nonzero[0]] != 1 or int(nonzero[0]) in taken:
            break
        taken.add(int(nonzero[0]))
        run += 1
    return 0 if rank + run >= blocks else len(batch) - run


def _run_batches(field, blocks, block_size, batches, *, one_by_one=False):
    """Feed ``batches`` to a fresh decoder through ``add_rows`` (through
    ``add_row``, row by row, if ``one_by_one``); returns the decoder, the
    verdicts, its three counters and what the rule says
    ``rows_eliminated`` should read."""
    with obs.collecting(obs.MetricsRegistry()) as registry:
        decoder = ProgressiveDecoder(blocks, block_size, field=field)
        verdicts, owed = [], 0
        for batch in batches:
            if one_by_one:
                for row in batch:
                    owed += _rows_eliminated_rule(decoder, row[None, :])
                    verdicts.append(decoder.add_row(row))
            else:
                owed += _rows_eliminated_rule(decoder, batch)
                verdicts.extend(decoder.add_rows(batch).tolist())
        counters = {
            name: registry.value(f"decoder.{name}")
            for name in ("innovative", "redundant", "rows_eliminated")
        }
    return decoder, verdicts, counters, owed


class TestAddRowsEquivalence:
    @given(
        st.integers(min_value=1, max_value=6),
        st.lists(
            st.sampled_from(["dense", "duplicate", "zero", "plain"]),
            min_size=1,
            max_size=16,
        ),
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=6),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_batch_split_matches_sequential_rows_on_every_field(
        self, blocks, kinds, sizes, seed
    ):
        """Batches of 1, batches past completion, duplicates, zero rows,
        plain rows after dense ones: the reference, every compiled field
        and ``add_row`` one by one store the same rows and count the
        same, and ``rows_eliminated`` follows its documented rule."""
        rows = _mixed_rows(kinds, blocks, 8, np.random.default_rng(seed))
        batches, start = [], 0
        while start < len(rows):
            size = sizes[len(batches) % len(sizes)]
            batches.append(rows[start : start + size])
            start += size
        before = rows.copy()
        sequential = _run_batches(GF256, blocks, 8, [rows], one_by_one=True)
        runs = [_run_batches(field, blocks, 8, batches) for field in FIELDS]
        assert np.array_equal(rows, before)
        want, want_verdicts, want_counters, want_owed = sequential
        assert want_counters["rows_eliminated"] == want_owed
        rank = want.rank
        for decoder, verdicts, counters, owed in runs:
            assert verdicts == want_verdicts
            assert decoder.rank == rank
            assert np.array_equal(decoder._basis.matrix[:rank], want._basis.matrix[:rank])
            assert np.array_equal(
                decoder._basis.pivot_cols[:rank], want._basis.pivot_cols[:rank]
            )
            assert counters["innovative"] == want_counters["innovative"]
            assert counters["redundant"] == want_counters["redundant"]
            assert counters["rows_eliminated"] == owed

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_batched_and_incremental_decoders_agree(
        self, blocks, block_size, count, chunk, seed
    ):
        rng = np.random.default_rng(seed)
        generation, rows = _augmented_rows(blocks, block_size, count, rng)

        batched = ProgressiveDecoder(blocks, block_size)
        incremental = ProgressiveDecoder(blocks, block_size)

        batch_verdicts = []
        for start in range(0, count, chunk):
            batch_verdicts.extend(
                batched.add_rows(rows[start : start + chunk]).tolist()
            )
        one_by_one = [incremental.add_row(row) for row in rows]

        assert batch_verdicts == one_by_one
        assert batched.rank == incremental.rank
        assert batched.received == incremental.received
        assert batched.redundant == incremental.redundant
        assert np.array_equal(
            batched.coefficient_matrix(), incremental.coefficient_matrix()
        )
        assert np.array_equal(
            batched._basis.pivot_cols[: batched.rank],
            incremental._basis.pivot_cols[: incremental.rank],
        )
        if batched.is_complete:
            assert np.array_equal(batched.decode(), generation.matrix)
            assert np.array_equal(incremental.decode(), generation.matrix)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_shuffled_batches_reach_the_same_rank_and_decode(self, seed):
        rng = np.random.default_rng(seed)
        blocks, block_size = 6, 8
        generation, rows = _augmented_rows(blocks, block_size, 12, rng)

        in_order = ProgressiveDecoder(blocks, block_size)
        in_order.add_rows(rows)
        shuffled = ProgressiveDecoder(blocks, block_size)
        shuffled.add_rows(rng.permutation(rows))

        assert in_order.rank == shuffled.rank
        if in_order.is_complete:
            assert np.array_equal(shuffled.decode(), generation.matrix)

    @pytest.mark.parametrize("field", FIELDS, ids=lambda field: field.name)
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=15, deadline=None)
    def test_single_row_inserts_in_any_pivot_order_match_the_batch_path(
        self, field, blocks, seed
    ):
        rng = np.random.default_rng(seed)
        block_size = 8
        generation = random_generation(0, GenerationParams(blocks, block_size), rng)
        # Row i leads at column leading[i], so the single-row path has to
        # insert at an arbitrary sorted position, not append.
        leading = rng.permutation(blocks)
        vectors = rng.integers(0, 256, size=(blocks, blocks), dtype=np.uint8)
        for index, col in enumerate(leading):
            vectors[index, :col] = 0
            vectors[index, col] = rng.integers(1, 256)
        payloads = GF256.matmul(vectors, generation.matrix)
        rows = np.concatenate([vectors, payloads], axis=1)
        before = rows.copy()

        single = ProgressiveDecoder(blocks, block_size, field=field)
        for count in range(1, blocks + 1):
            if count % 2:
                assert single.add_row(rows[count - 1])
            else:
                assert single.add_packet(
                    CodedPacket(1, 0, vectors[count - 1], payloads[count - 1])
                )
            batched = ProgressiveDecoder(blocks, block_size, field=field)
            assert batched.add_rows(rows[:count]).all()
            assert single.rank == batched.rank == count
            assert np.array_equal(
                single._basis.matrix[:count], batched._basis.matrix[:count]
            )
            assert np.array_equal(
                single._basis.pivot_cols[:count], np.sort(leading[:count])
            )
        assert np.array_equal(rows, before)
        assert single.decode().tobytes() == generation.matrix.tobytes()

    def test_whole_batch_of_duplicates_yields_rank_one(self):
        rng = np.random.default_rng(7)
        generation, rows = _augmented_rows(4, 4, 1, rng, duplicate_fraction=0.0)
        decoder = ProgressiveDecoder(4, 4)
        verdicts = decoder.add_rows(np.repeat(rows, 5, axis=0))
        assert verdicts.tolist() == [True, False, False, False, False]
        assert decoder.rank == 1

    def test_add_rows_does_not_mutate_the_caller_batch_by_default(self):
        rng = np.random.default_rng(11)
        _, rows = _augmented_rows(4, 4, 6, rng)
        before = rows.copy()
        ProgressiveDecoder(4, 4).add_rows(rows)
        assert np.array_equal(rows, before)


class TestEncoderBatchEquivalence:
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_source_next_packets_decodes_like_sequential_emission(
        self, blocks, extra, seed
    ):
        generation = random_generation(
            0, GenerationParams(blocks, 8), np.random.default_rng(seed)
        )
        count = blocks + extra

        sequential = SourceEncoder(1, generation, np.random.default_rng(seed))
        single = [sequential.next_packet() for _ in range(count)]
        batched_encoder = SourceEncoder(1, generation, np.random.default_rng(seed))
        batched = batched_encoder.next_packets(count)

        assert len(batched) == count
        assert sequential.emitted == batched_encoder.emitted == count
        for packet in batched:
            assert packet.session_id == 1
            assert packet.generation_id == generation.generation_id
            assert packet.coefficients.any()

        for packets in (single, batched):
            decoder = ProgressiveDecoder(blocks, 8)
            decoder.add_packets(packets)
            assert decoder.rank == min(count, blocks)
            if decoder.is_complete:
                assert np.array_equal(decoder.decode(), generation.matrix)

    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=15, deadline=None)
    def test_relay_next_packets_stays_in_the_received_span(self, blocks, seed):
        rng = np.random.default_rng(seed)
        generation = random_generation(0, GenerationParams(blocks, 8), rng)
        source = SourceEncoder(1, generation, rng)
        relay = RelayReEncoder(1, blocks, np.random.default_rng(seed + 1))
        while not relay.is_full:
            relay.accept(source.next_packet())

        packets = relay.next_packets(3 * blocks)
        assert len(packets) == 3 * blocks
        decoder = ProgressiveDecoder(blocks, 8)
        decoder.add_packets(packets)
        # Recombinations span exactly what the relay buffered (full rank
        # here), and the payloads stay consistent with the generation.
        assert decoder.is_complete
        assert np.array_equal(decoder.decode(), generation.matrix)

    def test_relay_next_packets_requires_buffered_packets(self):
        relay = RelayReEncoder(1, 4, np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            relay.next_packets(2)


class TestBatchFromRows:
    def test_rows_become_read_only_views_of_the_input(self):
        rng = np.random.default_rng(3)
        coefficients = rng.integers(0, 256, size=(5, 4), dtype=np.uint8)
        payloads = rng.integers(0, 256, size=(5, 16), dtype=np.uint8)
        packets = CodedPacket.batch_from_rows(2, 7, coefficients, payloads)

        assert len(packets) == 5
        for index, packet in enumerate(packets):
            assert packet.session_id == 2
            assert packet.generation_id == 7
            assert np.array_equal(packet.coefficients, coefficients[index])
            assert np.array_equal(packet.payload, payloads[index])
            assert not packet.coefficients.flags.writeable
            assert not packet.payload.flags.writeable

    def test_a_batch_built_packet_is_a_frozen_picklable_coded_packet(self):
        coefficients = np.arange(8, dtype=np.uint8).reshape(2, 4)
        payloads = np.arange(32, dtype=np.uint8).reshape(2, 16)
        built = CodedPacket.batch_from_rows(3, 9, coefficients, payloads, origin=5)[1]
        direct = CodedPacket(3, 9, coefficients[1], payloads[1], origin=5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            built.session_id = 4
        clone = pickle.loads(pickle.dumps(built))
        for packet in (built, clone):
            assert vars(packet).keys() == vars(direct).keys()
            for name, value in vars(direct).items():
                assert np.array_equal(getattr(packet, name), value)

    def test_payloads_are_optional(self):
        coefficients = np.eye(3, dtype=np.uint8)
        packets = CodedPacket.batch_from_rows(1, 0, coefficients)
        assert all(packet.payload is None for packet in packets)

    def test_mismatched_payload_rows_are_rejected(self):
        coefficients = np.eye(3, dtype=np.uint8)
        payloads = np.zeros((2, 8), dtype=np.uint8)
        with pytest.raises(ValueError):
            CodedPacket.batch_from_rows(1, 0, coefficients, payloads)
