"""Source encoding and relay re-encoding."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.coding import matrix as gfm
from repro.coding.backends import available_backends, get_backend
from repro.coding.decoder import ProgressiveDecoder
from repro.coding.encoder import RelayReEncoder, SourceEncoder
from repro.coding.generation import GenerationParams, random_generation
from repro.coding.gf256 import GF256
from repro.coding.packet import CodedPacket

#: Every field engine the relay filter must behave identically on.
FIELDS = [get_backend(name) for name in available_backends()]


def make_source(blocks=6, block_size=16, seed=0, payload=True):
    rng = np.random.default_rng(seed)
    generation = random_generation(0, GenerationParams(blocks, block_size), rng)
    return SourceEncoder(1, generation, rng, payload=payload), generation


class TestSourceEncoder:
    def test_packet_payload_is_linear_combination(self):
        encoder, generation = make_source()
        packet = encoder.next_packet()
        expected = GF256.matmul(
            packet.coefficients[None, :], generation.matrix
        )[0]
        assert np.array_equal(packet.payload, expected)

    def test_packets_never_zero_vector(self):
        encoder, _ = make_source()
        for _ in range(50):
            assert not encoder.next_packet().is_zero()

    def test_emitted_counter(self):
        encoder, _ = make_source()
        for _ in range(5):
            encoder.next_packet()
        assert encoder.emitted == 5

    def test_coefficient_only_mode(self):
        encoder, _ = make_source(payload=False)
        packet = encoder.next_packet()
        assert packet.payload is None

    def test_n_plus_few_packets_decode(self):
        # n + 3 random packets are full rank with overwhelming probability.
        encoder, generation = make_source(blocks=8)
        vectors = [encoder.next_packet().coefficients for _ in range(11)]
        assert gfm.rank(np.stack(vectors)) == 8

    def test_advance_resets_emitted(self):
        encoder, _ = make_source()
        encoder.next_packet()
        new_gen = random_generation(
            1, GenerationParams(6, 16), np.random.default_rng(9)
        )
        encoder.advance(new_gen)
        assert encoder.emitted == 0
        assert encoder.generation.generation_id == 1

    def test_advance_must_be_monotonic(self):
        encoder, generation = make_source()
        with pytest.raises(ValueError, match="monotonically"):
            encoder.advance(generation)


class TestRelayReEncoder:
    def _packet(self, vector, payload=None, generation=0):
        return CodedPacket(
            session_id=1,
            generation_id=generation,
            coefficients=np.asarray(vector, dtype=np.uint8),
            payload=None if payload is None else np.asarray(payload, dtype=np.uint8),
        )

    def test_accepts_innovative_rejects_dependent(self):
        relay = RelayReEncoder(1, 4, np.random.default_rng(0))
        assert relay.accept(self._packet([1, 0, 0, 0]))
        assert relay.accept(self._packet([0, 1, 0, 0]))
        # Dependent: sum of the two previous vectors.
        assert not relay.accept(self._packet([1, 1, 0, 0]))
        assert relay.buffered == 2

    def test_scaled_duplicate_is_dependent(self):
        relay = RelayReEncoder(1, 4, np.random.default_rng(1))
        assert relay.accept(self._packet([2, 4, 6, 8]))
        scaled = GF256.scale_row(np.array([2, 4, 6, 8], dtype=np.uint8), 0x11)
        assert not relay.accept(self._packet(scaled))

    def test_reencoded_packet_stays_in_span(self):
        rng = np.random.default_rng(2)
        relay = RelayReEncoder(1, 5, rng)
        basis = [rng.integers(0, 256, 5, dtype=np.uint8) for _ in range(3)]
        accepted = sum(relay.accept(self._packet(v)) for v in basis)
        out = relay.next_packet()
        # The output vector must not increase the rank of the basis.
        stacked = np.vstack(basis + [out.coefficients])
        assert gfm.rank(stacked) == accepted

    def test_full_relay_stops_accepting_but_keeps_encoding(self):
        rng = np.random.default_rng(3)
        relay = RelayReEncoder(1, 3, rng)
        for vector in np.eye(3, dtype=np.uint8):
            assert relay.accept(self._packet(vector))
        assert relay.is_full
        assert not relay.accept(self._packet(rng.integers(0, 256, 3, dtype=np.uint8)))
        assert relay.next_packet() is not None

    def test_empty_relay_cannot_encode(self):
        relay = RelayReEncoder(1, 4, np.random.default_rng(4))
        with pytest.raises(RuntimeError, match="no innovative"):
            relay.next_packet()

    def test_stale_generation_rejected(self):
        relay = RelayReEncoder(1, 4, np.random.default_rng(5), generation_id=2)
        assert not relay.accept(self._packet([1, 0, 0, 0], generation=1))

    def test_newer_generation_flushes(self):
        relay = RelayReEncoder(1, 4, np.random.default_rng(6))
        relay.accept(self._packet([1, 0, 0, 0], generation=0))
        assert relay.accept(self._packet([0, 1, 0, 0], generation=3))
        assert relay.generation_id == 3
        assert relay.buffered == 1

    def test_advance_must_increase(self):
        relay = RelayReEncoder(1, 4, np.random.default_rng(7), generation_id=5)
        with pytest.raises(ValueError):
            relay.advance(5)

    def test_wrong_session_raises(self):
        relay = RelayReEncoder(1, 4, np.random.default_rng(8))
        packet = CodedPacket(2, 0, np.ones(4, dtype=np.uint8))
        with pytest.raises(ValueError, match="session"):
            relay.accept(packet)

    def test_wrong_generation_size_dropped(self):
        # Stale-sized packets are in flight whenever an adaptive-n
        # session switches generation size at a boundary; the relay
        # drops them instead of crashing.
        relay = RelayReEncoder(1, 4, np.random.default_rng(9))
        assert relay.accept(self._packet([1, 0, 0])) is False
        assert relay.buffered == 0
        assert relay.accept(self._packet([1, 0, 0, 0])) is True

    def test_payload_reencoding_consistency(self):
        # Relay payloads must remain the same linear combination as the
        # coding vector claims, relative to the original generation.
        rng = np.random.default_rng(10)
        params = GenerationParams(4, 12)
        generation = random_generation(0, params, rng)
        source = SourceEncoder(1, generation, rng)
        relay = RelayReEncoder(1, 4, rng)
        while not relay.is_full:
            relay.accept(source.next_packet())
        out = relay.next_packet()
        expected = GF256.matmul(out.coefficients[None, :], generation.matrix)[0]
        assert np.array_equal(out.payload, expected)

    def test_payload_width_is_fixed_while_rows_are_buffered(self):
        # A mid-generation width change used to reallocate the payload
        # buffer as zeros under the rows already stored, so every later
        # re-encode silently mixed zeros into real data.
        relay = RelayReEncoder(1, 4, np.random.default_rng(11))
        assert relay.accept(self._packet([1, 0, 0, 0], payload=[7] * 8))
        with pytest.raises(ValueError, match=r"payload size 12 != the 8 of the 1 "):
            relay.accept(self._packet([0, 1, 0, 0], payload=[9] * 12))
        with pytest.raises(ValueError, match=r"payload size None != the 8 "):
            relay.accept(self._packet([0, 1, 0, 0]))
        assert relay.buffered == 1
        # The stored row survived both rejected offers.
        out = relay.next_packet()
        stored = np.full(8, 7, dtype=np.uint8)
        assert np.array_equal(
            out.payload, GF256.scale_row(stored, int(out.coefficients[0]))
        )

        bare = RelayReEncoder(1, 4, np.random.default_rng(12))
        assert bare.accept(self._packet([1, 0, 0, 0]))
        with pytest.raises(ValueError, match=r"payload size 8 != the None "):
            bare.accept(self._packet([0, 1, 0, 0], payload=[7] * 8))

    def test_an_empty_relay_follows_the_next_generations_payload_width(self):
        relay = RelayReEncoder(1, 2, np.random.default_rng(13))
        assert relay.accept(self._packet([1, 0], payload=[5] * 8))
        relay.advance(1)
        assert relay.accept(self._packet([1, 0], payload=[3] * 12, generation=1))
        assert relay.next_packet().payload.size == 12
        relay.advance(2)
        assert relay.accept(self._packet([0, 1], generation=2))
        assert relay.next_packet().payload is None


def _mixed_vectors(rng, blocks, count):
    """Dense, dependent, scaled-duplicate, unit and all-zero vectors."""
    vectors = []
    for _ in range(count):
        kind = int(rng.integers(0, 5))
        if kind in (1, 2) and not vectors:
            kind = 0
        if kind == 0:
            vector = rng.integers(0, 256, blocks, dtype=np.uint8)
        elif kind == 1:
            mix = rng.integers(0, 256, len(vectors), dtype=np.uint8)
            vector = GF256.matmul(mix[None, :], np.stack(vectors))[0]
        elif kind == 2:
            earlier = vectors[int(rng.integers(0, len(vectors)))]
            vector = GF256.scale_row(earlier, int(rng.integers(1, 256)))
        elif kind == 3:
            vector = np.zeros(blocks, dtype=np.uint8)
            vector[int(rng.integers(0, blocks))] = 1
        else:
            vector = np.zeros(blocks, dtype=np.uint8)
        vectors.append(vector)
    return vectors


def _relay_stream_digest(field, payload):
    """SHA-256 over the verdicts and every byte a relay emits after a
    fixed seeded accept sequence (each third packet offered twice)."""
    rng = np.random.default_rng(2008)
    blocks = 8
    generation = random_generation(0, GenerationParams(blocks, 16), rng)
    source = SourceEncoder(1, generation, rng, field=field, payload=payload)
    relay = RelayReEncoder(1, blocks, np.random.default_rng(14), field=field)
    digest = hashlib.sha256()
    for step in range(12):
        packet = source.next_packet()
        verdicts = [relay.accept(packet)]
        if step % 3 == 0:
            verdicts.append(relay.accept(packet))
        digest.update(bytes(verdicts))
        for out in [relay.next_packet(), *relay.next_packets(3)]:
            digest.update(out.coefficients.tobytes())
            if payload:
                digest.update(out.payload.tobytes())
    return digest.hexdigest()


def relay_stream(field):
    """The relay stream with and without payloads on the field engine
    named ``field``; pinned on the commit before the filter moved onto
    the shared elimination core."""
    engine = get_backend(field)
    return (
        _relay_stream_digest(engine, payload=True),
        _relay_stream_digest(engine, payload=False),
    )


@pytest.mark.parametrize("field", FIELDS, ids=lambda field: field.name)
class TestRelayInnovationFilter:
    """The relay's filter is the decoder's elimination core; its verdict
    is the mathematical fact "the span grew", on every field engine."""

    @given(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=0, max_value=16),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_accept_is_the_rank_oracle(self, field, blocks, count, seed):
        rng = np.random.default_rng(seed)
        relay = RelayReEncoder(1, blocks, rng, field=field)
        accepted = []
        for vector in _mixed_vectors(rng, blocks, count):
            grew = gfm.rank(np.stack(accepted + [vector])) > len(accepted)
            was_full = relay.is_full
            verdict = relay.accept(CodedPacket(1, 0, vector))
            assert verdict == grew
            assert not (was_full and verdict)
            if verdict:
                accepted.append(vector)
            assert relay.buffered == len(accepted)
            assert relay.is_full == (len(accepted) == blocks)
        if accepted:
            assert gfm.rank(np.stack(accepted)) == len(accepted)

    def test_advance_leaves_an_empty_filter(self, field):
        relay = RelayReEncoder(1, 4, np.random.default_rng(0), field=field)
        vector = np.array([3, 1, 4, 1], dtype=np.uint8)
        scaled = GF256.scale_row(vector, 0x53)
        assert relay.accept(CodedPacket(1, 0, vector))
        assert not relay.accept(CodedPacket(1, 0, scaled))
        relay.advance(1)
        assert relay.buffered == 0
        # Dependent in generation 0, innovative in generation 1.
        assert relay.accept(CodedPacket(1, 1, scaled))
        assert not relay.accept(CodedPacket(1, 1, vector))
        assert relay.buffered == 1

    def test_relay_accepts_stay_out_of_the_decoder_counters(self, field):
        # decoder.* telemetry is destination work only, although the
        # relay filter runs on the same elimination core.
        rng = np.random.default_rng(5)
        generation = random_generation(0, GenerationParams(6, 8), rng)
        source = SourceEncoder(1, generation, rng, field=field)
        with obs.collecting(obs.MetricsRegistry()) as registry:
            relay = RelayReEncoder(1, 6, rng, field=field)
            offered = 0
            while not relay.is_full:
                packet = source.next_packet()
                relay.accept(packet)
                relay.accept(packet)
                offered += 2
            for name in ("innovative", "redundant", "rows_eliminated"):
                assert registry.value(f"decoder.{name}") == 0
            decoder = ProgressiveDecoder(6, 8, field=field)
            for packet in relay.next_packets(9):
                decoder.add_packet(packet)
            assert decoder.is_complete
            assert registry.value("decoder.innovative") == 6
            assert registry.value("decoder.redundant") == 3
            # Rows offered after completion never reach the kernel.
            assert registry.value("decoder.rows_eliminated") == decoder.received - 3
        assert offered >= 12
