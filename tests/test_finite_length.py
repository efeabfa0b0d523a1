"""Finite-length coding: the closed-form model, the solver, the
systematic fast path and the per-epoch controller.

The model claims are checked two ways: structurally (monotonicity,
limits, validation) and against Monte-Carlo runs of the *actual*
progressive decoder — the same GF(2^8) elimination the emulator uses —
so the closed forms are pinned to the implementation, not to themselves.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.coding.decoder import ProgressiveDecoder
from repro.coding.encoder import SourceEncoder
from repro.coding.finite_length import (
    DEFAULT_CANDIDATES,
    decode_failure_probability,
    expected_decode_packets,
    full_rank_probability,
    optimal_blocks,
    overhead_ratio,
    transmissions_for_target,
)
from repro.coding.generation import (
    MAX_GENERATION_BLOCKS,
    Generation,
    GenerationParams,
    random_generation,
)
from repro.emulator.plan import CodingParams
from repro.emulator.session import SessionConfig
from repro.protocols.adaptive import CodingController, make_coding_controller
from repro.protocols.more import plan_more
from repro.protocols.omnc import plan_omnc
from repro.topology.random_network import chain_topology, diamond_topology
from repro.util.rng import RngFactory


class TestFullRankProbability:
    def test_impossible_below_rank(self):
        assert full_rank_probability(5, 6) == 0.0

    def test_increases_with_receptions(self):
        probs = [full_rank_probability(r, 8) for r in range(8, 14)]
        assert all(b > a for a, b in zip(probs, probs[1:]))
        assert probs[-1] < 1.0

    def test_large_field_is_nearly_deterministic(self):
        # q = 256: P[n random vectors span] = prod(1 - q^-i) ~ 0.996.
        assert full_rank_probability(40, 40) == pytest.approx(0.9961, abs=1e-3)

    def test_binary_field_is_much_weaker(self):
        assert full_rank_probability(8, 8, field_size=2) < full_rank_probability(
            8, 8, field_size=256
        )


class TestExpectedDecodePackets:
    def test_barely_above_n_for_gf256(self):
        expected = expected_decode_packets(40)
        assert 40.0 < expected < 40.01

    def test_matches_monte_carlo_decoder(self):
        # Feed the real decoder uniform random GF(2^8) rows until full
        # rank; the mean reception count must match the closed form.
        n = 8
        rng = np.random.default_rng(2008)
        trials = 400
        total = 0
        for _ in range(trials):
            decoder = ProgressiveDecoder(n)
            received = 0
            while not decoder.is_complete:
                row = rng.integers(0, 256, size=n, dtype=np.uint8)
                received += 1
                decoder.add_row(row)
            total += received
        measured = total / trials
        assert measured == pytest.approx(expected_decode_packets(n), abs=0.05)


class TestDecodeFailureProbability:
    def test_lossless_needs_only_rank(self):
        # With every transmission delivered, failure is the full-rank
        # complement alone.
        assert decode_failure_probability(8, 0.0, 12) == pytest.approx(
            1.0 - full_rank_probability(12, 8)
        )

    def test_certain_loss_never_decodes(self):
        assert decode_failure_probability(8, 1.0, 100) == 1.0

    def test_monotone_in_loss(self):
        probs = [
            decode_failure_probability(8, loss, 14)
            for loss in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
        ]
        assert all(b > a for a, b in zip(probs, probs[1:]))

    def test_monotone_in_transmissions(self):
        probs = [decode_failure_probability(8, 0.3, t) for t in (8, 12, 16, 24)]
        assert all(b < a for a, b in zip(probs, probs[1:]))

    def test_matches_monte_carlo_decoder(self):
        # Binomial erasures in front of the real decoder: the measured
        # failure rate must sit within sampling noise of the closed form.
        n, loss, transmissions = 6, 0.3, 10
        rng = np.random.default_rng(77)
        trials = 600
        failures = 0
        for _ in range(trials):
            decoder = ProgressiveDecoder(n)
            for _t in range(transmissions):
                if rng.random() < loss:
                    continue
                decoder.add_row(rng.integers(0, 256, size=n, dtype=np.uint8))
                if decoder.is_complete:
                    break
            if not decoder.is_complete:
                failures += 1
        model = decode_failure_probability(n, loss, transmissions)
        noise = 4.0 * (model * (1.0 - model) / trials) ** 0.5
        assert failures / trials == pytest.approx(model, abs=max(noise, 0.02))


class TestTransmissionsAndOverhead:
    def test_transmissions_grow_with_loss(self):
        counts = [
            transmissions_for_target(16, loss)
            for loss in (0.0, 0.2, 0.4, 0.6)
        ]
        assert None not in counts
        assert all(b > a for a, b in zip(counts, counts[1:]))

    def test_infeasible_returns_none(self):
        assert (
            transmissions_for_target(16, 0.99, max_transmissions=32) is None
        )

    def test_overhead_monotone_in_loss(self):
        for blocks in DEFAULT_CANDIDATES:
            ratios = [
                overhead_ratio(blocks, loss)
                for loss in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
            ]
            assert all(b > a for a, b in zip(ratios, ratios[1:])), blocks

    def test_header_amortization_favors_large_n_when_lossless(self):
        # At zero loss the n-byte coefficient header dominates: bigger
        # generations amortize it better.
        assert overhead_ratio(40, 0.0) < overhead_ratio(8, 0.0)


class TestOptimalBlocks:
    def test_paper_size_wins_on_clean_links(self):
        assert optimal_blocks(0.0) == 40

    def test_shrinks_as_loss_grows(self):
        sizes = [
            optimal_blocks(loss) for loss in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
        ]
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] < sizes[0]

    def test_respects_candidate_set(self):
        assert optimal_blocks(0.3, candidates=(8, 16)) in (8, 16)

    def test_target_overhead_picks_largest_within_budget(self):
        loose = optimal_blocks(0.0, target_overhead=10.0)
        assert loose == max(DEFAULT_CANDIDATES)


class TestGenerationSizeValidation:
    def test_cap_is_enforced_with_clear_message(self):
        with pytest.raises(ValueError, match="255"):
            GenerationParams(blocks=256, block_size=32)

    def test_cap_boundary_is_allowed(self):
        params = GenerationParams(blocks=MAX_GENERATION_BLOCKS, block_size=1)
        assert params.blocks == 255

    def test_coding_params_reuse_the_cap(self):
        with pytest.raises(ValueError, match="255"):
            CodingParams(blocks=300)

    def test_session_config_reuses_the_cap(self):
        with pytest.raises(ValueError, match="255"):
            SessionConfig(blocks=256)


def _run_through_channel(encoder, blocks, block_size, loss, rng):
    """Feed encoder packets through i.i.d. loss until decode completes;
    the decoder and the rows it eliminated."""
    with obs.collecting() as registry:
        decoder = ProgressiveDecoder(blocks, block_size)
        while not decoder.is_complete:
            packet = encoder.next_packet()
            if loss and rng.random() < loss:
                continue
            decoder.add_packet(packet)
    return decoder, registry.value("decoder.rows_eliminated")


class TestSystematicEncoding:
    @given(
        blocks=st.integers(min_value=2, max_value=12),
        block_size=st.integers(min_value=1, max_value=48),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_byte_identical_payloads_with_fewer_eliminations(
        self, blocks, block_size, seed
    ):
        # On lossless links systematic and dense RLNC must deliver the
        # exact same generation, and systematic must do strictly less
        # elimination work (its plain prefix decodes by placement).
        params = GenerationParams(blocks=blocks, block_size=block_size)
        rng = RngFactory(seed)
        generation = random_generation(0, params, rng.derive("payload"))
        eliminated = {}
        decoded = {}
        for systematic in (False, True):
            encoder = SourceEncoder(
                1,
                Generation(0, generation.matrix.copy()),
                rng.derive("coding", int(systematic)),
                systematic=systematic,
            )
            decoder, eliminated[systematic] = _run_through_channel(
                encoder, blocks, block_size, 0.0, None
            )
            decoded[systematic] = decoder.decode()
        assert np.array_equal(decoded[True], generation.matrix)
        assert np.array_equal(decoded[False], generation.matrix)
        assert eliminated[True] == 0
        assert eliminated[False] >= blocks
        assert eliminated[True] < eliminated[False]

    def test_lossy_channel_still_decodes_identically(self):
        params = GenerationParams(blocks=8, block_size=64)
        rng = RngFactory(5)
        generation = random_generation(0, params, rng.derive("payload"))
        channel = np.random.default_rng(17)
        for systematic in (False, True):
            encoder = SourceEncoder(
                1,
                Generation(0, generation.matrix.copy()),
                rng.derive("coding", int(systematic)),
                systematic=systematic,
            )
            decoder, _eliminated = _run_through_channel(encoder, 8, 64, 0.35, channel)
            assert np.array_equal(decoder.decode(), generation.matrix)


class TestCodingController:
    def _plan(self, loss=0.2):
        p = 1.0 - loss
        network = diamond_topology(p_su=p, p_sv=p, p_ut=p, p_vt=p)
        return network, plan_omnc(network, 0, 3)

    def test_estimate_loss_averages_participant_links(self):
        network, plan = self._plan(loss=0.2)
        estimate = CodingController.estimate_loss(network, plan)
        assert estimate == pytest.approx(0.2, abs=1e-9)

    def test_estimate_ignores_outside_links(self):
        # A chain with a terrible far link: sessions planned over the
        # clean prefix must not see the far link's loss.
        network = chain_topology((0.9, 0.9, 0.05))
        plan = plan_more(network, 0, 2)
        estimate = CodingController.estimate_loss(network, plan)
        assert estimate < 0.2

    def test_adaptive_mode_solves_for_blocks(self):
        network, plan = self._plan(loss=0.4)
        controller = CodingController("adaptive", blocks=40, block_size=1024)
        decision = controller.decide(network, plan)
        assert decision is not None
        assert decision.blocks == optimal_blocks(
            CodingController.estimate_loss(network, plan), block_size=1024
        )
        assert not decision.systematic
        assert controller.history == (decision,)

    def test_systematic_mode_keeps_configured_blocks(self):
        network, plan = self._plan()
        controller = CodingController("systematic", blocks=24)
        decision = controller.decide(network, plan)
        assert decision == CodingParams(blocks=24, systematic=True)

    def test_static_maps_to_no_controller(self):
        assert make_coding_controller("static", blocks=40) is None

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="adaptive"):
            CodingController("turbo", blocks=40)


class TestAdaptiveRunnerIntegration:
    def test_controller_decisions_reach_the_session(self):
        from repro.scenario import builtin_scenario, make_policy
        from repro.scenario.runner import run_adaptive_session
        from repro.protocols.adaptive import make_planner

        network, _plan = TestCodingController()._plan(loss=0.3)
        controller = make_coding_controller(
            "adaptive", blocks=40, block_size=256
        )
        planner = make_planner("omnc", 0, 3)
        result = run_adaptive_session(
            network,
            planner,
            make_policy("oblivious"),
            builtin_scenario("calm", duration=20.0, epoch_seconds=5.0),
            config=SessionConfig(blocks=40, block_size=256),
            rng=RngFactory(3),
            coding_controller=controller,
        )
        assert controller.history
        first = controller.history[0]
        assert first.blocks < 40  # 30% loss shrinks the generation
        assert result.session.generations_decoded >= 0
        # The initial decision was folded into the session accounting.
        assert result.generation_payload_bytes == first.blocks * 256
