"""Backend/reference equivalence properties for the GF(2^8) kernels.

Every available backend is a performance rewrite of the numpy
reference — it must be *bit-for-bit* identical on every operation, the
way ``tests/test_batch_equivalence.py`` pins batch vs incremental.
These hypothesis properties drive random matrices and shapes through
``matmul`` / ``rref`` / ``invert`` / ``addmul_rows`` /
``eliminate_panel`` on every backend available on this machine and
compare against :class:`repro.coding.gf256.GF256`; a full-session
digest test then pins the end-to-end coded pipeline across backends.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import matrix as gfmatrix
from repro.coding.backends import available_backends, get_backend
from repro.coding.decoder import ProgressiveDecoder
from repro.coding.encoder import SourceEncoder
from repro.coding.generation import GenerationParams, random_generation
from repro.coding.gf256 import GF256

BACKENDS = available_backends()


def _random_matrix(rng, rows, cols):
    return rng.integers(0, 256, size=(rows, cols), dtype=np.uint8)


@pytest.mark.parametrize("backend", BACKENDS)
class TestKernelEquivalence:
    @given(
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_matmul_matches_reference(self, backend, n, k, m, seed):
        field = get_backend(backend)
        rng = np.random.default_rng(seed)
        a = _random_matrix(rng, n, k)
        b = _random_matrix(rng, k, m)
        assert np.array_equal(field.matmul(a, b), GF256.matmul(a, b))

    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=48),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_addmul_rows_matches_reference(self, backend, rows, width, seed):
        field = get_backend(backend)
        rng = np.random.default_rng(seed)
        targets = _random_matrix(rng, rows, width)
        source = rng.integers(0, 256, size=width, dtype=np.uint8)
        coefficients = rng.integers(0, 256, size=rows, dtype=np.uint8)
        expected = targets.copy()
        GF256.addmul_rows(expected, source, coefficients)
        got = targets.copy()
        field.addmul_rows(got, source, coefficients)
        assert np.array_equal(got, expected)

    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=48),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=15, deadline=None)
    def test_scale_rows_matches_reference(self, backend, rows, width, seed):
        field = get_backend(backend)
        rng = np.random.default_rng(seed)
        matrix = _random_matrix(rng, rows, width)
        coefficients = rng.integers(0, 256, size=rows, dtype=np.uint8)
        assert np.array_equal(
            field.scale_rows(matrix, coefficients),
            GF256.scale_rows(matrix, coefficients),
        )

    @given(
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=0, max_value=14),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_rref_matches_reference(self, backend, rows, cols, seed):
        field = get_backend(backend)
        matrix = _random_matrix(np.random.default_rng(seed), rows, cols)
        got, got_pivots = gfmatrix.rref(matrix, field)
        expected, expected_pivots = gfmatrix.rref(matrix, GF256)
        assert got_pivots == expected_pivots
        assert np.array_equal(got, expected)

    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_invert_matches_reference(self, backend, n, seed):
        field = get_backend(backend)
        matrix = gfmatrix.random_matrix(
            n, n, np.random.default_rng(seed), full_rank=True, field=GF256
        )
        got = gfmatrix.invert(matrix, field)
        assert np.array_equal(got, gfmatrix.invert(matrix, GF256))
        # And it actually inverts, on the backend's own arithmetic.
        assert np.array_equal(field.matmul(got, matrix), gfmatrix.identity(n))

    @given(
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=24),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_eliminate_panel_matches_reference(
        self, backend, rows, panel, extra, limit, seed
    ):
        field = get_backend(backend)
        matrix = _random_matrix(np.random.default_rng(seed), rows, panel + extra)
        expected = matrix.copy()
        exp_rows, exp_cols = GF256.eliminate_panel(expected, panel, limit)
        got = matrix.copy()
        got_rows, got_cols = field.eliminate_panel(got, panel, limit)
        assert np.array_equal(got_rows, exp_rows)
        assert np.array_equal(got_cols, exp_cols)
        assert np.array_equal(got, expected)

    def test_elementwise_operations_match_reference(self, backend):
        field = get_backend(backend)
        values = np.arange(256, dtype=np.uint8)
        grid_a = np.repeat(values, 256)
        grid_b = np.tile(values, 256)
        assert np.array_equal(
            field.multiply(grid_a, grid_b), GF256.multiply(grid_a, grid_b)
        )
        assert np.array_equal(field.add(grid_a, grid_b), GF256.add(grid_a, grid_b))
        assert np.array_equal(field.inverse(values[1:]), GF256.inverse(values[1:]))


@pytest.mark.parametrize("backend", BACKENDS)
class TestSessionDigestAcrossBackends:
    """The full coded pipeline must be byte-identical on every backend."""

    def _run_session(self, field, seed=2008, blocks=12, block_size=64):
        rng = np.random.default_rng(seed)
        generation = random_generation(
            0, GenerationParams(blocks, block_size), np.random.default_rng(seed + 1)
        )
        encoder = SourceEncoder(1, generation, rng, field=field)
        decoder = ProgressiveDecoder(blocks, block_size, field=field)
        verdicts = []
        emitted = []
        while not decoder.is_complete:
            packets = encoder.next_packets(4)
            for packet in packets:
                emitted.append(
                    np.concatenate([packet.coefficients, packet.payload]).copy()
                )
            verdicts.extend(decoder.add_packets(packets).tolist())
        return generation, np.stack(emitted), verdicts, decoder

    def test_full_session_digest_is_pinned_across_backends(self, backend):
        field = get_backend(backend)
        generation, emitted, verdicts, decoder = self._run_session(field)
        ref_generation, ref_emitted, ref_verdicts, ref_decoder = self._run_session(
            GF256
        )
        # Same RNG stream + bit-identical arithmetic => identical wire
        # bytes, identical innovation verdicts, identical decode.
        assert np.array_equal(emitted, ref_emitted)
        assert verdicts == ref_verdicts
        assert np.array_equal(decoder.decode(), ref_decoder.decode())
        assert np.array_equal(decoder.decode(), generation.matrix)
        assert np.array_equal(generation.matrix, ref_generation.matrix)
        assert np.array_equal(
            decoder.coefficient_matrix(), ref_decoder.coefficient_matrix()
        )
