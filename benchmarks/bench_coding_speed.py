"""Section 4 claim — the SIMD row multiply is 3-5x the lookup-table codec.

Benchmarks the encode + progressive-decode pipeline at the paper's
generation shape (40 blocks of 1 KB) on the two builds of the one C
source (``repro/kernels/gf256.c``): the default ``pshufb`` build and the
build without SIMD flags, whose row kernel is the ``MUL`` table walk.
A parametrized case additionally covers every GF(2^8) field this machine
runs (``available_backends()``), so artifact runs record how the numpy
reference and the compiled kernels compare shape-for-shape.  Without a C
compiler the table-walk cases skip.
"""

import pytest

from repro.coding.backends import available_backends, get_backend
from repro.coding.gf256 import GF256
from repro.coding.native import _simd_cflags
from repro.experiments.coding_speed import (
    CodecUnavailableError,
    compiled_fields,
    measure_codec,
)

PAPER_SHAPE = (40, 1024)


def _pipeline(field, blocks, block_size, batch=1):
    return lambda: measure_codec(field, blocks, block_size, batch=batch)


@pytest.fixture(scope="module")
def builds():
    """The ``pshufb`` and table-walk builds."""
    try:
        return compiled_fields()
    except CodecUnavailableError:
        pytest.skip("no C compiler builds the kernels here")


def test_accelerated_codec_paper_shape(benchmark):
    blocks, block_size = PAPER_SHAPE
    mbps = benchmark.pedantic(
        _pipeline(GF256, blocks, block_size), rounds=3, iterations=1
    )
    benchmark.extra_info["throughput_mbps"] = round(mbps, 2)
    assert mbps > 0.25  # the paper-scale pipeline must be comfortably sub-second


@pytest.mark.parametrize("backend", available_backends())
def test_backend_codec_paper_shape(benchmark, backend):
    blocks, block_size = PAPER_SHAPE
    mbps = benchmark.pedantic(
        _pipeline(get_backend(backend), blocks, block_size),
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["gf_backend"] = backend
    benchmark.extra_info["throughput_mbps"] = round(mbps, 2)
    assert mbps > 0


def test_table_walk_codec_paper_shape(benchmark, builds):
    blocks, block_size = PAPER_SHAPE
    mbps = benchmark.pedantic(
        _pipeline(builds[1], blocks, block_size, batch=blocks), rounds=3, iterations=1
    )
    benchmark.extra_info["throughput_mbps"] = round(mbps, 2)
    assert mbps > 0


def test_speedup_over_the_table_walk(benchmark, builds):
    blocks, block_size = PAPER_SHAPE

    def both():
        return tuple(
            measure_codec(field, blocks, block_size, repeats=3, batch=blocks)
            for field in builds
        )

    pshufb, table_walk = benchmark.pedantic(both, rounds=1, iterations=1)
    speedup = pshufb / table_walk
    benchmark.extra_info["pshufb_mbps"] = round(pshufb, 2)
    benchmark.extra_info["table_walk_mbps"] = round(table_walk, 2)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["paper_claim"] = "3-5x"
    if _simd_cflags():
        # Sec. 4: 3-5x depending on the shape; the ratio at this one
        # reads 4.9-5.9x on an AVX2 host, so 2x leaves room for noise.
        assert speedup >= 2.0
