"""The compiled slot loop's streams are numpy's, byte for byte.

A compiled core draws its lottery keys and loss uniforms in C
(:class:`~repro.emulator.native.StreamBank`): numpy's ``SeedSequence``
and PCG64 seeding, numpy's own exponential and PCG64's ``next_double``.
Here every ``(seed, kind, node)`` stream is compared with
``RngFactory(seed).derive(f"node-{kind}", node)``, values and generator
state; an exact row's coefficient draws are ``Generator.integers(0, 256,
size=k, dtype=np.uint8)``, bytes and state (the buffered half word too)
after every call; a kernel with one mixing constant changed must fail the
load-time self-test; and a compiled run must never re-enter Python from
inside the kernel.
"""

import logging
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emulator import engine, native
from repro.emulator.native import StreamBank
from repro.util.rng import RngFactory
from tests.test_active_set import line_network, line_session
from tests.test_compiled_slots import KERNEL, needs_kernel

#: Seeds of one, two and three ``SeedSequence`` entropy words, at the
#: edges where a word is added.
SEEDS = (0, 2**32 - 1, 2**32, 2**63 - 1, 2**70)
#: ``ziggurat_exp_r``: an exponential draw past it took the tail path.
TAIL = 7.69711747013104972


def _compare(seed, kind, node, draws, then):
    """``draws`` values of the C stream in one take (straight from the
    generator, past a block) and then ``then`` more (through a refill),
    against numpy's; returns the values."""
    bank = StreamBank(KERNEL.take, RngFactory(seed), kind)
    row = bank.rows_for([node])
    generator = RngFactory(seed).derive(f"node-{kind}", node)
    fill = generator.standard_exponential if kind == "mac" else generator.random
    drawn = bank.take(row, np.array([draws]))
    assert drawn.tolist() == fill(draws).tolist()
    high, low, inc_high, inc_low = (int(word) for word in bank._state[row[0]])
    assert {"state": high << 64 | low, "inc": inc_high << 64 | inc_low} == (
        generator.bit_generator.state["state"]
    )
    assert bank.take(row, np.array([then])).tolist() == fill(then).tolist()
    return drawn


@needs_kernel
@given(
    seed=st.sampled_from(SEEDS) | st.integers(0, 2**200),
    kind=st.sampled_from(("mac", "channel")),
    node=st.integers(0, 2**40),
    draws=st.integers(1000, 3000),
    then=st.integers(0, 2 * StreamBank.BLOCK),
)
@settings(deadline=None, max_examples=100)
def test_a_c_stream_is_the_numpy_stream(seed, kind, node, draws, then):
    _compare(seed, kind, node, draws, then)


@needs_kernel
@pytest.mark.parametrize("seed", SEEDS)
def test_a_c_exponential_takes_the_tail_path(seed):
    assert _compare(seed, "mac", 0, 20_000, 1).max() > TAIL


@needs_kernel
@given(
    seed=st.sampled_from(SEEDS) | st.integers(0, 2**200),
    sizes=st.lists(st.sampled_from((1, 3, 4, 5, 40, 160)), min_size=1, max_size=12),
)
@settings(deadline=None, max_examples=100)
def test_a_c_coefficient_draw_is_the_numpy_draw(seed, sizes):
    # Odd word counts leave PCG64 a buffered half word, which the next
    # call spends first: every call's bytes and the state after it.
    generator = RngFactory(seed).derive("coding", 3)
    state = np.array(native.coding_state(generator), dtype=np.uint64)
    mirror = RngFactory(seed).derive("coding", 3)
    for size in sizes:
        drawn = np.empty(size, dtype=np.uint8)
        KERNEL.coding_draw(state.ctypes.data, drawn.ctypes.data, size)
        expected = generator.integers(0, 256, size=size, dtype=np.uint8)
        assert drawn.tobytes() == expected.tobytes()
        native.set_coding_state(mirror, state.tolist())
        assert mirror.bit_generator.state == generator.bit_generator.state
        assert state.tolist() == native.coding_state(generator)


@needs_kernel
def test_the_self_test_refuses_a_stream_with_a_changed_mixing_constant(
    monkeypatch, tmp_path, caplog
):
    source = native.SOURCE.read_text().replace("0xca01f9ddu", "0xca01f9dcu")
    assert source.count("0xca01f9dcu") == 1
    mutant = tmp_path / "slots.c"
    mutant.write_text(source)
    header = native.SOURCE.with_name("gf256.h")
    (tmp_path / header.name).write_bytes(header.read_bytes())
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(native, "SOURCE", mutant)
    engine.compiled_kernel.cache_clear()
    try:
        with caplog.at_level(logging.WARNING, logger=engine.__name__):
            assert native.load() is not None
            assert engine.compiled_kernel() is None
    finally:
        engine.compiled_kernel.cache_clear()
    assert "compiled slot loop is unavailable here" in caplog.text


@needs_kernel
def test_a_compiled_relay_line_never_calls_python_inside_the_kernel(monkeypatch):
    calls, entered = [], []

    def profile(frame, event, _argument):
        if event == "call":
            entered.append(frame.f_code.co_name)

    def run(core, budget):
        calls.append(budget)
        sys.setprofile(profile)
        try:
            return KERNEL.run(core, budget)
        finally:
            sys.setprofile(None)

    monkeypatch.setattr(engine, "compiled_kernel", lambda: KERNEL._replace(run=run))
    with line_session(line_network(48), 1) as session:
        session.run(600)
        banks = session._core._mac, session._core._loss
    assert calls and entered == []
    # Every row that drew was seeded, and refilled, inside those calls.
    assert all(bank._state[:, 3].any() for bank in banks)
    assert all((bank._cursor < StreamBank.BLOCK).any() for bank in banks)
