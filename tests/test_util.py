"""Validation helpers and RNG factory."""

import ctypes
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import clib
from repro.util.rng import RngFactory, as_rng
from repro.util.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
    check_type,
)


class TestValidation:
    def test_check_type_accepts(self):
        assert check_type("x", 5, int) == 5

    def test_check_type_rejects_bool_as_int(self):
        with pytest.raises(TypeError, match="bool"):
            check_type("x", True, int)

    def test_check_type_rejects_wrong_type(self):
        with pytest.raises(TypeError):
            check_type("x", "5", int)

    def test_check_positive(self):
        assert check_positive("x", 0.1) == 0.1
        with pytest.raises(ValueError):
            check_positive("x", 0)
        with pytest.raises(ValueError):
            check_positive("x", float("nan"))
        with pytest.raises(ValueError):
            check_positive("x", float("inf"))

    def test_check_non_negative(self):
        assert check_non_negative("x", 0) == 0
        with pytest.raises(ValueError):
            check_non_negative("x", -1e-9)

    def test_check_probability(self):
        assert check_probability("p", 0.0) == 0.0
        assert check_probability("p", 1.0) == 1.0
        with pytest.raises(ValueError):
            check_probability("p", 1.01)

    def test_check_in_range(self):
        assert check_in_range("x", 5, 0, 10) == 5
        with pytest.raises(ValueError):
            check_in_range("x", 0, 0, 10, inclusive=False)
        with pytest.raises(ValueError):
            check_in_range("x", 11, 0, 10)

    def test_error_message_names_parameter(self):
        with pytest.raises(ValueError, match="my_param"):
            check_positive("my_param", -1)


class TestAsRng:
    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_int_seeds(self):
        a, b = as_rng(5), as_rng(5)
        assert a.integers(0, 100) == b.integers(0, 100)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert as_rng(generator) is generator


class TestRngFactory:
    def test_same_name_same_stream(self):
        f = RngFactory(42)
        a = f.derive("channel").integers(0, 1_000_000, 10)
        b = RngFactory(42).derive("channel").integers(0, 1_000_000, 10)
        assert np.array_equal(a, b)

    def test_different_names_different_streams(self):
        f = RngFactory(42)
        a = f.derive("channel").integers(0, 1_000_000, 10)
        b = f.derive("coding").integers(0, 1_000_000, 10)
        assert not np.array_equal(a, b)

    def test_indexed_streams(self):
        f = RngFactory(7)
        a = f.derive("node", 1).integers(0, 1_000_000, 10)
        b = f.derive("node", 2).integers(0, 1_000_000, 10)
        assert not np.array_equal(a, b)

    def test_spawn_children_independent(self):
        f = RngFactory(7)
        child_a = f.spawn("a")
        child_b = f.spawn("b")
        assert child_a.seed != child_b.seed
        va = child_a.derive("x").integers(0, 1_000_000, 10)
        vb = child_b.derive("x").integers(0, 1_000_000, 10)
        assert not np.array_equal(va, vb)

    def test_spawn_deterministic(self):
        assert RngFactory(7).spawn("a").seed == RngFactory(7).spawn("a").seed

    def test_invalid_seed(self):
        with pytest.raises(TypeError):
            RngFactory("x")
        with pytest.raises(ValueError):
            RngFactory(-1)
        with pytest.raises(TypeError):
            RngFactory(True)

    def test_invalid_name(self):
        with pytest.raises(ValueError):
            RngFactory(1).derive("")

    @given(st.integers(min_value=0, max_value=2**32), st.text(min_size=1, max_size=20))
    @settings(max_examples=25)
    def test_derivation_reproducible_property(self, seed, name):
        a = RngFactory(seed).derive(name).integers(0, 2**31)
        b = RngFactory(seed).derive(name).integers(0, 2**31)
        assert a == b


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler here")
def test_clib_builds_with_a_compiler_command_that_has_arguments(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setenv("CC", "cc -std=gnu11")
    so_path = clib.build("probe", "int probe(void) { return 42; }\n", ["-O0"])
    assert so_path is not None
    assert clib.load(so_path, {"probe": ([], ctypes.c_int)}).probe() == 42


def test_clib_reads_an_unsplittable_compiler_command_as_no_compiler(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setenv("CC", 'cc "')
    assert clib.build("probe", "int probe(void) { return 42; }\n", []) is None
