"""The default GF(2^8) field of :mod:`repro.coding.backends`.

The codec runs on the compiled field exactly when it builds, loads and
passes its self-test, else on the numpy reference with one warning per
process; an explicit ``field=`` always wins.  ``no_native`` stands in for
a machine whose compiled field fails: it clears the loader's cached
verdict and makes the build fail.
"""

import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.coding import backends, native
from repro.coding.backends import (
    REFERENCE_BACKEND,
    available_backends,
    best_backend_name,
    default_field,
    get_backend,
    resolve_field,
    select_backend,
)
from repro.coding.decoder import ProgressiveDecoder
from repro.coding.gf256 import GF256


class Explicit(GF256):
    """A field no process picks by default."""


@pytest.fixture
def no_native(monkeypatch):
    """A process whose compiled field fails to build or self-test."""
    monkeypatch.setattr(native, "load_native_backend", lambda: None)
    default_field.cache_clear()
    yield
    default_field.cache_clear()


def _warnings(caplog):
    return [r for r in caplog.records if r.name == backends.__name__]


class TestLookup:
    def test_reference_backend_is_always_registered(self):
        assert available_backends()[0] == REFERENCE_BACKEND
        assert get_backend(REFERENCE_BACKEND) is GF256

    def test_unknown_name_raises_keyerror_listing_available(self):
        with pytest.raises(KeyError, match="available here"):
            get_backend("definitely-not-a-backend")

    def test_best_resolves_to_an_available_backend(self):
        name = best_backend_name()
        assert name in available_backends()
        assert get_backend("best") is get_backend(name) is default_field()

    def test_every_available_backend_resolves(self):
        for name in available_backends():
            backend = get_backend(name)
            assert hasattr(backend, "matmul")
            assert hasattr(backend, "eliminate_panel")


class TestDefaultField:
    def test_default_is_native_exactly_when_it_loads_and_self_tests(self):
        loaded = native.load_native_backend()
        assert (default_field() is native.GF256Native) == (loaded is not None)
        expected = (REFERENCE_BACKEND, "native") if loaded else (REFERENCE_BACKEND,)
        assert available_backends() == expected

    def test_default_is_the_reference_without_a_compiled_field(self, no_native):
        assert default_field() is GF256
        assert available_backends() == (REFERENCE_BACKEND,)
        assert best_backend_name() == REFERENCE_BACKEND

    def test_select_backend_accepts_only_the_default(self):
        assert select_backend(best_backend_name(), export=True) is default_field()
        for name in ("bogus", "best", *available_backends()[:-1]):
            with pytest.raises(KeyError):
                select_backend(name)


class TestDegradationIsReportedOnce:
    """A machine that cannot run the compiled field runs the reference
    and says so exactly once per process."""

    def test_failed_native_build_warns_once(self, no_native, caplog):
        with caplog.at_level(logging.WARNING, logger=backends.__name__):
            for _ in range(3):
                assert resolve_field(None) is GF256
                ProgressiveDecoder(4, 8)
        (record,) = _warnings(caplog)
        assert record.getMessage() == (
            "the compiled GF(2^8) codec is unavailable here; the codec runs on numpy"
        )

    def test_a_missing_kernel_source_warns_once(self, monkeypatch, tmp_path, caplog):
        monkeypatch.setattr(native, "SOURCE", tmp_path / "gf256.c")
        monkeypatch.setattr(native.GF256Native, "_lib", None)
        default_field.cache_clear()
        try:
            with caplog.at_level(logging.WARNING, logger=backends.__name__):
                for _ in range(3):
                    assert resolve_field(None) is GF256
        finally:
            default_field.cache_clear()
        (record,) = _warnings(caplog)
        assert "compiled GF(2^8) codec is unavailable here" in record.getMessage()

    def test_honoured_requests_are_silent(self, caplog):
        default_field.cache_clear()
        with caplog.at_level(logging.WARNING, logger=backends.__name__):
            field = default_field()
        assert bool(_warnings(caplog)) == (field is GF256)

    def test_miscompiled_kernel_fails_the_self_test(self):
        """A wrong ``basis_insert``, ``basis_insert_rows`` or ``combine``
        must fail the self-test instead of corrupting decodes."""
        if "native" not in available_backends():
            pytest.skip("no compiled backend on this machine")

        class WrongCombine(native.GF256Native):
            @classmethod
            def combine(cls, mix, rows):
                return super().combine(mix, rows) ^ np.uint8(1)

        class WrongInsert(native.GF256Native):
            @classmethod
            def basis_insert(cls, basis, row):
                stored = super().basis_insert(basis, row)
                basis.matrix[0, -1] ^= 1
                return stored

        class WrongInsertRows(native.GF256Native):
            @classmethod
            def basis_insert_rows(cls, basis, rows):
                verdicts = super().basis_insert_rows(basis, rows)
                basis.matrix[0, -1] ^= 1
                return verdicts

        assert native._self_test(native.GF256Native)
        assert not native._self_test(WrongCombine)
        assert not native._self_test(WrongInsert)
        assert not native._self_test(WrongInsertRows)


class TestTableWalk:
    """The same kernels built without SIMD flags: Sec. 4's comparator."""

    def test_the_table_walk_build_loads_its_own_library_and_self_tests(self):
        field = native.load_table_walk()
        if field is None:
            pytest.skip("no C compiler builds the kernels here")
        assert field is native.GF256TableWalk
        assert native._self_test(field)
        assert field._lib is not None and field._lib is not native.GF256Native._lib
        assert field not in (get_backend(name) for name in available_backends())


class TestDefaultFieldResolution:
    def test_resolve_field_prefers_explicit(self):
        assert resolve_field(Explicit) is Explicit
        assert resolve_field(None) is default_field()

    def test_decoder_picks_up_selected_backend(self):
        assert ProgressiveDecoder(4, 8)._field is default_field()

    def test_decoder_explicit_field_wins_over_selection(self):
        assert ProgressiveDecoder(4, 8, field=Explicit)._field is Explicit

    def test_decode_result_is_backend_independent(self):
        rng = np.random.default_rng(5)
        from repro.coding.generation import GenerationParams, random_generation

        generation = random_generation(0, GenerationParams(6, 16), rng)
        results = []
        for name in available_backends():
            field = get_backend(name)
            decoder = ProgressiveDecoder(6, 16, field=field)
            vectors = np.random.default_rng(9).integers(
                0, 256, size=(10, 6), dtype=np.uint8
            )
            payloads = GF256.matmul(vectors, generation.matrix)
            decoder.add_rows(np.concatenate([vectors, payloads], axis=1))
            assert decoder.is_complete
            results.append(decoder.decode())
        for result in results[1:]:
            assert np.array_equal(result, results[0])


def test_every_kernel_falls_back_with_one_warning_without_a_compiler(tmp_path):
    """The codec, Table 1 and the slot loop share one rule: a process
    whose compiler fails runs each one's fallback and says so once."""
    script = """
import logging
logging.basicConfig(format="%(name)s: %(message)s")
from repro.coding import backends
from repro.coding.gf256 import GF256
from repro.emulator import engine
from repro.optimization import rate_control
for _ in range(2):
    assert backends.default_field() is GF256
    assert rate_control.compiled_kernel() is None
    assert engine.compiled_kernel() is None
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "CC": "/bin/false", "XDG_CACHE_HOME": str(tmp_path)}
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert sorted(done.stderr.splitlines()) == [
        "repro.coding.backends: the compiled GF(2^8) codec is unavailable here; "
        "the codec runs on numpy",
        "repro.emulator.engine: the compiled slot loop is unavailable here; "
        "every core runs the scalar slot loop",
        "repro.optimization.rate_control: the compiled Table 1 loop is unavailable here; "
        "rate control runs in Python",
    ]
