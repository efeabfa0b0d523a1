"""Registry semantics of :mod:`repro.coding.backends`.

Covers name lookup, lazy providers (including failing ones), the
``OMNC_GF_BACKEND`` environment override, ``select_backend`` round-trips
with worker export, default-field resolution in the codec classes, and
the one-warning-per-process report when a request cannot be honoured.

Selection cases run against ``_test_double``, a stand-in registered
backend: ``native`` may be absent here and ``numpy`` is what a stale
name falls back to, so neither can show that a *selection* took effect.
"""

import logging

import numpy as np
import pytest

from repro.coding import backends
from repro.coding.backends import (
    BACKEND_ENV,
    REFERENCE_BACKEND,
    active_backend,
    active_backend_name,
    available_backends,
    best_backend_name,
    get_backend,
    register_backend,
    registered_backends,
    resolve_field,
    select_backend,
)
from repro.coding.decoder import ProgressiveDecoder
from repro.coding.gf256 import GF256


class _Double(GF256):
    """A registered backend that is neither the reference nor ``best``."""

    name = "_test_double"


@pytest.fixture(autouse=True)
def _clean_selection(monkeypatch):
    """Isolate each test from process-level backend selection."""
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    monkeypatch.setattr(backends, "_DEGRADATION_LOGGED", False)
    backends.clear_selection()
    register_backend(_Double.name, _Double)
    yield
    backends.clear_selection()
    backends._REGISTRY.pop(_Double.name, None)


@pytest.fixture
def no_native(monkeypatch):
    """A machine whose compiled backend fails to build or self-test."""
    monkeypatch.setitem(backends._RESOLVED, "native", None)


class TestLookup:
    def test_reference_backend_is_always_registered(self):
        assert REFERENCE_BACKEND in registered_backends()
        assert REFERENCE_BACKEND in available_backends()
        assert get_backend(REFERENCE_BACKEND) is GF256

    def test_registry_is_the_reference_and_the_compiled_backend(self):
        assert set(registered_backends()) - {_Double.name} == {"numpy", "native"}

    def test_unknown_name_raises_keyerror_listing_available(self):
        with pytest.raises(KeyError, match="available here"):
            get_backend("definitely-not-a-backend")

    def test_best_resolves_to_an_available_backend(self):
        name = best_backend_name()
        assert name in available_backends()
        assert get_backend("best") is get_backend(name)

    def test_every_available_backend_resolves(self):
        for name in available_backends():
            backend = get_backend(name)
            assert hasattr(backend, "matmul")
            assert hasattr(backend, "eliminate_panel")


class TestLazyProviders:
    def test_failing_provider_degrades_to_unavailable(self):
        def explode():
            raise RuntimeError("toolchain on fire")

        register_backend("_test_broken", explode, lazy=True)
        try:
            assert "_test_broken" in registered_backends()
            assert "_test_broken" not in available_backends()
            with pytest.raises(KeyError):
                get_backend("_test_broken")
        finally:
            backends._REGISTRY.pop("_test_broken", None)
            backends._PROVIDERS.pop("_test_broken", None)
            backends._RESOLVED.pop("_test_broken", None)

    def test_provider_returning_none_is_skipped_cleanly(self):
        register_backend("_test_absent", lambda: None, lazy=True)
        try:
            assert "_test_absent" not in available_backends()
        finally:
            backends._PROVIDERS.pop("_test_absent", None)
            backends._RESOLVED.pop("_test_absent", None)

    def test_provider_runs_once_and_caches(self):
        calls = []

        def provider():
            calls.append(1)
            return GF256

        register_backend("_test_cached", provider, lazy=True)
        try:
            assert get_backend("_test_cached") is GF256
            assert get_backend("_test_cached") is GF256
            assert len(calls) == 1
        finally:
            backends._PROVIDERS.pop("_test_cached", None)
            backends._RESOLVED.pop("_test_cached", None)

    def test_eager_registration_replaces_lazy(self):
        register_backend("_test_swap", lambda: None, lazy=True)
        register_backend("_test_swap", GF256)
        try:
            assert get_backend("_test_swap") is GF256
        finally:
            backends._REGISTRY.pop("_test_swap", None)

    def test_empty_name_is_rejected(self):
        with pytest.raises(ValueError):
            register_backend("", GF256)


class TestSelection:
    def test_default_active_backend_is_the_best_available(self):
        assert active_backend() is get_backend("best")
        assert active_backend_name() == best_backend_name()

    def test_default_active_backend_is_the_reference(self, no_native):
        """...on a machine that cannot build anything better."""
        assert active_backend() is GF256
        assert active_backend_name() == REFERENCE_BACKEND

    def test_reference_can_still_be_forced(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, REFERENCE_BACKEND)
        assert active_backend() is GF256
        backends.clear_selection()
        monkeypatch.delenv(BACKEND_ENV)
        select_backend(REFERENCE_BACKEND)
        assert active_backend() is GF256

    def test_env_override_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, _Double.name)
        assert active_backend() is _Double
        assert active_backend_name() == _Double.name

    def test_stale_env_name_falls_back_to_reference(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "no-such-backend")
        assert active_backend() is GF256
        assert active_backend_name() == REFERENCE_BACKEND

    def test_select_backend_round_trip(self):
        backend = select_backend(_Double.name)
        assert backend is _Double
        assert active_backend() is _Double
        assert active_backend_name() == _Double.name
        backends.clear_selection()
        assert active_backend() is get_backend("best")

    def test_select_backend_export_sets_env_for_workers(self, monkeypatch):
        import os

        select_backend(_Double.name, export=True)
        try:
            assert os.environ[BACKEND_ENV] == _Double.name
        finally:
            monkeypatch.delenv(BACKEND_ENV, raising=False)

    def test_select_backend_validates_the_name(self):
        with pytest.raises(KeyError):
            select_backend("bogus")
        assert active_backend() is get_backend("best")

    def test_select_best_reports_concrete_name(self):
        select_backend("best")
        assert active_backend_name() == best_backend_name()


class TestDegradationIsReportedOnce:
    """A request the machine cannot honour runs on what is left and says
    so exactly once per process (ROADMAP 5(c))."""

    @staticmethod
    def _warnings(caplog):
        return [r for r in caplog.records if r.name == backends.__name__]

    def test_unknown_env_name_warns_once(self, monkeypatch, caplog):
        monkeypatch.setenv(BACKEND_ENV, "no-such-backend")
        with caplog.at_level(logging.WARNING, logger=backends.__name__):
            for _ in range(3):
                assert active_backend() is GF256
                ProgressiveDecoder(4, 8)
        (record,) = self._warnings(caplog)
        assert "'no-such-backend'" in record.getMessage()
        assert "'numpy'" in record.getMessage()

    def test_failed_native_build_warns_once(self, no_native, caplog):
        with caplog.at_level(logging.WARNING, logger=backends.__name__):
            assert get_backend("best") is GF256
            assert best_backend_name() == REFERENCE_BACKEND
            assert active_backend() is GF256
        (record,) = self._warnings(caplog)
        assert "'native'" in record.getMessage()
        assert "'numpy'" in record.getMessage()

    def test_honoured_requests_are_silent(self, caplog):
        with caplog.at_level(logging.WARNING, logger=backends.__name__):
            select_backend(REFERENCE_BACKEND)
            assert active_backend() is GF256
            select_backend(_Double.name)
            assert active_backend() is _Double
        assert not self._warnings(caplog)

    def test_miscompiled_kernel_fails_the_self_test(self, monkeypatch):
        """A wrong ``basis_insert`` or ``combine`` must unregister the
        backend instead of corrupting decodes."""
        native = pytest.importorskip("repro.coding.native")
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

        assert native._self_test(native.GF256Native)
        assert not native._self_test(WrongCombine)
        assert not native._self_test(WrongInsert)


class TestDefaultFieldResolution:
    def test_resolve_field_prefers_explicit(self):
        assert resolve_field(_Double) is _Double
        assert resolve_field(None) is get_backend("best")

    def test_decoder_picks_up_selected_backend(self):
        select_backend(_Double.name)
        decoder = ProgressiveDecoder(4, 8)
        assert decoder._field is _Double

    def test_decoder_explicit_field_wins_over_selection(self):
        select_backend(_Double.name)
        decoder = ProgressiveDecoder(4, 8, field=GF256)
        assert decoder._field is GF256

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
