"""Tests for the benchmark regression gate (benchmarks/regression_check.py).

The module lives outside ``src`` (it is a CI tool, not library code), so
it is loaded by file path here.
"""

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.coding.gf256 import GF256

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "regression_check", REPO_ROOT / "benchmarks" / "regression_check.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("regression_check", module)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()


def _document(**normalized):
    """A minimal result document with the given normalized metrics."""
    return {
        "schema": 1,
        "mode": "quick",
        "calibration_mbps": 100.0,
        "metrics": {
            name: {"raw": value * 100.0, "normalized": value, "unit": "MB/s"}
            for name, value in normalized.items()
        },
    }


# -------------------------------------------------------------------- compare


def test_compare_passes_identical_documents():
    document = _document(codec=1.0, emulator=2.0)
    assert gate.compare(document, copy.deepcopy(document)) == []


def test_compare_flags_only_drops_beyond_tolerance():
    baseline = _document(a=1.0, b=1.0, c=1.0)
    current = _document(a=0.90, b=0.80, c=1.50)  # -10%, -20%, +50%
    regressions = gate.compare(current, baseline, tolerance=0.15)
    assert [r.name for r in regressions] == ["b"]
    assert regressions[0].change == pytest.approx(-0.20)
    assert "b:" in regressions[0].describe()


def test_compare_ignores_metrics_missing_on_either_side():
    baseline = _document(existing=1.0, removed=1.0)
    current = _document(existing=1.0, added=0.01)
    assert gate.compare(current, baseline) == []


def test_compare_rejects_nonpositive_tolerance():
    document = _document(a=1.0)
    with pytest.raises(ValueError):
        gate.compare(document, document, tolerance=0.0)


# ----------------------------------------------------------- baseline storage


def test_baseline_write_load_round_trip(tmp_path):
    path = tmp_path / "BENCH_baseline.json"
    quick = _document(a=1.0)
    gate.write_baseline(path, quick)
    full = dict(_document(a=2.0), mode="full")
    gate.write_baseline(path, full)  # merges, does not clobber
    assert gate.load_baseline(path, "quick")["metrics"]["a"]["normalized"] == 1.0
    assert gate.load_baseline(path, "full")["metrics"]["a"]["normalized"] == 2.0
    assert gate.load_baseline(path, "missing") is None
    assert gate.load_baseline(tmp_path / "absent.json", "quick") is None


def test_committed_baseline_has_both_modes_and_all_probes():
    document = json.loads((REPO_ROOT / "benchmarks" / "BENCH_baseline.json").read_text())
    assert document["schema"] == gate.SCHEMA_VERSION
    expected = {
        "codec_decode_batch_mbps",
        "codec_encode_mbps",
        "codec_pipeline_mbps",
    }
    for mode in ("quick", "full"):
        section = document["modes"][mode]
        assert set(section["metrics"]) == expected
        for record in section["metrics"].values():
            assert record["normalized"] > 0
        # The per-backend sweep ships in the artifact and the baseline:
        # the reference backend is always present, and the backend that
        # served the codec probes is one of the measured entries.
        assert "numpy" in section["backends"]
        assert section["codec_backend"] in section["backends"]


# --------------------------------------------------------------------- probes


def test_calibration_and_codec_probe_are_positive():
    calibration = gate.calibrate(size=1 << 16, inner=2, rounds=1)
    assert calibration > 0
    probe = gate.probe_codec_encode(blocks=8, block_size=64, inner=2, rounds=1)
    assert probe.name == "codec_encode_mbps"
    assert probe.raw > 0
    assert probe.normalized(calibration) == pytest.approx(probe.raw / calibration)


def test_synthetic_codec_slowdown_trips_the_gate(monkeypatch):
    """A ~20% slowdown injected into GF(2^8) encode must be caught."""

    def probe(inner=6, rounds=3):
        return gate.probe_codec_encode(
            blocks=40, block_size=1024, inner=inner, rounds=rounds
        )

    fast = probe()
    real_matmul = GF256.matmul  # staticmethod: class access yields the function

    def slow_matmul(a, b):
        result = real_matmul(a, b)
        # Burn ~25-50% of the kernel's own cost in redundant work.
        for _ in range(2):
            real_matmul(a[: max(1, a.shape[0] // 2)], b)
        return result

    monkeypatch.setattr(GF256, "matmul", staticmethod(slow_matmul))
    slow = probe()
    monkeypatch.undo()

    calibration = 100.0  # shared calibration: slowdown hits only the probe
    baseline = _document(codec_encode_mbps=fast.normalized(calibration))
    current = _document(codec_encode_mbps=slow.normalized(calibration))
    slowdown = slow.raw / fast.raw - 1.0
    assert slowdown < -0.15, f"injected slowdown too small: {slowdown:+.1%}"
    regressions = gate.compare(current, baseline, tolerance=0.15)
    assert [r.name for r in regressions] == ["codec_encode_mbps"]


# ----------------------------------------------------------------------- main


def test_main_exit_codes(tmp_path, monkeypatch):
    """0 = ok, 1 = regression, 2 = missing baseline — without real probes."""
    healthy = _document(codec_encode_mbps=1.0)

    def fake_collect(mode):
        return dict(copy.deepcopy(healthy), mode=mode)

    monkeypatch.setattr(gate, "collect", fake_collect)
    baseline_path = tmp_path / "BENCH_baseline.json"
    output_path = tmp_path / "BENCH_local.json"
    common = [
        "--quick",
        "--baseline",
        str(baseline_path),
        "--output",
        str(output_path),
    ]

    assert gate.main(common) == 2  # no baseline yet
    assert gate.main(common + ["--write-baseline"]) == 0
    assert gate.main(common) == 0  # identical run passes
    assert json.loads(output_path.read_text())["mode"] == "quick"

    degraded = _document(codec_encode_mbps=0.5)
    monkeypatch.setattr(
        gate, "collect", lambda mode: dict(copy.deepcopy(degraded), mode=mode)
    )
    assert gate.main(common) == 1  # 50% drop trips the gate
