#!/usr/bin/env python
"""Performance regression gate — the harness CI enforces.

Measures the codec's throughput probes, the ones that hold still well
enough to gate on:

* ``codec_encode_mbps`` — raw GF(2^8) matrix encode ``X = R . B``;
* ``codec_pipeline_mbps`` — encode + progressive Gauss-Jordan decode
  (the Sec. 4 "coding efficiency" pipeline);
* ``codec_decode_batch_mbps`` — the decoder's batch elimination alone.

Everything above the codec (slot loop, re-planning, campaigns, shards,
rate control) is measured by the repository benchmark under ``bench/``.

Raw numbers are machine-dependent, so each probe is **normalized by a
calibration workload** (numpy table-lookup + XOR — the same primitive
the codec leans on) measured in the same process.  The committed
baseline stores normalized values; a run regresses when its normalized
throughput falls more than ``--tolerance`` (default 15%) below the
baseline.  This first-order-cancels machine speed while still catching
real slowdowns: a 20% slowdown injected into the GF(2^8) encode path
moves the codec probes but not the calibration, and trips the gate
(``tests/test_regression_gate.py`` proves it).

Usage::

    python benchmarks/regression_check.py --quick                 # CI smoke
    python benchmarks/regression_check.py                         # full probes
    python benchmarks/regression_check.py --quick --write-baseline
    python benchmarks/regression_check.py --tolerance 0.10

Exit status: 0 = within tolerance, 1 = regression detected,
2 = baseline missing for this mode (run ``--write-baseline`` first).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.coding.backends import (  # noqa: E402
    available_backends,
    best_backend_name,
    default_field,
    get_backend,
)
from repro.coding.decoder import ProgressiveDecoder  # noqa: E402
from repro.coding.encoder import SourceEncoder  # noqa: E402
from repro.coding.generation import GenerationParams, random_generation  # noqa: E402
from repro.coding.gf256 import GF256  # noqa: E402
from repro.coding.matrix import FieldType  # noqa: E402

SCHEMA_VERSION = 1
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "BENCH_baseline.json"
DEFAULT_OUTPUT = Path("BENCH_local.json")
DEFAULT_TOLERANCE = 0.15


@dataclass(frozen=True)
class ProbeResult:
    """One probe's measurement."""

    name: str
    raw: float  # machine-dependent throughput
    unit: str

    def normalized(self, calibration: float) -> float:
        """Throughput relative to the calibration workload."""
        return self.raw / calibration


@dataclass(frozen=True)
class Regression:
    """One metric that fell below the gate."""

    name: str
    baseline: float  # normalized
    current: float  # normalized
    change: float  # signed relative change, negative = slower

    def describe(self) -> str:
        return (
            f"{self.name}: normalized {self.current:.4g} vs baseline "
            f"{self.baseline:.4g} ({self.change:+.1%})"
        )


def _best_of(fn: Callable[[], float], rounds: int) -> float:
    """Highest throughput over ``rounds`` invocations (noise rejection)."""
    return max(fn() for _ in range(rounds))


def calibrate(*, size: int = 1 << 20, inner: int = 16, rounds: int = 5) -> float:
    """MB/s of the calibration workload: fancy table lookup + XOR.

    This is the numpy primitive every GF(2^8) row kernel reduces to, so
    probe/calibration ratios transfer across machines far better than
    raw MB/s.
    """
    rng = np.random.default_rng(12345)
    table = rng.integers(0, 256, size=256, dtype=np.uint8)
    data = rng.integers(0, 256, size=size, dtype=np.uint8)

    def run() -> float:
        buffer = data.copy()
        started = time.perf_counter()
        for _ in range(inner):
            np.bitwise_xor(buffer, table[buffer], out=buffer)
        elapsed = time.perf_counter() - started
        return size * inner / elapsed / 1e6

    return _best_of(run, rounds)


def probe_codec_encode(
    *, blocks: int, block_size: int, inner: int, rounds: int,
    field: FieldType = GF256,
) -> ProbeResult:
    """Raw encode throughput: X = R . B over GF(2^8)."""
    rng = np.random.default_rng(7)
    coefficients = rng.integers(0, 256, size=(blocks, blocks), dtype=np.uint8)
    generation = rng.integers(0, 256, size=(blocks, block_size), dtype=np.uint8)

    def run() -> float:
        started = time.perf_counter()
        for _ in range(inner):
            field.matmul(coefficients, generation)
        elapsed = time.perf_counter() - started
        return blocks * block_size * inner / elapsed / 1e6

    return ProbeResult("codec_encode_mbps", _best_of(run, rounds), "MB/s")


def probe_codec_pipeline(
    *, blocks: int, block_size: int, inner: int, rounds: int,
    field: FieldType = GF256, name: str = "codec_pipeline_mbps",
) -> ProbeResult:
    """Encode + progressive-decode pipeline throughput (Sec. 4).

    Feeds the decoder generation-sized batches through the block entry
    points (``next_packets`` / ``add_packets``) — the batch-first shape
    the harnesses use since the contiguous-kernel rewrite.
    """
    rng = np.random.default_rng(11)
    params = GenerationParams(blocks=blocks, block_size=block_size)
    generation = random_generation(0, params, rng)

    def run() -> float:
        started = time.perf_counter()
        for _ in range(inner):
            encoder = SourceEncoder(1, generation, rng, field=field)
            decoder = ProgressiveDecoder(blocks, block_size, field=field)
            while not decoder.is_complete:
                decoder.add_packets(encoder.next_packets(blocks))
        elapsed = time.perf_counter() - started
        return blocks * block_size * inner / elapsed / 1e6

    return ProbeResult(name, _best_of(run, rounds), "MB/s")


def probe_codec_decode_batch(
    *, blocks: int, block_size: int, batch: int, inner: int, rounds: int,
    field: FieldType = GF256,
) -> ProbeResult:
    """Batched progressive-decode throughput: ``add_rows`` over batches.

    Pre-encodes a redundant stream of coded rows once, then measures only
    the decoder's batch elimination (forward-eliminate + back-substitute
    per batch), isolating the contiguous-matrix kernel from encoding.
    """
    rng = np.random.default_rng(13)
    coefficients = rng.integers(
        0, 256, size=(blocks + batch, blocks), dtype=np.uint8
    )
    generation = rng.integers(0, 256, size=(blocks, block_size), dtype=np.uint8)
    payloads = GF256.matmul(coefficients, generation)
    rows = np.concatenate([coefficients, payloads], axis=1)

    def run() -> float:
        started = time.perf_counter()
        for _ in range(inner):
            decoder = ProgressiveDecoder(blocks, block_size, field=field)
            for start in range(0, rows.shape[0], batch):
                if decoder.is_complete:
                    break
                decoder.add_rows(rows[start : start + batch])
        elapsed = time.perf_counter() - started
        return blocks * block_size * inner / elapsed / 1e6

    return ProbeResult("codec_decode_batch_mbps", _best_of(run, rounds), "MB/s")


def sweep_codec_backends(*, quick: bool) -> Dict[str, float]:
    """Pipeline MB/s for every backend available on this machine.

    Uploaded in the BENCH artifact so CI runs document what each backend
    actually delivers where they ran.
    """
    return {
        name: probe_codec_pipeline(
            blocks=16,
            block_size=1024,
            inner=3 if quick else 6,
            rounds=2,
            field=get_backend(name),
            name=f"codec_pipeline_mbps[{name}]",
        ).raw
        for name in available_backends()
    }


def collect(mode: str = "full") -> dict:
    """Run every probe; returns the canonical result document.

    Codec probes run on the *best available* backend (the acceptance
    criterion for the codec rewrite is stated against it); the
    per-backend sweep records how the alternatives compare on the same
    machine.
    """
    if mode not in ("quick", "full"):
        raise ValueError(f"mode must be 'quick' or 'full', got {mode!r}")
    quick = mode == "quick"
    calibration = calibrate(rounds=5 if quick else 8)
    codec_backend = best_backend_name()
    best = default_field()
    backend_sweep = sweep_codec_backends(quick=quick)
    probes: List[ProbeResult] = [
        # The codec probes hard-gate, and on the compiled backend a round
        # lasts single-digit milliseconds — shorter than the multi-ms
        # noise spells shared runners exhibit, so best-of-4 could land
        # entirely inside one.  Rounds are nearly free at that speed:
        # take many of them so the best-of spans enough wall time to see
        # at least one quiet window.
        probe_codec_encode(
            blocks=40,
            block_size=1024,
            inner=10 if quick else 40,
            rounds=10,
            field=best,
        ),
        # block_size stays >= 1024 in both modes: smaller blocks make the
        # probe dominated by per-call interpreter overhead, whose speed
        # varies ~±10% between processes (allocation alignment) and is
        # not cancelled by the calibration workload.
        probe_codec_pipeline(
            blocks=16 if quick else 40,
            block_size=1024,
            inner=12 if quick else 10,
            rounds=10,
            field=best,
        ),
        probe_codec_decode_batch(
            blocks=16 if quick else 40,
            block_size=1024,
            batch=8 if quick else 16,
            inner=20 if quick else 12,
            rounds=10,
            field=best,
        ),
    ]
    return {
        "schema": SCHEMA_VERSION,
        "mode": mode,
        "calibration_mbps": calibration,
        "codec_backend": codec_backend,
        "backends": {
            name: {"pipeline_mbps": mbps} for name, mbps in backend_sweep.items()
        },
        "metrics": {
            probe.name: {
                "raw": probe.raw,
                "normalized": probe.normalized(calibration),
                "unit": probe.unit,
            }
            for probe in probes
        },
    }


def compare(
    current: dict, baseline: dict, tolerance: float = DEFAULT_TOLERANCE
) -> List[Regression]:
    """Normalized-throughput gate: flag drops beyond ``tolerance``.

    Metrics present in only one document are ignored (adding a probe
    must not fail the gate until the baseline is regenerated).
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be > 0, got {tolerance}")
    regressions: List[Regression] = []
    for name, record in sorted(current["metrics"].items()):
        reference = baseline["metrics"].get(name)
        if reference is None:
            continue
        base_value = reference["normalized"]
        if base_value <= 0:
            continue
        change = (record["normalized"] - base_value) / base_value
        if change < -tolerance:
            regressions.append(
                Regression(
                    name=name,
                    baseline=base_value,
                    current=record["normalized"],
                    change=change,
                )
            )
    return regressions


def load_baseline(path: Path, mode: str) -> Optional[dict]:
    """The baseline section for ``mode``, or None when absent."""
    if not path.exists():
        return None
    document = json.loads(path.read_text())
    return document.get("modes", {}).get(mode)


def write_baseline(path: Path, result: dict) -> None:
    """Merge ``result`` into the per-mode baseline file."""
    document: Dict[str, object] = {"schema": SCHEMA_VERSION, "modes": {}}
    if path.exists():
        document = json.loads(path.read_text())
        document.setdefault("modes", {})
    document["schema"] = SCHEMA_VERSION
    document["modes"][result["mode"]] = result  # type: ignore[index]
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def _print_report(result: dict, baseline: Optional[dict]) -> None:
    print(
        f"regression check ({result['mode']} mode, "
        f"calibration {result['calibration_mbps']:.0f} MB/s)"
    )
    if result.get("backends"):
        sweep = ", ".join(
            f"{name} {record['pipeline_mbps']:.1f}"
            for name, record in sorted(result["backends"].items())
        )
        print(
            f"codec backends (pipeline MB/s): {sweep}; "
            f"codec probes served by {result.get('codec_backend')!r}"
        )
    header = f"{'metric':28s} {'raw':>12s} {'normalized':>12s} {'baseline':>12s} {'change':>8s}"
    print(header)
    for name, record in sorted(result["metrics"].items()):
        reference = (baseline or {"metrics": {}})["metrics"].get(name)
        if reference:
            base = reference["normalized"]
            change = (record["normalized"] - base) / base if base > 0 else 0.0
            tail = f"{base:12.4g} {change:+8.1%}"
        else:
            tail = f"{'—':>12s} {'—':>8s}"
        print(
            f"{name:28s} {record['raw']:12.4g} {record['normalized']:12.4g} {tail}"
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="benchmark regression gate (see module docstring)"
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced shapes for CI smoke runs"
    )
    parser.add_argument(
        "--mode",
        choices=("quick", "full"),
        default=None,
        help="probe mode; --mode quick is equivalent to --quick",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help=f"baseline file (default {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help="where to write this run's results "
        f"(default {DEFAULT_OUTPUT}; gitignored)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed normalized-throughput drop (default 0.15 = 15%%)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="record this run as the committed baseline for its mode",
    )
    args = parser.parse_args(argv)
    if args.tolerance <= 0:
        parser.error(f"--tolerance must be > 0, got {args.tolerance}")

    if args.mode is not None:
        mode = args.mode
    else:
        mode = "quick" if args.quick else "full"
    result = collect(mode)
    args.output.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")

    if args.write_baseline:
        write_baseline(args.baseline, result)
        _print_report(result, None)
        print(f"baseline ({mode}) written to {args.baseline}")
        return 0

    baseline = load_baseline(args.baseline, mode)
    if baseline is None:
        _print_report(result, None)
        print(
            f"no {mode}-mode baseline in {args.baseline}; "
            "run with --write-baseline first",
            file=sys.stderr,
        )
        return 2
    _print_report(result, baseline)
    regressions = compare(result, baseline, args.tolerance)
    if regressions:
        print(f"\nREGRESSION (> {args.tolerance:.0%} below baseline):")
        for regression in regressions:
            print(f"  {regression.describe()}")
        return 1
    print(f"\nok: all metrics within {args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
