"""Metric declarations and the statistics every report line uses.

``BENCHMARK.json`` at the repository root is the contract the driver
reads: the end-to-end metrics *every* workload reports, with their
regression bounds, and the per-layer metrics of the traced run.  Four
more end-to-end metrics exist only on some workloads — goodput where
payload reaches a destination, re-plan latency where re-plans happen —
or read exactly 0 when all is well, which the driver's format cannot
express; they are declared in :data:`WORKLOAD_METRICS` below, printed by
``run.py`` wherever a workload produces the samples, and judged by
``compare.py`` with the bounds given here.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, Sequence, Tuple

import _paths

BENCHMARK_PATH = _paths.ROOT / "BENCHMARK.json"

#: End-to-end metrics outside the driver's contract: name -> declaration.
#: ``bound`` is relative, except for ``ops_failed_share`` where any rise
#: is a regression.
WORKLOAD_METRICS: Dict[str, dict] = {
    "goodput_mb_per_s": {
        "unit": "MB/s",
        "better": "higher",
        "bound": 0.10,
    },
    "replan_ms_p50": {
        "unit": "ms",
        "better": "lower",
        "bound": 0.10,
    },
    "replan_ms_p95": {
        "unit": "ms",
        "better": "lower",
        "bound": 0.20,
    },
    "ops_failed_share": {
        "unit": "ratio",
        "better": "lower",
        "bound": 0.0,
    },
}


def load_benchmark() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads(BENCHMARK_PATH.read_text())


def end_to_end_declarations() -> Dict[str, dict]:
    """Every end-to-end metric: the contract's, then the workload-bound ones."""
    declared = {
        entry["name"]: {
            "unit": entry["unit"],
            "better": entry["better"],
            "bound": entry["bound"],
        }
        for entry in load_benchmark()["end_to_end"]
    }
    declared.update(WORKLOAD_METRICS)
    return declared


def summary(samples: Sequence[float], unit: str) -> dict:
    """Median with min/max and the sample count, as every timing is reported."""
    return {
        "value": statistics.median(samples),
        "unit": unit,
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
    }


def percentile(samples: Sequence[float], rank: int) -> float:
    """The ``rank``-th percentile by nearest rank (no interpolation)."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, len(ordered) * rank // 100)]


def tail_percentile(samples: Sequence[float]) -> Tuple[int, float]:
    """The highest of p99/p95/p90/p75/p50 with >= 10 samples beyond it.

    Returns ``(rank, value)``; p95 needs 200 samples, p90 100.  With
    fewer than 40 samples nothing above the median is supported.
    """
    count = len(samples)
    for rank in (99, 95, 90, 75):
        if count * (100 - rank) >= 1000:
            return rank, percentile(samples, rank)
    return 50, statistics.median(samples)

