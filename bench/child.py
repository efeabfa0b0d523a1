"""One workload in one fresh interpreter.

``run.py`` starts this module as a subprocess per workload and reads one
JSON document from the last line of its standard output.  Three modes:

* ``setup``   — set the workload up and exit (a set-up time sample);
* ``measure`` — set-up, one untimed warm-up, timed repetitions with
  tracing off, then the untimed verify phase;
* ``trace``   — set-up, warm-up, untraced and traced repetitions in
  turn, one counting pass under ``obs.collecting()``, then the per-layer
  probe suite.

``measure`` and ``trace`` are plain functions so the self-tests can call
them in-process.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional

import _paths  # noqa: F401
import metrics
import probes
import workloads
from spans import SpanRecorder
from speed import SpeedSampler, timed

from repro import obs
from repro.coding.backends import best_backend_name, select_backend

#: a timed loop always makes this many repetitions, however slow they are
MIN_REPS = 2
#: share of a traced run's --seconds spent on untraced/traced pairs; the
#: counting pass and the probe suite take the rest
TRACE_PAIR_SHARE = 0.5


def load_backend() -> Dict[str, object]:
    """Resolve ``get_backend("best")`` once and make it the process default.

    Exported through the environment so pool and shard workers inherit
    it; the exact-fidelity runtimes pick the process default up.
    """
    started = time.perf_counter()
    name = best_backend_name()
    select_backend(name, export=True)
    return {"backend": name, "backend_load_s": time.perf_counter() - started}


def set_up(name: str, seed: int, smoke: bool, started_at: Optional[float]) -> tuple:
    """Backend plus workload set-up; seconds since the parent started us.

    Interpreter start and imports are over before a timer could sample
    them, so set-up time is put at reference speed with the machine's
    speed measured the moment set-up ends (speed shifts last far longer
    than a set-up).
    """
    begin = time.time() if started_at is None else started_at
    info = load_backend()
    workload = workloads.make_workload(name, seed, smoke)
    info["setup_raw_s"] = time.time() - begin
    info["setup_s"] = info["setup_raw_s"] / SpeedSampler.spot_factor()
    return workload, info


def timed_reps(workload, seconds: Optional[float], reps: Optional[int]):
    """Closed loop: repetitions back to back until the budget is spent.

    With ``reps`` the count is fixed; with ``seconds`` a further
    repetition starts only while half of it still fits the budget, and
    at least ``MIN_REPS`` are made.  Returns the repetitions' results,
    raw wall times and speed factors.
    """
    results, walls, factors = [], [], []
    begin = time.perf_counter()
    while True:
        result, wall, factor = timed(workload.rep)
        results.append(result)
        walls.append(wall)
        factors.append(factor)
        if reps is not None:
            if len(walls) >= reps:
                break
        elif len(walls) >= MIN_REPS:
            spent = time.perf_counter() - begin
            if spent + 0.5 * statistics.median(walls) > seconds:
                break
    return results, walls, factors


def peak_rss_mb(workload) -> float:
    """Peak RSS of this process plus one largest-worker peak per worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workload.workers * worker) / 1024.0


def verify(workload, results) -> Dict[str, object]:
    """Operations attempted and failed, with a note per failure.

    Every repetition's own count (sessions in ``failures``, generations
    not decoded or decoded wrong, re-plans that could not plan), one
    check per repetition that its digest equals the first one's, and
    for a parallel workload one check against the serial twin.
    """
    attempted = sum(result.attempted for result in results)
    failed = sum(result.failed for result in results)
    notes: List[str] = []
    if failed:
        notes.append(f"{failed} operation(s) failed inside the repetitions")
    first = results[0].digest
    for index, result in enumerate(results[1:], start=1):
        attempted += 1
        if result.digest != first:
            failed += 1
            notes.append(f"repetition {index} digest differs from repetition 0")
    reference = workload.reference_digest()
    if reference is not None:
        attempted += 1
        if reference != first:
            failed += 1
            notes.append("digest differs from the serial reference")
    return {"attempted": attempted, "failed": failed, "notes": notes}


def measure(
    name: str,
    seed: int,
    *,
    smoke: bool = False,
    seconds: Optional[float] = None,
    reps: Optional[int] = None,
    started_at: Optional[float] = None,
) -> dict:
    """The untraced run: every end-to-end sample of one workload."""
    workload, info = set_up(name, seed, smoke, started_at)
    workload.warmup()
    results, walls, factors = timed_reps(workload, seconds, reps)
    rss = peak_rss_mb(workload)  # before verify re-runs the serial twin here
    checked = verify(workload, results)
    return {
        "workload": name,
        **info,
        "wall_s": [wall / factor for wall, factor in zip(walls, factors)],
        "wall_raw_s": walls,
        "speed_factor": factors,
        "slots": results[0].slots,
        "payload_bytes": results[0].payload_bytes,
        "replan_s": [
            [sample / factor for sample in result.replan_s]
            for result, factor in zip(results, factors)
        ],
        "digest": results[0].digest,
        "peak_rss_mb": rss,
        **checked,
    }


#: registry instrument -> per-layer metric, for the counting pass
COUNTERS = {
    "emulator.slots": "emulator.slots",
    "emulator.transmissions": "emulator.transmissions",
    "emulator.deliveries": "emulator.deliveries",
    "emulator.blanked": "emulator.blanked",
    "emulator.grants": "emulator.grants",
    "decoder.rows_eliminated": "coding.decoder.rows_eliminated",
    "scenario.replans": "scenario.replans",
    "scenario.failed_replans": "scenario.failed_replans",
    "scenario.stall_slots": "scenario.stall_slots",
}


def count_pass(workload) -> Dict[str, float]:
    """One repetition with ``repro.obs`` collecting, in-process.

    Shard and pool workers keep their counters in their own processes,
    and a parallel workload is digest-equal to its serial twin, so the
    twin's counts are the workload's.
    """
    if workload.twin is not None:
        workload = workloads.WORKLOADS[workload.twin](workload.seed, workload.shapes)
    with obs.collecting() as registry:
        workload.rep()
    counts = {metric: registry.value(source) for source, metric in COUNTERS.items()}
    innovative = registry.value("decoder.innovative")
    offered = innovative + registry.value("decoder.redundant")
    counts["coding.decoder.innovative_ratio"] = innovative / offered if offered else 0.0
    granted = (
        registry.get("mac.granted_per_slot").mean if "mac.granted_per_slot" in registry else 0.0
    )
    counts["emulator.mac.granted_per_slot"] = granted
    return counts


def at_reference_speed(probed: Dict[str, float], factor: float) -> Dict[str, float]:
    """Probe timings and rates as they would read at reference speed.

    The whole probe suite runs under one speed sampler; durations are
    divided by its factor, rates multiplied, counts and shares left alone
    (a metric's kind is its unit in ``BENCHMARK.json``).
    """
    units = {entry["name"]: entry["unit"] for entry in metrics.load_benchmark()["per_layer"]}
    scaled = {}
    for name, value in probed.items():
        unit = units.get(name)
        if unit in ("s", "ms", "us", "ns"):
            value = value / factor
        elif unit == "MB/s":
            value = value * factor
        scaled[name] = value
    return scaled


def trace(
    name: str,
    seed: int,
    *,
    smoke: bool = False,
    seconds: Optional[float] = None,
    reps: Optional[int] = None,
    started_at: Optional[float] = None,
) -> dict:
    """The traced run: spans, counts and every per-layer metric."""
    workload, info = set_up(name, seed, smoke, started_at)
    workload.warmup()
    untraced: List[float] = []
    traced: List[float] = []
    results = []
    begin = time.perf_counter()
    while True:
        # untraced then traced, back to back, so a drift in machine speed
        # lands on both sides of each pair; only the last recorder is kept
        result, wall, factor = timed(workload.rep)
        results.append(result)
        untraced.append(wall / factor)
        rec = SpanRecorder(name)
        result, wall, factor = timed(functools.partial(workload.rep, rec))
        results.append(result)
        traced.append(wall / factor)
        if reps is not None:
            if len(traced) >= reps:
                break
        elif time.perf_counter() - begin + untraced[-1] + traced[-1] > TRACE_PAIR_SHARE * seconds:
            break
    checked = verify(workload, results)
    plain = statistics.median(untraced)
    overhead = statistics.median(t / u - 1.0 for t, u in zip(traced, untraced))
    per_layer: Dict[str, float] = {
        "bench.trace_overhead_share": overhead,
        "goodput_mb_per_s": results[0].payload_bytes / plain / 1e6,
        "ops_failed_share": checked["failed"] / checked["attempted"],
        "coding.backend.load_s": info["backend_load_s"],
    }
    per_layer.update(count_pass(workload))
    probe_rec = SpanRecorder(name)
    sampler = SpeedSampler()
    with sampler:
        probed = probes.run_probes(seed, smoke, probe_rec)
    per_layer.update(at_reference_speed(probed, sampler.factor))
    return {
        "workload": name,
        **info,
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "probe_speed_factor": sampler.factor,
        "digest": results[0].digest,
        "per_layer": per_layer,
        "layer_self_s": rec.layer_self_times(),
        "self_s": rec.self_times(),
        "spans": rec.as_dicts() + probe_rec.as_dicts(),
        **checked,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--reps", type=int)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--started-at", type=float, help="time.time() when the parent spawned us")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        _workload, document = set_up(args.workload, args.seed, args.smoke, args.started_at)
    else:
        run = measure if args.mode == "measure" else trace
        document = run(
            args.workload,
            args.seed,
            smoke=args.smoke,
            seconds=args.seconds,
            reps=args.reps,
            started_at=args.started_at,
        )
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
