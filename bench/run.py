#!/usr/bin/env python3
"""The repository benchmark: seven workloads, one command.

    python bench/run.py [--workload NAME]... [--seed 2008] [--reps 5]
                        [--seconds S] [--trace [0|1]] [--out FILE] [--smoke]

Each selected workload runs in its own fresh interpreter, one at a time
(``child.py``): set-up, one untimed warm-up, the timed repetitions, an
untimed verify phase.  Every metric is printed by name with its unit as
the median over repetitions, with min/max and the sample count; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is non-zero
if any verify failed.

``--seconds S`` measures for S seconds (as many repetitions as fit, at
least two); without it ``--reps`` repetitions are made (default 5).
``--trace 1`` (or bare ``--trace``) makes the traced run instead:
untraced and traced repetitions in pairs (``--reps`` pairs, default 3),
a counting pass and the per-layer probe suite; spans go to ``--out``.
With one ``--workload`` the JSON line holds exactly the metrics
``BENCHMARK.json`` declares — end-to-end for an untraced run, per-layer
for a traced one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import _paths
import metrics

import numpy
import scipy

from repro.coding.backends import best_backend_name
from repro.coding.native import _simd_cflags

#: build outputs and scratch files stay inside the checkout
BUILD_DIR = _paths.ROOT / ".bench_build"
#: set-up time is sampled this many times per untraced run (fresh processes)
SETUP_SAMPLES = 3
DEFAULT_REPS = 5
DEFAULT_TRACE_PAIRS = 3
CHILD_TIMEOUT_S = 170


def child_environment() -> Dict[str, str]:
    """One BLAS thread, a fixed hash seed, the in-checkout codec cache."""
    env = dict(os.environ)
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[variable] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def git_commit() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git work tree."""
    try:
        done = subprocess.run(
            ["git", "-C", str(_paths.ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def prepare_backend() -> Dict[str, object]:
    """Build (or find) the native codec once, before any child starts.

    A cold build is compiler time, not set-up time, so it is paid here
    and reported once as ``coding.backend.build_s``; children then load
    the cached shared object and ``setup_s`` measures a warm cache.  The
    codec caches under XDG_CACHE_HOME, which is pointed inside the
    checkout here (children inherit it) so nothing is written elsewhere.
    """
    os.environ["XDG_CACHE_HOME"] = str(BUILD_DIR / "cache")
    cache = BUILD_DIR / "cache" / "repro-omnc"
    cold = not any(cache.glob("gf_native_*.so"))
    started = time.perf_counter()
    name = best_backend_name()
    elapsed = time.perf_counter() - started
    info: Dict[str, object] = {"backend": name, "simd": _simd_cflags()}
    if cold and name == "native":
        info["coding.backend.build_s"] = elapsed
    return info


def environment_header(args: argparse.Namespace) -> Dict[str, object]:
    """What a reader needs to judge whether two result files compare."""
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    header: Dict[str, object] = {
        "git_commit": git_commit(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_1m": load,
        "env.noisy": load > 0.5 * nproc,
        "seed": args.seed,
        "reps": args.reps,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }
    header.update(prepare_backend())
    if header["env.noisy"]:
        print(
            f"bench: 1-min load average {load:.2f} exceeds {0.5 * nproc:.1f}; "
            "timings will be noisy",
            file=sys.stderr,
        )
    return header


def spawn(mode: str, workload: str, args: argparse.Namespace) -> dict:
    """Run ``child.py`` in a fresh interpreter and parse its last line."""
    command = [
        sys.executable,
        str(_paths.BENCH_DIR / "child.py"),
        "--mode",
        mode,
        "--workload",
        workload,
        "--seed",
        str(args.seed),
        "--started-at",
        repr(time.time()),
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    elif args.reps is not None:
        command += ["--reps", str(args.reps)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(
        command,
        env=child_environment(),
        cwd=_paths.ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} ({mode}) exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(document: dict, setups: List[dict]) -> Dict[str, dict]:
    """Every end-to-end metric the workload's samples support.

    ``setups`` holds one document per set-up sample (the measuring
    child's own included).  ``setup_s``, ``wall_s`` and everything
    derived from them are at reference speed (see ``child.SpeedSampler``);
    ``setup_raw_s``, ``wall_raw_s`` and ``speed_factor`` keep what the
    clock actually read.
    """
    walls = document["wall_s"]
    result = {
        "setup_s": metrics.summary([sample["setup_s"] for sample in setups], "s"),
        "setup_raw_s": metrics.summary([sample["setup_raw_s"] for sample in setups], "s"),
        "wall_s": metrics.summary(walls, "s"),
        "wall_raw_s": metrics.summary(document["wall_raw_s"], "s"),
        "speed_factor": metrics.summary(document["speed_factor"], "x"),
        "slots_per_s": metrics.summary([document["slots"] / wall for wall in walls], "slots/s"),
        "peak_rss_mb": metrics.summary([document["peak_rss_mb"]], "MB"),
        "ops_failed_share": metrics.summary(
            [document["failed"] / document["attempted"]], "ratio"
        ),
    }
    if document["payload_bytes"]:
        result["goodput_mb_per_s"] = metrics.summary(
            [document["payload_bytes"] / wall / 1e6 for wall in walls], "MB/s"
        )
    if any(document["replan_s"]):
        # value: over the re-plans of all repetitions pooled; min/max: the
        # same statistic per repetition, i.e. how far repetitions disagree
        pooled = [1e3 * sample for rep in document["replan_s"] for sample in rep]
        per_rep = [[1e3 * sample for sample in rep] for rep in document["replan_s"]]
        percentile, _tail = metrics.tail_percentile(pooled)
        for name, statistic in (
            ("replan_ms_p50", statistics.median),
            ("replan_ms_p95", lambda values: metrics.percentile(values, percentile)),
        ):
            record = metrics.summary([statistic(rep) for rep in per_rep], "ms")
            record.update(value=statistic(pooled), n=len(pooled))
            result[name] = record
        result["replan_ms_p95"]["percentile"] = percentile
    return result


def run_untraced(workload: str, args: argparse.Namespace) -> dict:
    """Set-up samples, then the measuring child."""
    setups = [spawn("setup", workload, args) for _ in range(SETUP_SAMPLES - 1)]
    document = spawn("measure", workload, args)
    setups.append(document)
    return {
        "digest": document["digest"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "notes": document["notes"],
        "metrics": end_to_end(document, setups),
    }


def run_traced(workload: str, args: argparse.Namespace) -> dict:
    """The traced child: per-layer metrics, self times and spans."""
    document = spawn("trace", workload, args)
    return {
        "digest": document["digest"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "notes": document["notes"],
        "untraced_wall_s": metrics.summary(document["untraced_wall_s"], "s"),
        "traced_wall_s": metrics.summary(document["traced_wall_s"], "s"),
        "per_layer": document["per_layer"],
        "layer_self_s": document["layer_self_s"],
        "self_s": document["self_s"],
        "spans": document["spans"],
    }


def derived_scaling(results: Dict[str, dict]) -> Dict[str, dict]:
    """Serial wall over parallel wall, base stated; needs both workloads."""
    derived = {}
    for serial, parallel in (
        ("campaign_serial", "campaign_jobs2"),
        ("mesh2k_serial", "mesh2k_shards2"),
    ):
        if serial in results and parallel in results:
            base = results[serial]["metrics"]["wall_s"]["value"]
            other = results[parallel]["metrics"]["wall_s"]["value"]
            derived[f"scaling.{parallel}_x"] = {
                "value": base / other,
                "unit": "x",
                "base": f"{serial} wall_s {base:.4f} s over {parallel} wall_s {other:.4f} s",
            }
    if "scaling.campaign_jobs2_x" in derived:
        derived["exec.campaign.parallel_efficiency"] = {
            "value": derived["scaling.campaign_jobs2_x"]["value"] / 2,
            "unit": "ratio",
            "base": "scaling.campaign_jobs2_x over 2 workers",
        }
    return derived


def print_untraced(workload: str, result: dict) -> None:
    for name, record in result["metrics"].items():
        note = ""
        if record.get("percentile", 95) != 95:
            note = f"  (p{record['percentile']}: too few samples for p95)"
        print(
            f"{workload:20s} {name:18s} {record['value']:14.6g} {record['unit']:8s}"
            f" min {record['min']:.6g} max {record['max']:.6g} n={record['n']}{note}"
        )
    print(f"{workload:20s} {'result_digest':18s} {result['digest']}")


def print_traced(workload: str, result: dict, benchmark: dict) -> None:
    units = {entry["name"]: entry["unit"] for entry in benchmark["per_layer"]}
    for name in sorted(result["per_layer"]):
        print(f"{workload:20s} {name:44s} {result['per_layer'][name]:14.6g} {units.get(name, '')}")
    total = sum(result["layer_self_s"].values())
    for layer, seconds in sorted(result["layer_self_s"].items(), key=lambda item: -item[1]):
        print(f"{workload:20s} self_time.{layer:34s} {seconds:14.6g} s  ({seconds / total:.1%})")


def contract_line(results: Dict[str, dict], traced: bool, benchmark: dict) -> dict:
    """The JSON object the driver reads from the last line."""
    declared = benchmark["per_layer" if traced else "end_to_end"]
    single = len(results) == 1
    reported = {}
    for workload, result in results.items():
        for entry in declared:
            if traced:
                value = result["per_layer"][entry["name"]]
            else:
                value = result["metrics"][entry["name"]]["value"]
            key = entry["name"] if single else f"{workload}:{entry['name']}"
            reported[key] = {"value": value, "unit": entry["unit"]}
    failed = sum(result["failed"] for result in results.values())
    return {
        "correct": failed == 0,
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": failed,
        "metrics": reported,
    }


def parse_arguments(argv: Optional[List[str]], workloads: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", choices=workloads)
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument("--reps", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path)
    parser.add_argument("--smoke", action="store_true", help="self-test shapes")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds is not None and args.reps is not None:
        parser.error("give --seconds or --reps, not both")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.reps is not None and args.reps < 1:
        parser.error("--reps must be >= 1")
    if args.seconds is None and args.reps is None:
        args.reps = DEFAULT_TRACE_PAIRS if args.trace else DEFAULT_REPS
    return args


def main(argv: Optional[List[str]] = None) -> int:
    benchmark = metrics.load_benchmark()
    workloads = [entry["name"] for entry in benchmark["workloads"]]
    args = parse_arguments(argv, workloads)
    selected = args.workload or workloads
    header = environment_header(args)
    print(
        "# bench:"
        + "".join(f" {key}={value}" for key, value in header.items() if key != "simd")
        + f" simd={' '.join(header['simd']) or 'none'}"
    )
    results: Dict[str, dict] = {}
    for workload in selected:
        if args.trace:
            results[workload] = run_traced(workload, args)
            print_traced(workload, results[workload], benchmark)
        else:
            results[workload] = run_untraced(workload, args)
            print_untraced(workload, results[workload])
        for note in results[workload]["notes"]:
            print(f"{workload:20s} VERIFY FAILED: {note}")
    derived = {} if args.trace else derived_scaling(results)
    for name, record in derived.items():
        print(f"{name:39s} {record['value']:14.6g} {record['unit']:8s} ({record['base']})")
    if args.out is not None:
        document = {"header": header, "workloads": results, "derived": derived}
        args.out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    line = contract_line(results, bool(args.trace), benchmark)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
