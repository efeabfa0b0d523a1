#!/usr/bin/env python3
"""Compare two result files written by ``run.py --out``.

    python bench/compare.py A.json B.json

One row per (workload x end-to-end metric): both medians with min/max,
the metric's bound, the change of B against A in the metric's *worse*
direction, and a verdict:

* ``ok``         — B's median is not worse than A's by more than the bound;
* ``worse``      — it is;
* ``unresolved`` — the spread of either side is wider than the bound and
  the two sides' runs interleave, so the medians decide nothing.

A changed ``result_digest`` is flagged (the simulated statistics moved —
fine for a behaviour change, a defect for a perf-only one).  Files whose
seed, repetition budget, ``nproc`` or codec backend differ are refused.
Exit status 0 only if no row is ``worse`` and ``ops_failed_share`` did
not rise; 2 if the files do not compare.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

import metrics

#: header fields that must match for two files to be comparable
COMPARABLE = ("seed", "reps", "seconds", "nproc", "backend", "smoke", "trace")


def header_mismatches(first: dict, second: dict) -> List[str]:
    """Human-readable differences that make a comparison meaningless."""
    mismatches = [
        f"{key}: {first['header'].get(key)!r} vs {second['header'].get(key)!r}"
        for key in COMPARABLE
        if first["header"].get(key) != second["header"].get(key)
    ]
    if first["header"].get("trace") or second["header"].get("trace"):
        mismatches.append("traced result files hold no end-to-end metrics")
    return mismatches


def relative_spread(record: dict) -> float:
    """(max - min) / median of one side's samples."""
    return (record["max"] - record["min"]) / record["value"] if record["value"] else 0.0


def verdict(name: str, declaration: dict, before: dict, after: dict) -> tuple:
    """``(change, verdict)``; change > 0 means B is worse than A."""
    bound = declaration["bound"]
    if name == "ops_failed_share":  # absolute: any rise is a regression
        change = after["value"] - before["value"]
        return change, "worse" if change > 0 else "ok"
    if declaration["better"] == "lower":
        change = (after["value"] - before["value"]) / before["value"]
    else:
        change = (before["value"] - after["value"]) / before["value"]
    noisy = max(relative_spread(before), relative_spread(after)) > bound
    interleave = before["min"] <= after["max"] and after["min"] <= before["max"]
    if noisy and interleave:
        return change, "unresolved"
    return change, "worse" if change > bound else "ok"


def compare(first: dict, second: dict) -> tuple:
    """``(rows, digest_changes)`` over the workloads both files hold."""
    declarations = metrics.end_to_end_declarations()
    rows = []
    digest_changes = []
    for workload in first["workloads"]:
        if workload not in second["workloads"]:
            continue
        before, after = first["workloads"][workload], second["workloads"][workload]
        if before["digest"] != after["digest"]:
            digest_changes.append(workload)
        for name, declaration in declarations.items():
            if name not in before["metrics"] or name not in after["metrics"]:
                continue
            a, b = before["metrics"][name], after["metrics"][name]
            change, outcome = verdict(name, declaration, a, b)
            rows.append((workload, name, a, b, declaration["bound"], change, outcome))
    return rows, digest_changes


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("first", type=Path, help="result file A (the parent)")
    parser.add_argument("second", type=Path, help="result file B (the change)")
    args = parser.parse_args(argv)
    first = json.loads(args.first.read_text())
    second = json.loads(args.second.read_text())
    mismatches = header_mismatches(first, second)
    if mismatches:
        print("not comparable: " + "; ".join(mismatches), file=sys.stderr)
        return 2
    rows, digest_changes = compare(first, second)
    print(
        f"{'workload':20s} {'metric':18s} {'A median [min..max]':>34s} "
        f"{'B median [min..max]':>34s} {'bound':>6s} {'worse by':>9s} verdict"
    )
    for workload, name, a, b, bound, change, outcome in rows:
        sides = [
            f"{side['value']:.5g} [{side['min']:.5g}..{side['max']:.5g}]" for side in (a, b)
        ]
        shown = f"{change:+9.4f}" if name == "ops_failed_share" else f"{change:+9.1%}"
        print(
            f"{workload:20s} {name:18s} {sides[0]:>34s} {sides[1]:>34s} "
            f"{bound:6.2f} {shown} {outcome}"
        )
    for workload in digest_changes:
        print(f"{workload:20s} result_digest CHANGED")
    worse = [row for row in rows if row[6] == "worse"]
    unresolved = [row for row in rows if row[6] == "unresolved"]
    print(
        f"{len(rows)} rows: {len(worse)} worse, {len(unresolved)} unresolved, "
        f"{len(digest_changes)} digest change(s)"
    )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
