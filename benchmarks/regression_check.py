#!/usr/bin/env python
"""Performance regression gate — the harness CI enforces.

Measures throughput probes across the stack's hot paths:

* ``codec_encode_mbps`` — raw GF(2^8) matrix encode ``X = R . B``;
* ``codec_pipeline_mbps`` — encode + progressive Gauss-Jordan decode
  (the Sec. 4 "coding efficiency" pipeline);
* ``emulator_kslots_per_sec`` — slot loop of the packet-level emulator
  on a MORE session (scheduler + channel + runtimes); *advisory*;
* ``optimizer_iters_per_sec`` — outer iterations of the distributed
  rate control (Table 1) on the Fig. 1 sample topology; *advisory*.

Raw numbers are machine-dependent, so each probe is **normalized by a
calibration workload** (numpy table-lookup + XOR — the same primitive
the codec leans on) measured in the same process.  The committed
baseline stores normalized values; a run regresses when its normalized
throughput falls more than ``--tolerance`` (default 15%) below the
baseline.  This first-order-cancels machine speed while still catching
real slowdowns: a 20% slowdown injected into the GF(2^8) encode path
moves the codec probes but not the calibration, and trips the gate
(``tests/test_regression_gate.py`` proves it).

The interpreter/scipy-bound probes (marked *advisory*, printed with a
``~``) vary 20-40% between identical processes on shared runners —
noise no single-run gate at a sane tolerance survives — so they are
measured, reported and uploaded as artifacts, but only fail the run
under ``--strict``.

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
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.coding.backends import (  # noqa: E402
    REFERENCE_BACKEND,
    available_backends,
    best_backend_name,
    get_backend,
)
from repro.coding.decoder import ProgressiveDecoder  # noqa: E402
from repro.coding.encoder import SourceEncoder  # noqa: E402
from repro.coding.generation import GenerationParams, random_generation  # noqa: E402
from repro.coding.gf256 import GF256  # noqa: E402
from repro.coding.matrix import FieldType  # noqa: E402
from repro.emulator.node import (  # noqa: E402
    FlowDestinationRuntime,
    FlowRelayRuntime,
    FlowSourceRuntime,
)
from repro.emulator.session import SessionConfig, run_coded_session  # noqa: E402
from repro.emulator.shard import ShardedSession, _DecodeLog  # noqa: E402
from repro.topology.graph import WirelessNetwork  # noqa: E402
from repro.optimization.problem import session_graph_from_network  # noqa: E402
from repro.optimization.rate_control import RateControlAlgorithm  # noqa: E402
from repro.protocols.adaptive import make_planner  # noqa: E402
from repro.protocols.more import plan_more  # noqa: E402
from repro.routing.node_selection import NodeSelectionError  # noqa: E402
from repro.scenario import (  # noqa: E402
    builtin_scenario,
    make_policy,
    run_adaptive_session,
)
from repro.topology.phy import lossy_phy  # noqa: E402
from repro.topology.random_network import fig1_sample_topology, random_network  # noqa: E402
from repro.util.rng import RngFactory  # noqa: E402

SCHEMA_VERSION = 1
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "BENCH_baseline.json"
DEFAULT_OUTPUT = Path("BENCH_local.json")
DEFAULT_TOLERANCE = 0.15


@dataclass(frozen=True)
class ProbeResult:
    """One probe's measurement.

    ``advisory`` probes are interpreter/scipy-bound: their speed varies
    20-40% between identical processes on shared runners, independent of
    the calibration workload, so they are reported and uploaded but
    excluded from the hard gate (``compare(strict=True)`` includes them).

    ``ratio`` probes measure a dimensionless ratio of two workloads in
    the same process (e.g. a speedup); they are already machine-
    normalized, so calibration is not applied.
    """

    name: str
    raw: float  # machine-dependent throughput (or a ratio)
    unit: str
    advisory: bool = False
    ratio: bool = False

    def normalized(self, calibration: float) -> float:
        """Throughput relative to the calibration workload."""
        if self.ratio:
            return self.raw
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
    actually delivers where they ran; also feeds the advisory
    ``codec_backend_speedup`` ratio (already machine-normalized, so no
    calibration applies).
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


def _feasible_pair(network) -> Tuple[int, int]:
    """A deterministic (source, destination) pair MORE can plan."""
    for source in range(network.node_count):
        for destination in range(network.node_count - 1, -1, -1):
            if source == destination:
                continue
            try:
                plan = plan_more(network, source, destination)
            except NodeSelectionError:
                continue
            if len(plan.forwarders.nodes) >= 4:
                return source, destination
    raise RuntimeError("no feasible MORE session on the probe network")


def probe_emulator(*, nodes: int, seconds: float, rounds: int) -> ProbeResult:
    """Emulator slot-loop throughput in kilo-slots per wall second."""
    rng = RngFactory(2008)
    network = random_network(nodes, phy=lossy_phy(rng=rng.derive("phy")), rng=rng.derive("topology"))
    source, destination = _feasible_pair(network)
    plan = plan_more(network, source, destination)
    config = SessionConfig(max_seconds=seconds, target_generations=0)

    def run() -> float:
        started = time.perf_counter()
        result = run_coded_session(
            network, plan, config=config, rng=rng.spawn("bench")
        )
        elapsed = time.perf_counter() - started
        slots = result.duration / (config.coded_packet_bytes() / network.capacity)
        return slots / elapsed / 1e3

    return ProbeResult(
        "emulator_kslots_per_sec", _best_of(run, rounds), "kslots/s", advisory=True
    )


def probe_emulator_slot_loop(*, relays: int, slots: int, rounds: int) -> ProbeResult:
    """Pure slot-loop throughput: ``step()`` on a fixed line session.

    Unlike ``emulator_kslots_per_sec`` this skips MORE planning and the
    session driver entirely — it times nothing but the scheduler /
    channel / runtime slot loop of an in-process ``ShardedSession`` on a
    hand-built relay line, so it moves only when the per-slot hot path
    does.
    """
    node_count = relays + 2
    positions = np.array([[float(i), 0.0] for i in range(node_count)])
    probabilities = {}
    for i in range(node_count - 1):
        probabilities[(i, i + 1)] = 0.8
        probabilities[(i + 1, i)] = 0.8
    network = WirelessNetwork(
        positions, probabilities, communication_range=1.2, capacity=2e4
    )
    packet_bytes = 1064
    blocks = 16

    def build() -> ShardedSession:
        runtimes = {
            0: FlowSourceRuntime(
                0, 1, blocks, rate_bps=1e4, packet_bytes=packet_bytes
            ),
            node_count - 1: FlowDestinationRuntime(
                node_count - 1, 1, blocks, on_decoded=lambda _gen: None
            ),
        }
        for relay in range(1, node_count - 1):
            runtimes[relay] = FlowRelayRuntime(
                relay,
                1,
                blocks,
                packet_bytes,
                mode="rate",
                rate_bps=8e3,
                upstream=(relay - 1,),
            )
        return ShardedSession(
            network,
            runtimes,
            packet_bytes / network.capacity,
            rng_factory=RngFactory(21),
        )

    def run() -> float:
        engine = build()
        started = time.perf_counter()
        engine.run(slots)
        elapsed = time.perf_counter() - started
        return slots / elapsed / 1e3

    return ProbeResult(
        "emulator_slot_loop", _best_of(run, rounds), "kslots/s", advisory=True
    )


def probe_adaptive_replan(
    *, nodes: int, seconds: float, epochs: int, rounds: int
) -> ProbeResult:
    """Live control-plane turnaround: successful re-plans per wall second.

    Runs one OMNC session under the builtin drift scenario with an
    every-epoch periodic policy, so each epoch exercises the full
    re-initiation path — warm-started rate control, ``replan_cost``
    charging, runtime hot-swap and engine structure rebuild.
    """
    rng = RngFactory(2008)
    network = random_network(
        nodes, phy=lossy_phy(rng=rng.derive("phy")), rng=rng.derive("topology")
    )
    source, destination = _feasible_pair(network)
    spec = builtin_scenario(
        "drift", duration=seconds, epoch_seconds=seconds / epochs
    )
    config = SessionConfig(max_seconds=seconds)

    def run() -> float:
        planner = make_planner("omnc", source, destination)
        started = time.perf_counter()
        result = run_adaptive_session(
            network,
            planner,
            make_policy("periodic"),
            spec,
            config=config,
            rng=RngFactory(7),
        )
        elapsed = time.perf_counter() - started
        return max(result.replans, 1) / elapsed

    return ProbeResult(
        "adaptive_replan", _best_of(run, rounds), "replans/s", advisory=True
    )


def probe_campaign_parallel_speedup(
    *, nodes: int, sessions: int, seconds: float, generations: int, rounds: int
) -> ProbeResult:
    """Executor scaling: serial wall time over ``--jobs N`` wall time.

    Runs an identical reduced four-protocol campaign twice — serially and
    on a worker pool sized ``min(4, cpu_count)`` — and reports the
    speedup.  On an idle 4-core machine this should exceed 2x; on a
    single core it hovers near 1x minus pool overhead (the engine must
    not make campaigns *slower* when parallelism buys nothing).  The
    probe is *advisory*: its value is a property of the machine's core
    count and load, not of the code alone.

    Sizing: the campaign must be heavy enough to amortize pool spin-up
    (process forks + queue setup, ~0.1 s), or the ratio measures the
    fixed cost rather than executor scaling — the original 4-session /
    2-generation shape finished in ~0.2 s of compute and recorded an
    absurd 0.74x on one core.  The shapes below put >= 0.5 s of compute
    behind the fork, which drives a single-core run to ~1.0x (overhead
    amortized) and leaves multi-core runs room to show real speedup.
    """
    import multiprocessing

    from repro.exec import ExecutionPolicy
    from repro.experiments.common import CampaignConfig, run_campaign

    workers = max(2, min(4, multiprocessing.cpu_count()))
    config = CampaignConfig(
        node_count=nodes,
        sessions=sessions,
        min_hops=2,
        max_hops=8,
        session_seconds=seconds,
        target_generations=generations,
        seed=2008,
    )

    def run() -> float:
        started = time.perf_counter()
        serial = run_campaign(config, policy=ExecutionPolicy(jobs=1))
        serial_wall = time.perf_counter() - started
        started = time.perf_counter()
        parallel = run_campaign(config, policy=ExecutionPolicy(jobs=workers))
        parallel_wall = time.perf_counter() - started
        if serial.digest() != parallel.digest():  # determinism is the contract
            raise RuntimeError("parallel campaign diverged from serial")
        return serial_wall / parallel_wall

    return ProbeResult(
        "campaign_parallel_speedup",
        _best_of(run, rounds),
        "x",
        advisory=True,
        ratio=True,
    )


def probe_sharded_slot_loop(
    *, nodes: int, slots: int, shards: int, rounds: int
) -> ProbeResult:
    """Sharded-vs-serial slot-loop speedup on a large relay mesh.

    Builds a rate-driven relay line where **every** node carries a
    runtime — per-slot work scales with ``nodes`` — and runs the same
    slot budget twice: once in this process (``shards=1``, one core
    hosting every node) and once spatially
    partitioned across ``shards`` persistent workers synchronized at
    slot barriers.  Reports serial wall time over sharded wall time.

    The ratio is *advisory* for the same reason as
    ``campaign_parallel_speedup``: shard workers are CPU-bound, so the
    achievable speedup is ceilinged by the machine's core count.  On a
    >= 4-core runner the 4-shard probe should exceed 2x; on a single
    core it reads barrier + IPC overhead (< 1x).  The digest recheck is
    a **hard assert** either way — merged engine stats must be
    bit-identical to the serial loop on every machine, or the probe
    raises instead of reporting a number.
    """
    import dataclasses

    from repro.topology.partition import partition_network

    positions = np.array([[float(i), 0.0] for i in range(nodes)])
    probabilities = {}
    for i in range(nodes - 1):
        probabilities[(i, i + 1)] = 0.8
        probabilities[(i + 1, i)] = 0.8
    network = WirelessNetwork(
        positions, probabilities, communication_range=1.2, capacity=2e4
    )
    partition = partition_network(network, shards)  # halo cost, reported below
    packet_bytes = 1064
    blocks = 16

    def build_runtimes(decode_log):
        runtimes = {
            0: FlowSourceRuntime(
                0, 1, blocks, rate_bps=1e4, packet_bytes=packet_bytes
            ),
            nodes - 1: FlowDestinationRuntime(
                nodes - 1, 1, blocks, on_decoded=decode_log
            ),
        }
        for relay in range(1, nodes - 1):
            runtimes[relay] = FlowRelayRuntime(
                relay,
                1,
                blocks,
                packet_bytes,
                mode="rate",
                rate_bps=8e3,
                upstream=(relay - 1,),
            )
        return runtimes

    def run_once(shard_count):
        decode_log = _DecodeLog()
        with ShardedSession(
            network,
            build_runtimes(decode_log),
            packet_bytes / network.capacity,
            rng_factory=RngFactory(2008),
            shards=shard_count,
            decode_log=decode_log,
        ) as session:
            started = time.perf_counter()
            session.run(slots)
            wall = time.perf_counter() - started
            stats = session.finalize_stats()
        return wall, dataclasses.asdict(stats)

    def run() -> float:
        serial_wall, serial_stats = run_once(1)
        sharded_wall, sharded_stats = run_once(shards)
        if sharded_stats != serial_stats:  # determinism is the contract
            raise RuntimeError("sharded slot loop diverged from serial")
        return serial_wall / sharded_wall

    result = ProbeResult(
        "sharded_slot_loop",
        _best_of(run, rounds),
        "x",
        advisory=True,
        ratio=True,
    )
    print(
        f"  sharded_slot_loop: {nodes} nodes / {shards} shards, "
        f"halo fraction {partition.halo_fraction():.3f}",
        file=sys.stderr,
    )
    return result


def probe_optimizer(*, inner: int, rounds: int) -> ProbeResult:
    """Distributed rate-control iterations per wall second (Fig. 1 graph)."""
    network = fig1_sample_topology(capacity=1e5)
    graph = session_graph_from_network(network, 0, 5)

    def run() -> float:
        iterations = 0
        started = time.perf_counter()
        for _ in range(inner):
            iterations += RateControlAlgorithm(graph).run().iterations
        elapsed = time.perf_counter() - started
        return iterations / elapsed

    return ProbeResult(
        "optimizer_iters_per_sec", _best_of(run, rounds), "iter/s", advisory=True
    )


def collect(mode: str = "full") -> dict:
    """Run every probe; returns the canonical result document.

    Codec probes run on the *best available* backend (the acceptance
    criterion for the codec rewrite is stated against it); the
    per-backend sweep and the ``codec_backend_speedup`` ratio record how
    the alternatives compare on the same machine.
    """
    if mode not in ("quick", "full"):
        raise ValueError(f"mode must be 'quick' or 'full', got {mode!r}")
    quick = mode == "quick"
    calibration = calibrate(rounds=5 if quick else 8)
    codec_backend = best_backend_name()
    best = get_backend(codec_backend)
    backend_sweep = sweep_codec_backends(quick=quick)
    speedup = ProbeResult(
        "codec_backend_speedup",
        backend_sweep[codec_backend] / backend_sweep[REFERENCE_BACKEND],
        "x",
        advisory=True,
        ratio=True,
    )
    probes: List[ProbeResult] = [
        speedup,
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
        probe_emulator(
            nodes=30 if quick else 60,
            seconds=120.0 if quick else 400.0,
            rounds=4 if quick else 3,
        ),
        probe_emulator_slot_loop(
            relays=4,
            slots=2000 if quick else 6000,
            rounds=3 if quick else 2,
        ),
        probe_adaptive_replan(
            nodes=30,
            seconds=40.0 if quick else 120.0,
            epochs=4 if quick else 8,
            rounds=2 if quick else 3,
        ),
        # Sized per the probe docstring: >= 0.5 s of campaign compute so
        # pool spin-up is amortized out of the ratio.
        probe_campaign_parallel_speedup(
            nodes=40,
            sessions=12 if quick else 16,
            seconds=30.0 if quick else 60.0,
            generations=4,
            rounds=2,
        ),
        # Full mode exercises the acceptance shape (>= 2k nodes, 4
        # shards); quick mode keeps CI smoke under a few seconds with a
        # 2-shard cut of a smaller line.
        probe_sharded_slot_loop(
            nodes=256 if quick else 2048,
            slots=60 if quick else 100,
            shards=2 if quick else 4,
            rounds=2,
        ),
        probe_optimizer(inner=10 if quick else 20, rounds=3 if quick else 3),
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
                "advisory": probe.advisory,
            }
            for probe in probes
        },
    }


def compare(
    current: dict,
    baseline: dict,
    tolerance: float = DEFAULT_TOLERANCE,
    *,
    strict: bool = False,
) -> List[Regression]:
    """Normalized-throughput gate: flag drops beyond ``tolerance``.

    Metrics present in only one document are ignored (adding a probe
    must not fail the gate until the baseline is regenerated), and
    advisory metrics are skipped unless ``strict``.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be > 0, got {tolerance}")
    regressions: List[Regression] = []
    for name, record in sorted(current["metrics"].items()):
        reference = baseline["metrics"].get(name)
        if reference is None:
            continue
        if record.get("advisory") and not strict:
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
        marker = "~" if record.get("advisory") else " "
        print(
            f"{marker}{name:27s} {record['raw']:12.4g} {record['normalized']:12.4g} {tail}"
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
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also gate on advisory (~) metrics, not just the stable ones",
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
    regressions = compare(result, baseline, args.tolerance, strict=args.strict)
    if regressions:
        print(f"\nREGRESSION (> {args.tolerance:.0%} below baseline):")
        for regression in regressions:
            print(f"  {regression.describe()}")
        return 1
    print(f"\nok: all metrics within {args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
