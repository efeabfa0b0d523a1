"""Isolated per-layer probes for the traced run.

Every traced run — whatever its workload — executes this one suite on
the same generated inputs (the reference mesh, one endpoint pair on it,
the relay line, one payload generation), so a per-layer metric means the
same thing in every result and a layer change shows up under its own
name before anyone looks at an end-to-end number.  The probes time
calls into *public* functions from the outside; nothing under ``src/``
is instrumented.

Probe sizes are stated where they differ from the workloads' (the
relay-line probes run 200 slots, the campaign replay two sessions): a
probe's number is a rate at that size, not a prediction of the
workload's wall time.
"""

from __future__ import annotations

import functools
import pickle
import statistics
import tempfile
import time
from typing import Callable, Dict, List

import numpy as np

import _paths
import inputs
import speed
import workloads
from spans import SpanRecorder

from repro import obs
from repro.coding.backends import get_backend
from repro.coding.decoder import ProgressiveDecoder
from repro.coding.encoder import RelayReEncoder, SourceEncoder
from repro.coding.generation import Generation
from repro.emulator.channel import LossyBroadcastChannel
from repro.emulator.node import (
    CodedRelayRuntime,
    FlowPacket,
    FlowRelayRuntime,
)
from repro.emulator.scheduler import ConflictGraph, IdealMacScheduler
from repro.emulator.session import SessionConfig, run_coded_session
from repro.exec import (
    ExecutionPolicy,
    JobSpec,
    ResultCache,
    WorkerPool,
    execute_jobs,
)
from repro.experiments.common import (
    SessionJob,
    SessionJobOutput,
    execute_session_job,
    run_campaign,
)
from repro.optimization.problem import session_graph_from_selection
from repro.optimization.rate_control import RateControlAlgorithm
from repro.optimization.sunicast import solve_sunicast
from repro.protocols.adaptive import AdaptiveOmncPlanner
from repro.protocols.omnc import plan_omnc
from repro.routing.node_selection import select_forwarders
from repro.topology.partition import partition_network
from repro.util.rng import RngFactory

#: slots the relay-line probes run (the workloads run ``line_slots``)
LINE_PROBE_SLOTS = 200
#: sessions the campaign-replay probe runs (the workloads run eight)
REPLAY_PROBE_SESSIONS = 2
#: seconds of calls behind each per-call median (self-tests use less)
BUDGET = 0.04
SMOKE_BUDGET = 0.002


def per_call(fn: Callable[[], object], budget: float) -> float:
    """Median seconds per call of ``fn`` over batches filling ``budget``."""
    started = time.perf_counter()
    fn()
    first = time.perf_counter() - started
    batch = max(1, int(0.004 / max(first, 1e-9)))
    samples: List[float] = []
    spent = first
    while spent < budget or not samples:
        started = time.perf_counter()
        for _ in range(batch):
            fn()
        elapsed = time.perf_counter() - started
        samples.append(elapsed / batch)
        spent += elapsed
    return statistics.median(samples)


def noop(_payload: object) -> int:
    """The no-op job body the exec probes push through the pool."""
    return 0


class Echo:
    """Stateful no-op worker for the ``call_all`` round-trip probe."""

    def __init__(self, _payload: object) -> None:
        pass

    def ping(self, argument: object) -> object:
        return argument


# -- coding ---------------------------------------------------------------------


def probe_coding(cost, seed: int, shapes: inputs.Shapes) -> Dict[str, float]:
    field = get_backend("best")
    n, m = shapes.blocks, shapes.block_size
    rng = RngFactory(seed).derive("bench-probe-coding")
    data = inputs.payload_generations(seed, 1, n, m)[0]
    coefficients = rng.integers(0, 256, size=(n, n), dtype=np.uint8)
    generation_bytes = n * m
    metrics: Dict[str, float] = {}

    seconds = cost(lambda: field.matmul(coefficients, data))
    metrics["coding.kernel.matmul_mb_per_s"] = generation_bytes / seconds / 1e6

    encoder = SourceEncoder(1, Generation(0, data), rng, field=field)
    seconds = cost(lambda: encoder.next_packets(n))
    metrics["coding.encoder.next_packets_mb_per_s"] = generation_bytes / seconds / 1e6

    packets = encoder.next_packets(n + 4)

    def decode_batch() -> None:
        decoder = ProgressiveDecoder(n, m, field=field)
        decoder.add_packets(packets)

    seconds = cost(decode_batch)
    metrics["coding.decoder.add_packets_mb_per_s"] = generation_bytes / seconds / 1e6

    # The per-packet path of the exact-fidelity runtimes: coefficient-only
    # packets, one n-byte coding vector per call.
    target = rng.integers(0, 256, size=n, dtype=np.uint8)
    source = rng.integers(0, 256, size=n, dtype=np.uint8)
    metrics["coding.kernel.addmul_row_us"] = 1e6 * cost(
        lambda: field.addmul_row(target, source, 37)
    )
    vector_encoder = SourceEncoder(
        1, Generation(0, np.zeros((n, 1), dtype=np.uint8)), rng, field=field, payload=False
    )
    metrics["coding.encoder.next_packet_us"] = 1e6 * cost(vector_encoder.next_packet)
    vectors = [vector_encoder.next_packet() for _ in range(n)]

    def relay_accept() -> RelayReEncoder:
        relay = RelayReEncoder(1, n, rng, field=field)
        for packet in vectors:
            relay.accept(packet)
        return relay

    metrics["coding.relay.accept_us"] = 1e6 * cost(relay_accept) / n
    full_relay = relay_accept()
    metrics["coding.relay.next_packet_us"] = 1e6 * cost(full_relay.next_packet)

    def decode_vectors() -> None:
        decoder = ProgressiveDecoder(n, field=field)
        for packet in vectors:
            decoder.add_packet(packet)

    metrics["coding.decoder.add_packet_us"] = 1e6 * cost(decode_vectors) / n
    return metrics


# -- emulator ---------------------------------------------------------------------


def _session_seconds_per_slot(
    cost, network, plan, fidelity: str, seed: int, seconds: float
) -> float:
    """Wall seconds per emulated slot of one OMNC session run to time-out."""
    config = SessionConfig(max_seconds=seconds, coding_fidelity=fidelity)
    slot = config.coded_packet_bytes() / network.capacity

    def run() -> None:
        run_coded_session(
            network, plan, config=config, rng=RngFactory(seed).spawn("bench-probe-session")
        )

    return cost(run) / int(seconds / slot)


def obs_overhead_share(network, plan, seed: int, rounds: int = 5) -> float:
    """Flow session with ``obs.collecting()`` against off, in alternation.

    Median over ``rounds`` of on/off - 1, each pair back to back so that
    a shift in machine speed lands on both sides.
    """
    config = SessionConfig(max_seconds=30.0)

    def run() -> float:
        started = time.perf_counter()
        run_coded_session(
            network, plan, config=config, rng=RngFactory(seed).spawn("bench-probe-obs")
        )
        return time.perf_counter() - started

    ratios = []
    for _ in range(rounds):
        off = run()
        with obs.collecting():
            on = run()
        ratios.append(on / off - 1.0)
    return statistics.median(ratios)


def probe_emulator(
    cost, seed: int, shapes: inputs.Shapes, network, pair, plan
) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    metrics["emulator.engine.step_us.flow"] = 1e6 * _session_seconds_per_slot(
        cost, network, plan, "flow", seed, 30.0
    )
    metrics["emulator.engine.step_us.exact"] = 1e6 * _session_seconds_per_slot(
        cost, network, plan, "exact", seed, 10.0
    )
    metrics["obs.enabled_overhead_share"] = obs_overhead_share(network, plan, seed)

    # Relay line, serial then two shards, same inputs.
    slots = min(LINE_PROBE_SLOTS, shapes.line_slots)
    line = workloads.MeshLineWorkload(seed, shapes, 1)
    serial = SpanRecorder("probe")
    line.run_line(1, slots, serial)
    sharded = SpanRecorder("probe")
    line.run_line(2, slots, sharded)
    step_serial = serial.total("emulator.shard.run") / slots
    step_sharded = sharded.total("emulator.shard.run") / slots
    metrics["emulator.engine.step_us.mesh2k"] = 1e6 * step_serial
    metrics["emulator.shard.step_ms.shards2"] = 1e3 * step_sharded
    metrics["emulator.shard.overhead_ms"] = 1e3 * (step_sharded - step_serial / 2)
    metrics["emulator.shard.finalize_ms"] = 1e3 * sharded.total("emulator.shard.finalize")
    metrics["emulator.shard.spawn_s"] = sharded.total("emulator.shard.construct")

    rng = RngFactory(seed).derive("bench-probe-emulator")
    for label, graph_network, participants in (
        ("mesh2k", line.network, range(line.network.node_count)),
        ("small", network, plan.forwarders.nodes),
    ):
        conflicts = ConflictGraph(graph_network, participants)
        scheduler = IdealMacScheduler(conflicts, rng=rng)
        count = len(conflicts.participants)
        backlogs, weights = [1.0] * count, [0.4] * count
        metrics[f"emulator.scheduler.schedule_us.{label}"] = 1e6 * cost(
            lambda: scheduler.schedule_arrays(backlogs, weights)
        )

    packet_bytes = SessionConfig().coded_packet_bytes()
    dt = packet_bytes / network.capacity
    flow_relay = FlowRelayRuntime(1, 1, shapes.blocks, packet_bytes, mode="rate", rate_bps=8e3)
    packet = FlowPacket(1, 0, 1.0)
    metrics["emulator.node.on_receive_us.flow"] = 1e6 * cost(
        lambda: flow_relay.on_receive(packet, 0)
    )

    def flow_slot_and_pop() -> None:
        # an active relay (it holds information); the pop keeps its queue short
        flow_relay.on_slot(dt)
        flow_relay.pop_transmission()

    metrics["emulator.node.on_slot_ns"] = 1e9 * cost(flow_slot_and_pop)

    source, _destination = pair
    receivers = [j for j in sorted(network.neighbors(source)) if network.probability(source, j) > 0]
    probabilities = [network.probability(source, j) for j in receivers]
    channel = LossyBroadcastChannel(network, rng=rng)
    metrics["emulator.channel.broadcast_us"] = 1e6 * cost(
        lambda: channel.broadcast_prefiltered(receivers, probabilities)
    )

    n = shapes.blocks
    vector_encoder = SourceEncoder(
        1, Generation(0, np.zeros((n, 1), dtype=np.uint8)), rng, payload=False
    )
    vectors = [vector_encoder.next_packet() for _ in range(n)]

    def exact_relay() -> CodedRelayRuntime:
        # one packet of credit per slot, so on_slot re-encodes exactly once
        return CodedRelayRuntime(
            1, 1, n, packet_bytes, rng, mode="rate", rate_bps=network.capacity
        )

    def receive_generation() -> CodedRelayRuntime:
        relay = exact_relay()
        for vector in vectors:
            relay.on_receive(vector, 0)
        return relay

    metrics["emulator.node.on_receive_us.exact"] = 1e6 * cost(receive_generation) / n
    full = receive_generation()

    def slot_and_pop() -> None:
        full.on_slot(dt)
        full.pop_transmission()

    metrics["emulator.node.pop_us.exact"] = 1e6 * cost(slot_and_pop)
    return metrics


def probe_multisession(seed: int, shapes: inputs.Shapes) -> Dict[str, float]:
    """Joint planning, then the exact workload's (short) warm-up run."""
    workload = workloads.ExactMultisessionWorkload(seed, shapes)
    started = time.perf_counter()
    workload.warmup()
    return {
        "optimization.multi_session.solve_ms": 1e3 * workload.plan_seconds,
        "emulator.multisession.run_s": time.perf_counter() - started,
    }


# -- topology, routing, optimization, protocols ----------------------------------------


def probe_planning(cost, shapes: inputs.Shapes, network, pair) -> Dict[str, float]:
    source, destination = pair
    metrics: Dict[str, float] = {}
    nodes = shapes.mesh_nodes
    metrics[f"topology.random_network_ms.n{inputs.FULL.mesh_nodes}"] = 1e3 * cost(
        lambda: inputs.reference_mesh(nodes)
    )
    metrics[f"topology.line_network_ms.n{inputs.FULL.line_nodes}"] = 1e3 * cost(
        lambda: inputs.line_network(shapes.line_nodes)
    )
    line = inputs.line_network(shapes.line_nodes)
    metrics["topology.partition_ms"] = 1e3 * cost(lambda: partition_network(line, 2))
    metrics["topology.partition.halo_fraction"] = partition_network(line, 2).halo_fraction()

    metrics["routing.node_selection_ms"] = 1e3 * cost(
        lambda: select_forwarders(network, source, destination)
    )
    graph = session_graph_from_selection(
        network, select_forwarders(network, source, destination)
    )
    started = time.perf_counter()
    cold = RateControlAlgorithm(graph).run()
    elapsed = time.perf_counter() - started
    metrics["optimization.rate_control.iter_us"] = 1e6 * elapsed / cold.iterations
    metrics["optimization.rate_control.iterations"] = cold.iterations
    metrics["optimization.rate_control.warm_iterations"] = (
        RateControlAlgorithm(graph, warm_start=cold.duals).run().iterations
    )
    metrics["optimization.sunicast.solve_ms"] = 1e3 * cost(lambda: solve_sunicast(graph))
    planner = AdaptiveOmncPlanner(source, destination)
    metrics["protocols.adaptive.control_cost_ms"] = 1e3 * cost(
        lambda: planner.control_cost_seconds(network)
    )
    return metrics


def probe_scenario(seed: int, shapes: inputs.Shapes) -> Dict[str, float]:
    """Three adaptive sessions: where an epoch's wall time goes."""
    workload = workloads.AdaptiveReplanWorkload(seed, shapes)
    rec = SpanRecorder("probe")
    rep = workload.run_pairs(workload.pairs[:3], rec)
    session_seconds = rec.total("scenario.adaptive_session")
    replan_seconds = rec.total("protocols.adaptive.replan")
    return {
        "protocols.adaptive.replan_ms": 1e3 * statistics.median(rep.replan_s),
        "scenario.replan.planner_share": replan_seconds / session_seconds,
        "scenario.epoch_driver_ms": 1e3 * (session_seconds - replan_seconds) / rep.epochs,
    }


# -- exec and experiments ----------------------------------------------------------------


def probe_campaign_replay(cost, shapes: inputs.Shapes, rec: SpanRecorder) -> Dict[str, float]:
    """Two campaign sessions through ``run_campaign`` and through the replay."""
    config = workloads.campaign_config(
        shapes, sessions=min(REPLAY_PROBE_SESSIONS, shapes.campaign_sessions)
    )
    # one session first: run_campaign's workers memoise the deployment per
    # process, the replay does not, and the gap should not be that build
    run_campaign(workloads.campaign_config(shapes, sessions=1), policy=ExecutionPolicy(jobs=1))
    campaign, wall, factor = speed.timed(
        lambda: run_campaign(config, policy=ExecutionPolicy(jobs=1))
    )
    campaign_seconds = wall / factor
    replay, wall, factor = speed.timed(lambda: workloads.replay_campaign(config, rec))
    replay_seconds = wall / factor
    if replay.digest() != campaign.digest():
        raise RuntimeError("campaign replay diverged from run_campaign")
    sessions = len(replay.records)
    metrics = {
        "experiments.campaign.build_network_ms": 1e3 * rec.total("experiments.build_network"),
        "experiments.campaign.pick_sessions_ms": 1e3 * rec.total("experiments.pick_sessions"),
        "experiments.campaign.replay_gap_share": abs(replay_seconds - campaign_seconds)
        / campaign_seconds,
    }
    for protocol in ("omnc", "more", "oldmore", "etx"):
        plan_seconds = rec.total(f"protocols.plan.{protocol}")
        run_seconds = rec.total(f"emulator.session.{protocol}")
        metrics[f"protocols.plan_ms.{protocol}"] = 1e3 * plan_seconds / sessions
        metrics[f"experiments.session_ms.{protocol}"] = (
            1e3 * (plan_seconds + run_seconds) / sessions
        )

    # What crosses the pool's pipes for one session job, and what it costs.
    record = replay.records[0]
    job = SessionJob(
        config=config, session_index=0, source=record.source, destination=record.destination
    )
    spec = JobSpec(key=job.cache_key(), fn=execute_session_job, payload=job)
    output = SessionJobOutput(record=record)
    metrics["exec.pickle.session_job_us"] = 1e6 * cost(lambda: pickle.dumps(spec))
    metrics["exec.pickle.job_output_bytes"] = len(pickle.dumps(output))
    metrics["exec.job.stable_hash_us"] = 1e6 * cost(job.cache_key)
    scratch = _paths.ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as directory:
        cache = ResultCache(directory)
        metrics["exec.cache.put_ms"] = 1e3 * cost(lambda: cache.put(spec.key, output))
        metrics["exec.cache.get_ms"] = 1e3 * cost(lambda: cache.get(spec.key))
    return metrics


def probe_exec(cost) -> Dict[str, float]:
    """Pool spin-up, per-job dispatch and barrier round trip, no-op bodies."""

    def pool_seconds(jobs: int) -> float:
        specs = [JobSpec(key=f"noop-{index}", fn=noop, payload=index) for index in range(jobs)]
        started = time.perf_counter()
        execute_jobs(specs, ExecutionPolicy(jobs=2))
        return time.perf_counter() - started

    few, many = 2, 42
    spawn = statistics.median(pool_seconds(few) for _ in range(3))
    loaded = statistics.median(pool_seconds(many) for _ in range(3))
    metrics = {
        "exec.pool.spawn_ms": 1e3 * spawn,
        "exec.pool.job_overhead_ms": 1e3 * (loaded - spawn) / (many - few),
    }
    with WorkerPool(2).persistent(Echo, [None, None]) as group:
        metrics["exec.group.call_all_us"] = 1e6 * cost(lambda: group.call_all("ping"))
    return metrics


# -- the suite --------------------------------------------------------------------------------


def run_probes(seed: int, smoke: bool, rec: SpanRecorder) -> Dict[str, float]:
    """Every probe once; one ``probe.<layer>`` span around each group."""
    shapes = inputs.shapes(smoke)
    cost = functools.partial(per_call, budget=SMOKE_BUDGET if smoke else BUDGET)
    network = inputs.reference_mesh(shapes.mesh_nodes)
    pair = inputs.pick_pairs(network, 1, shapes.adaptive_hops)[0]
    plan = plan_omnc(network, *pair)
    metrics: Dict[str, float] = {}
    with rec.span("probe.coding"):
        metrics.update(probe_coding(cost, seed, shapes))
    with rec.span("probe.emulator"):
        metrics.update(probe_emulator(cost, seed, shapes, network, pair, plan))
        metrics.update(probe_multisession(seed, shapes))
    with rec.span("probe.planning"):
        metrics.update(probe_planning(cost, shapes, network, pair))
    with rec.span("probe.scenario"):
        metrics.update(probe_scenario(seed, shapes))
    with rec.span("probe.experiments"):
        metrics.update(probe_campaign_replay(cost, shapes, SpanRecorder("probe")))
    with rec.span("probe.exec"):
        metrics.update(probe_exec(cost))
    return metrics
