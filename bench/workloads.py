"""The seven benchmark workloads.

Each workload is a closed loop with one caller: ``__init__`` is the
set-up (inputs from :mod:`inputs`, plans that are not under test),
``warmup`` one untimed reduced call that fills caches and finishes lazy
loading, and ``rep`` one call of the public function the workload times.
``rep`` brackets its calls into ``src/repro`` with spans; untraced
repetitions pass the null recorder.

A repetition returns a :class:`Rep`: what was simulated (slots, payload
bytes), a digest of the simulated result, and how many operations were
attempted and failed.  The digest must not change between repetitions
of one run; ``reference_digest`` runs the serial twin of a parallel
workload so the caller can check the two agree.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import _paths  # noqa: F401
import inputs
from spans import NULL_RECORDER, SpanRecorder

from repro.coding.backends import get_backend
from repro.coding.decoder import ProgressiveDecoder
from repro.coding.encoder import RelayReEncoder, SourceEncoder
from repro.coding.generation import Generation
from repro.emulator.engine import EngineStats
from repro.emulator.multisession import (
    multi_session_digest,
    run_multi_session,
)
from repro.emulator.node import (
    FlowDestinationRuntime,
    FlowRelayRuntime,
    FlowSourceRuntime,
)
from repro.emulator.session import (
    SessionConfig,
    run_coded_session,
    run_unicast_session,
)
from repro.emulator.shard import ShardedSession, _DecodeLog, session_digest
from repro.exec import ExecutionPolicy
from repro.experiments.common import (
    CampaignConfig,
    CampaignResult,
    SessionRecord,
    build_network,
    pick_sessions,
    run_campaign,
    session_rng,
)
from repro.protocols.adaptive import AdaptiveOmncPlanner
from repro.protocols.etx_routing import plan_etx_route
from repro.protocols.intersession import plan_intersession_pairs
from repro.protocols.more import plan_more
from repro.protocols.oldmore import plan_oldmore
from repro.protocols.omnc import plan_omnc_detailed, plan_omnc_multi
from repro.scenario import builtin_scenario, make_policy, run_adaptive_session
from repro.util.rng import RngFactory


@dataclass
class Rep:
    """What one repetition simulated."""

    digest: str
    slots: int
    payload_bytes: int
    attempted: int
    failed: int
    # adaptive_replan only: wall seconds of each re-plan, epochs driven
    replan_s: List[float] = field(default_factory=list)
    epochs: int = 0


class Workload:
    """Base: the loop in :mod:`child` drives these four methods."""

    name = ""
    #: worker processes alive during a repetition (0 = in-process)
    workers = 0
    #: the workload doing the same work in-process, for a parallel one
    twin: Optional[str] = None

    def __init__(self, seed: int, shapes: inputs.Shapes) -> None:
        self.seed = seed
        self.shapes = shapes

    def warmup(self) -> None:
        raise NotImplementedError

    def rep(self, rec: SpanRecorder = NULL_RECORDER) -> Rep:
        raise NotImplementedError

    def reference_digest(self) -> Optional[str]:
        """Digest of one repetition of the serial twin, if there is one."""
        if self.twin is None:
            return None
        return WORKLOADS[self.twin](self.seed, self.shapes).rep().digest


# -- campaign ---------------------------------------------------------------


def campaign_config(shapes: inputs.Shapes, sessions: Optional[int] = None) -> CampaignConfig:
    """The fig2-shaped campaign on the reference mesh."""
    return CampaignConfig(
        node_count=shapes.mesh_nodes,
        sessions=sessions if sessions is not None else shapes.campaign_sessions,
        min_hops=shapes.campaign_min_hops,
        session_seconds=shapes.campaign_seconds,
        target_generations=shapes.campaign_generations,
        seed=inputs.SHAPE_SEED,
    )


def campaign_rep(result: CampaignResult) -> Rep:
    """Slots, payload and failures of a finished campaign."""
    session = result.config.session_config()
    capacity = result.network.capacity
    coded_slot = session.coded_packet_bytes() / capacity
    unicast_slot = session.unicast_packet_bytes() / capacity
    slots = 0.0
    payload = 0
    for record in result.records:
        for protocol, outcome in record.results.items():
            slots += outcome.duration / (unicast_slot if protocol == "etx" else coded_slot)
            payload += outcome.packets_delivered * session.block_size
    return Rep(
        digest=result.digest(),
        slots=round(slots),
        payload_bytes=payload,
        attempted=result.config.sessions,
        failed=len(result.failures),
    )


def replay_campaign(config: CampaignConfig, rec: SpanRecorder) -> CampaignResult:
    """The campaign's sessions run serially, one span per layer call.

    Mirrors ``run_campaign`` -> ``execute_session_job`` -> ``run_session``
    step for step (same RNG derivations), so the result digests equal
    to the untraced campaign's and the spans add up to its wall time.
    """
    with rec.span("experiments.campaign"):
        with rec.span("experiments.build_network"):
            _rng, network = build_network(config)
        with rec.span("experiments.pick_sessions"):
            sessions = pick_sessions(config, network, strict=False)
        campaign = CampaignResult(config=config, network=network)
        session_config = config.session_config()
        for index, (source, destination, _plan) in enumerate(sessions):
            rng = session_rng(config.seed, index)
            with rec.span("experiments.session"):
                with rec.span("protocols.plan.etx"):
                    etx_plan = plan_etx_route(network, source, destination)
                with rec.span("emulator.session.etx"):
                    etx = run_unicast_session(
                        network, etx_plan, config=session_config, rng=rng.spawn("etx")
                    )
                with rec.span("protocols.plan.omnc"):
                    omnc_plan = plan_omnc_detailed(network, source, destination).plan
                with rec.span("emulator.session.omnc"):
                    omnc = run_coded_session(
                        network, omnc_plan, config=session_config, rng=rng.spawn("omnc")
                    )
                with rec.span("protocols.plan.more"):
                    more_plan = plan_more(network, source, destination)
                with rec.span("emulator.session.more"):
                    more = run_coded_session(
                        network, more_plan, config=session_config, rng=rng.spawn("more")
                    )
                with rec.span("protocols.plan.oldmore"):
                    oldmore_plan = plan_oldmore(network, source, destination)
                with rec.span("emulator.session.oldmore"):
                    oldmore = run_coded_session(
                        network,
                        oldmore_plan,
                        config=session_config,
                        rng=rng.spawn("oldmore"),
                        protocol_label="oldmore",
                    )
                campaign.records.append(
                    SessionRecord(
                        source=source,
                        destination=destination,
                        hop_count=etx_plan.hop_count,
                        results={"etx": etx, "omnc": omnc, "more": more, "oldmore": oldmore},
                        plans={
                            "etx": etx_plan,
                            "omnc": omnc_plan,
                            "more": more_plan,
                            "oldmore": oldmore_plan,
                        },
                    )
                )
    return campaign


class CampaignWorkload(Workload):
    """``run_campaign`` on the reference mesh, four protocols, flow fidelity."""

    def __init__(self, seed: int, shapes: inputs.Shapes, jobs: int) -> None:
        super().__init__(seed, shapes)
        self.name = "campaign_serial" if jobs == 1 else f"campaign_jobs{jobs}"
        if jobs > 1:
            self.workers, self.twin = jobs, "campaign_serial"
        self.config = campaign_config(shapes)
        self.policy = ExecutionPolicy(jobs=jobs)

    def warmup(self) -> None:
        run_campaign(campaign_config(self.shapes, sessions=1), policy=self.policy)

    def rep(self, rec: SpanRecorder = NULL_RECORDER) -> Rep:
        if rec is not NULL_RECORDER and self.workers == 0:
            return campaign_rep(replay_campaign(self.config, rec))
        with rec.span("exec.run_campaign"):
            result = run_campaign(self.config, policy=self.policy)
        return campaign_rep(result)


# -- 2048-node relay line -----------------------------------------------------


def engine_stats_digest(stats: EngineStats) -> str:
    """SHA-256 of every ``EngineStats`` field, floats through ``repr``."""
    payload = {
        "slots": stats.slots,
        "elapsed": repr(stats.elapsed),
        "grants": stats.grants,
        "queue_time_sum": {
            str(n): repr(stats.queue_time_sum[n]) for n in sorted(stats.queue_time_sum)
        },
        "transmissions": {str(n): stats.transmissions[n] for n in sorted(stats.transmissions)},
        "delivered_links": sorted(list(link) for link in stats.delivered_links),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class MeshLineWorkload(Workload):
    """``ShardedSession`` on a relay line where every node has a runtime."""

    PACKET_BYTES = 1064
    BLOCKS = 16

    def __init__(self, seed: int, shapes: inputs.Shapes, shards: int) -> None:
        super().__init__(seed, shapes)
        self.name = "mesh2k_serial" if shards == 1 else f"mesh2k_shards{shards}"
        if shards > 1:
            self.workers, self.twin = shards, "mesh2k_serial"
        self.shards = shards
        self.network = inputs.line_network(shapes.line_nodes)

    def _runtimes(self, decode_log: _DecodeLog) -> Dict[int, object]:
        last = self.network.node_count - 1
        runtimes: Dict[int, object] = {
            0: FlowSourceRuntime(
                0, 1, self.BLOCKS, rate_bps=1e4, packet_bytes=self.PACKET_BYTES
            ),
            last: FlowDestinationRuntime(last, 1, self.BLOCKS, on_decoded=decode_log),
        }
        for relay in range(1, last):
            runtimes[relay] = FlowRelayRuntime(
                relay,
                1,
                self.BLOCKS,
                self.PACKET_BYTES,
                mode="rate",
                rate_bps=8e3,
                upstream=(relay - 1,),
            )
        return runtimes

    def run_line(self, shards: int, slots: int, rec: SpanRecorder) -> EngineStats:
        with rec.span("emulator.shard.session"):
            with rec.span("emulator.shard.construct"):
                decode_log = _DecodeLog()
                session = ShardedSession(
                    self.network,
                    self._runtimes(decode_log),
                    self.PACKET_BYTES / self.network.capacity,
                    rng_factory=RngFactory(self.seed),
                    shards=shards,
                    decode_log=decode_log,
                )
            with session:
                with rec.span("emulator.shard.run"):
                    session.run(slots)
                with rec.span("emulator.shard.finalize"):
                    return session.finalize_stats()

    def warmup(self) -> None:
        self.run_line(self.shards, self.shapes.line_warmup_slots, NULL_RECORDER)

    def rep(self, rec: SpanRecorder = NULL_RECORDER) -> Rep:
        stats = self.run_line(self.shards, self.shapes.line_slots, rec)
        return Rep(
            digest=engine_stats_digest(stats),
            slots=stats.slots,
            payload_bytes=0,  # the wave front never reaches the far end
            attempted=1,
            failed=0,
        )


# -- exact-fidelity multi-session ----------------------------------------------


class ExactMultisessionWorkload(Workload):
    """Four opposing OMNC sessions with real coding vectors and XOR relays.

    The emulator's exact fidelity is coefficient-only (``emulator/node.py``):
    rank, innovation and decodability are real GF(2^8) arithmetic on the
    n-byte coding vectors, payload bytes stay virtual.  ``payload_bytes``
    therefore counts generations that reached full rank times n*m.  The
    run lasts a fixed emulated time, not a generation target, so the
    slot count does not depend on ``--seed``; a session that decodes
    nothing in that time counts as failed.
    """

    name = "exact_multisession"

    def __init__(self, seed: int, shapes: inputs.Shapes) -> None:
        super().__init__(seed, shapes)
        self.network = inputs.reference_mesh(shapes.mesh_nodes)
        self.endpoints = inputs.pick_opposing_endpoints(self.network, 2, shapes.exact_hops)
        started = time.perf_counter()
        self.plans = plan_omnc_multi(self.network, self.endpoints).plans
        self.plan_seconds = time.perf_counter() - started
        self.xor_pairs = plan_intersession_pairs(self.plans)

    def run_sessions(self, emulated_seconds: float, rec: SpanRecorder) -> Rep:
        config = SessionConfig(
            blocks=self.shapes.blocks,
            block_size=self.shapes.block_size,
            max_seconds=emulated_seconds,
            coding_fidelity="exact",
        )
        with rec.span("emulator.multisession.run"):
            outcome = run_multi_session(
                self.network,
                self.plans,
                config=config,
                rng=RngFactory(self.seed).spawn("bench-exact"),
                xor_pairs=self.xor_pairs,
            )
        decoded = [result.generations_decoded for result in outcome.sessions.values()]
        slot = config.coded_packet_bytes() / self.network.capacity
        return Rep(
            digest=multi_session_digest(outcome),
            slots=round(outcome.duration / slot),
            payload_bytes=sum(decoded) * config.generation_bytes(),
            attempted=len(decoded),
            failed=sum(1 for count in decoded if count == 0),
        )

    def warmup(self) -> None:
        self.run_sessions(self.shapes.exact_warmup_seconds, NULL_RECORDER)

    def rep(self, rec: SpanRecorder = NULL_RECORDER) -> Rep:
        return self.run_sessions(self.shapes.exact_seconds, rec)


# -- codec stream ---------------------------------------------------------------


class CodecStreamWorkload(Workload):
    """Source -> lossy hop -> relay -> lossy hop -> decoder, real payloads.

    Per generation: the source emits batches (``next_packets``) until the
    relay holds n innovative packets, every packet is erased with the
    shape's probability, the relay re-encodes batches towards the
    decoder under the same erasure, and the decoded matrix is compared
    byte for byte with the generation that went in.  A slot is one coded
    packet put on a hop.
    """

    name = "codec_stream"

    def __init__(self, seed: int, shapes: inputs.Shapes) -> None:
        super().__init__(seed, shapes)
        self.field = get_backend("best")
        self.data = inputs.payload_generations(
            seed, shapes.codec_generations, shapes.blocks, shapes.block_size
        )

    def stream(self, generations: int, rec: SpanRecorder) -> Rep:
        shapes = self.shapes
        factory = RngFactory(self.seed)
        source_rng = factory.derive("bench-source")
        relay_rng = factory.derive("bench-relay")
        erasure_rng = factory.derive("bench-erasure")
        blocks, batch = shapes.blocks, shapes.codec_batch
        keep_probability = 1.0 - shapes.codec_erasure
        digest = hashlib.sha256()
        slots = 0
        failed = 0
        with rec.span("coding.stream"):
            for index in range(generations):
                original = self.data[index]
                encoder = SourceEncoder(
                    1, Generation(index, original), source_rng, field=self.field
                )
                relay = RelayReEncoder(
                    1, blocks, relay_rng, field=self.field, generation_id=index
                )
                decoder = ProgressiveDecoder(blocks, shapes.block_size, field=self.field)
                while not decoder.is_complete:
                    if not relay.is_full:
                        with rec.span("coding.encoder.next_packets"):
                            sent = encoder.next_packets(batch)
                        slots += batch
                        kept = erasure_rng.random(batch) < keep_probability
                        with rec.span("coding.relay.accept"):
                            for packet, keep in zip(sent, kept):
                                if keep:
                                    relay.accept(packet)
                    if not relay.buffered:
                        # the hop erased a whole first batch (0.2^8): a relay
                        # with nothing to re-encode raises, so the source goes on
                        continue
                    with rec.span("coding.relay.next_packets"):
                        sent = relay.next_packets(batch)
                    slots += batch
                    kept = erasure_rng.random(batch) < keep_probability
                    survivors = [packet for packet, keep in zip(sent, kept) if keep]
                    if survivors:
                        with rec.span("coding.decoder.add_packets"):
                            decoder.add_packets(survivors)
                with rec.span("coding.decoder.decode"):
                    decoded = decoder.decode()
                if not np.array_equal(decoded, original):
                    failed += 1
                digest.update(decoded.tobytes())
        return Rep(
            digest=digest.hexdigest(),
            slots=slots,
            payload_bytes=(generations - failed) * blocks * shapes.block_size,
            attempted=generations,
            failed=failed,
        )

    def warmup(self) -> None:
        self.stream(min(2, self.shapes.codec_generations), NULL_RECORDER)

    def rep(self, rec: SpanRecorder = NULL_RECORDER) -> Rep:
        return self.stream(self.shapes.codec_generations, rec)


# -- adaptive re-planning -----------------------------------------------------------


class TimingOmncPlanner(AdaptiveOmncPlanner):
    """``AdaptiveOmncPlanner`` that times each re-plan with two clock reads.

    The runner calls ``plan`` and then ``control_cost_seconds`` back to
    back at every policy firing; the first read is taken on entry to
    ``plan``, the second on exit from ``control_cost_seconds``.  The
    session's initial ``plan`` has no cost call and leaves no sample.
    """

    def __init__(self, source: int, destination: int, rec: SpanRecorder) -> None:
        super().__init__(source, destination)
        self.replan_s: List[float] = []
        self._rec = rec
        self._started = 0.0

    def plan(self, network):  # type: ignore[no-untyped-def]
        self._started = time.perf_counter()
        return super().plan(network)

    def control_cost_seconds(self, network):  # type: ignore[no-untyped-def]
        cost = super().control_cost_seconds(network)
        ended = time.perf_counter()
        self.replan_s.append(ended - self._started)
        self._rec.add("protocols.adaptive.replan", self._started, ended)
        return cost


class AdaptiveReplanWorkload(Workload):
    """``run_adaptive_session`` per endpoint pair, drift scenario, periodic:1."""

    name = "adaptive_replan"

    def __init__(self, seed: int, shapes: inputs.Shapes) -> None:
        super().__init__(seed, shapes)
        self.network = inputs.reference_mesh(shapes.mesh_nodes)
        self.pairs = inputs.pick_pairs(
            self.network, shapes.adaptive_pairs, shapes.adaptive_hops
        )
        self.spec = builtin_scenario(
            "drift",
            duration=shapes.adaptive_seconds,
            epoch_seconds=shapes.adaptive_epoch_seconds,
        )
        self.config = SessionConfig(max_seconds=shapes.adaptive_seconds)

    def run_pairs(self, pairs, rec: SpanRecorder) -> Rep:
        slot = self.config.coded_packet_bytes() / self.network.capacity
        digest = hashlib.sha256()
        rep = Rep(digest="", slots=0, payload_bytes=0, attempted=0, failed=0)
        for index, (source, destination) in enumerate(pairs):
            planner = TimingOmncPlanner(source, destination, rec)
            with rec.span("scenario.adaptive_session"):
                result = run_adaptive_session(
                    self.network,
                    planner,
                    make_policy("periodic:1"),
                    self.spec,
                    config=self.config,
                    rng=RngFactory(self.seed).spawn(f"bench-adaptive-{index}"),
                )
            digest.update(session_digest(result.session).encode())
            counts = (result.replans, result.failed_replans, result.replan_times)
            digest.update(repr(counts).encode())
            rep.slots += round(result.session.duration / slot)
            rep.payload_bytes += (
                result.session.generations_decoded * result.generation_payload_bytes
            )
            rep.attempted += result.replans + result.failed_replans
            rep.failed += result.failed_replans
            rep.replan_s.extend(planner.replan_s)
            rep.epochs += len(result.epochs)
        rep.digest = digest.hexdigest()
        return rep

    def warmup(self) -> None:
        self.run_pairs(self.pairs[:1], NULL_RECORDER)

    def rep(self, rec: SpanRecorder = NULL_RECORDER) -> Rep:
        return self.run_pairs(self.pairs, rec)


# -- registry ------------------------------------------------------------------------

WORKLOADS = {
    "campaign_serial": lambda seed, shapes: CampaignWorkload(seed, shapes, 1),
    "campaign_jobs2": lambda seed, shapes: CampaignWorkload(seed, shapes, 2),
    "mesh2k_serial": lambda seed, shapes: MeshLineWorkload(seed, shapes, 1),
    "mesh2k_shards2": lambda seed, shapes: MeshLineWorkload(seed, shapes, 2),
    "exact_multisession": ExactMultisessionWorkload,
    "codec_stream": CodecStreamWorkload,
    "adaptive_replan": AdaptiveReplanWorkload,
}


def make_workload(name: str, seed: int, smoke: bool = False) -> Workload:
    """Set up the workload called ``name`` (this *is* the set-up phase)."""
    return WORKLOADS[name](seed, inputs.shapes(smoke))

