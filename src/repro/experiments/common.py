"""Shared campaign driver for the paper's evaluation (Sec. 5).

One *campaign* reproduces the measurement setup behind Figs. 2-4: a
random network, a set of random unicast sessions with a hop-count
constraint, and all four protocols run on identical sessions.  The
figure-specific experiment modules consume :class:`CampaignResult` and
derive their own metrics.

Campaigns execute on the :mod:`repro.exec` engine: each session is one
content-hashed job carrying its own RNG derivation (see
:func:`session_rng`), so an :class:`~repro.exec.ExecutionPolicy` with
any worker count — and any scheduling order — reproduces the serial
result bit for bit.  A failed session becomes a recorded
:class:`CampaignFailure` instead of aborting the run, and a result
cache makes interrupted paper-scale sweeps resumable.

Paper-scale parameters (300 nodes, 300 sessions, 800 s) are supported
but take hours serially; the default *scale* runs a reduced campaign
with the same shape.  Set ``OMNC_FULL_SCALE=1`` or pass
``scale="paper"`` to run the full thing, and ``--jobs N`` (or an
explicit policy) to spread it over cores.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.emulator import engine
from repro.emulator.plan import UnicastPathPlan
from repro.emulator.session import (
    SessionConfig,
    SessionResult,
    run_coded_session,
    run_unicast_session,
)
from repro.emulator.stats import throughput_gain, utility_ratios
from repro.exec import (
    ExecutionPolicy,
    JobResult,
    JobSpec,
    execute_jobs,
    stable_hash,
)
from repro.protocols.etx_routing import plan_etx_route
from repro.protocols.more import plan_more
from repro.protocols.oldmore import plan_oldmore
from repro.protocols.omnc import plan_omnc_detailed
from repro.routing.node_selection import NodeSelectionError
from repro.topology.graph import WirelessNetwork
from repro.topology.phy import high_quality_phy, lossy_phy
from repro.topology.random_network import random_network
from repro.util.rng import RngFactory

PROTOCOLS = ("omnc", "more", "oldmore", "etx")

#: Bump when the per-session computation changes in a way that
#: invalidates previously cached job results (feeds the job hash).
SESSION_JOB_SCHEMA = 1


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs of one evaluation campaign.

    The defaults reproduce the paper's setup at reduced scale; the
    class method :meth:`paper_scale` returns the full Sec. 5 parameters.
    """

    node_count: int = 120
    sessions: int = 20
    min_hops: int = 4
    max_hops: int = 10
    quality: str = "lossy"  # or "high"
    session_seconds: float = 200.0
    target_generations: int = 6
    seed: int = 2008
    interference: str = "blanking"
    coding_fidelity: str = "flow"

    def __post_init__(self) -> None:
        if self.node_count < 4:
            raise ValueError("node_count must be >= 4")
        if self.sessions < 1:
            raise ValueError("sessions must be >= 1")
        if not 1 <= self.min_hops <= self.max_hops:
            raise ValueError("need 1 <= min_hops <= max_hops")
        if self.quality not in ("lossy", "high"):
            raise ValueError(f"quality must be 'lossy' or 'high', got {self.quality!r}")

    @classmethod
    def paper_scale(cls, quality: str = "lossy") -> "CampaignConfig":
        """The full Sec. 5 campaign: 300 nodes, 300 sessions, 800 s."""
        return cls(
            node_count=300,
            sessions=300,
            quality=quality,
            session_seconds=800.0,
            target_generations=0,
        )

    @classmethod
    def from_environment(cls, **overrides: object) -> "CampaignConfig":
        """Reduced scale by default; paper scale if OMNC_FULL_SCALE=1."""
        if os.environ.get("OMNC_FULL_SCALE") == "1":
            quality = overrides.pop("quality", "lossy")
            return cls.paper_scale(quality=quality)
        return cls(**overrides)

    def session_config(self) -> SessionConfig:
        """The per-session emulation configuration."""
        return SessionConfig(
            max_seconds=self.session_seconds,
            target_generations=self.target_generations,
            interference=self.interference,
            coding_fidelity=self.coding_fidelity,
        )


@dataclass
class SessionRecord:
    """All four protocols' results on one (source, destination) pair."""

    source: int
    destination: int
    hop_count: int
    results: Dict[str, SessionResult]
    plans: Dict[str, object]

    def gain(self, protocol: str) -> float:
        """Throughput gain of ``protocol`` over ETX routing."""
        return throughput_gain(self.results[protocol], self.results["etx"])

    def utility(self, protocol: str) -> "UtilityRatios":
        """Node/path utility ratios for a coded protocol."""
        plan = self.plans[protocol]
        forwarders = plan.forwarders  # type: ignore[attr-defined]
        return utility_ratios(self.results[protocol], forwarders)


#: Types whose ``repr`` is their canonical form as they stand.
_PLAIN = frozenset({bool, int, float, str, bytes, type(None)})
#: Field names per dataclass, ``None`` per class seen that is none.
_FIELD_NAMES: Dict[type, Optional[Tuple[str, ...]]] = {}


def _tuple_repr(parts: List[str]) -> str:
    """``repr`` of a tuple whose elements' reprs are ``parts``."""
    if len(parts) == 1:
        return f"({parts[0]},)"
    return f"({', '.join(parts)})"


def _canonical_repr(value: object) -> str:
    """``repr`` of ``value`` rebuilt in an order-independent form.

    Set iteration order is not a measured quantity — two processes can
    build value-equal ``frozenset``s whose pickles differ byte for byte —
    so sets and mapping items are sorted by the repr of their (already
    canonical) elements.  Dataclasses decompose into (class name, field
    items) so plans and results from any process compare structurally;
    lists read as tuples, numpy scalars as Python ones.  Built bottom-up,
    each element ``repr``'d once, dispatching on the exact type first.
    """
    kind = type(value)
    if kind in _PLAIN:
        return repr(value)
    if kind is tuple or kind is list:
        if all(type(item) in _PLAIN for item in value):  # type: ignore[attr-defined]
            return repr(tuple(value))  # type: ignore[call-overload]
        return _tuple_repr([_canonical_repr(item) for item in value])  # type: ignore[attr-defined]
    if kind not in _FIELD_NAMES:
        _FIELD_NAMES[kind] = (
            tuple(spec.name for spec in dataclasses.fields(kind))
            if dataclasses.is_dataclass(kind) else None
        )
    names = _FIELD_NAMES[kind]
    if names is not None:
        items = [f"({name!r}, {_canonical_repr(getattr(value, name))})" for name in names]
        return f"({kind.__name__!r}, {_tuple_repr(items)})"
    if isinstance(value, dict):
        pairs = sorted(
            f"({_canonical_repr(key)}, {_canonical_repr(item)})" for key, item in value.items()
        )
        return f"('mapping', {_tuple_repr(pairs)})"
    if isinstance(value, (set, frozenset)):
        return f"('set', {_tuple_repr(sorted(map(_canonical_repr, value)))})"
    if isinstance(value, (list, tuple)):
        return _tuple_repr([_canonical_repr(item) for item in value])
    if isinstance(value, np.generic):
        return repr(value.item())
    if isinstance(value, (bool, int, float, str, bytes)):
        return repr(value)
    raise TypeError(
        f"cannot canonicalise {kind.__name__} for a campaign digest"
    )


@dataclass(frozen=True)
class CampaignFailure:
    """One session slot the campaign could not complete.

    ``stage`` is ``"selection"`` when no feasible endpoint pair existed
    for the slot (the old abort-the-campaign case) and ``"session"``
    when the session job itself failed — raised, timed out, or crashed
    its worker.  Either way the rest of the campaign's work survives.
    """

    session_index: int
    stage: str  # "selection" | "session"
    source: int = -1
    destination: int = -1
    error: str = ""
    message: str = ""
    attempts: int = 0


@dataclass
class CampaignResult:
    """Everything a campaign measured."""

    config: CampaignConfig
    network: WirelessNetwork
    records: List[SessionRecord] = field(default_factory=list)
    failures: List[CampaignFailure] = field(default_factory=list)
    cache_hits: int = 0
    wall_seconds: float = 0.0
    # Snapshot of the campaign's metrics registry (empty when collection
    # was off): emulator/mac/decoder counters aggregated over every
    # session of every protocol.
    metrics: Dict[str, dict] = field(default_factory=dict)

    def digest(self) -> str:
        """Content hash of everything the campaign *measured*.

        Covers the configuration, every session record, and every
        recorded failure — but not wall-clock time or cache accounting,
        which legitimately differ run to run.  Equal digests mean the
        campaigns are interchangeable; the executor tests use this to
        prove serial and parallel execution agree bit for bit.
        """
        failures = [
            (f.session_index, f.stage, f.source, f.destination, f.error)
            for f in self.failures
        ]
        canonical = _canonical_repr((self.config, self.records, failures))
        # repr, not pickle: pickle memoises repeated objects by identity,
        # so value-identical campaigns with different sharing patterns
        # (serial vs unpickled-from-workers) would hash differently.
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def gains(self, protocol: str) -> List[float]:
        """Finite throughput gains for ``protocol`` across sessions."""
        values = [r.gain(protocol) for r in self.records]
        return [v for v in values if v != float("inf")]

    def mean_gain(self, protocol: str) -> float:
        """Average throughput gain (the paper's headline statistic)."""
        values = self.gains(protocol)
        return sum(values) / len(values) if values else 0.0

    def per_node_queues(self, protocol: str) -> List[float]:
        """Per-node time-averaged queues pooled across sessions (Fig. 3)."""
        values: List[float] = []
        for record in self.records:
            result = record.results[protocol]
            for node, tx in result.transmissions.items():
                if tx > 0:
                    values.append(result.average_queues[node])
        return values

    def utilities(self, protocol: str) -> Tuple[List[float], List[float]]:
        """(node utility, path utility) lists for a coded protocol."""
        nodes: List[float] = []
        paths: List[float] = []
        for record in self.records:
            ratios = record.utility(protocol)
            nodes.append(ratios.node_utility)
            paths.append(ratios.path_utility)
        return nodes, paths


def build_network(config: CampaignConfig) -> Tuple[RngFactory, WirelessNetwork]:
    """Deploy the campaign topology with the requested quality profile."""
    rng = RngFactory(config.seed)
    if config.quality == "high":
        phy = high_quality_phy(rng=rng.derive("phy"))
    else:
        phy = lossy_phy(rng=rng.derive("phy"))
    network = random_network(
        config.node_count, phy=phy, rng=rng.derive("topology")
    )
    return rng, network


def pick_sessions(
    config: CampaignConfig,
    network: WirelessNetwork,
    *,
    strict: bool = True,
) -> List[Tuple[int, int, UnicastPathPlan]]:
    """Draw random endpoint pairs honouring the hop-count constraint.

    With ``strict`` (the default for direct callers) a shortfall raises;
    the campaign driver passes ``strict=False`` and records the missing
    slots as :class:`CampaignFailure` entries instead, so one degenerate
    topology cannot discard the sessions that *are* feasible.
    """
    # Frozen stdlib stream: migrating to a numpy generator would redraw
    # every campaign's endpoint pairs and shift all figure outputs.
    rng = random.Random(config.seed * 31 + 7)  # repro: rng-root
    chosen: List[Tuple[int, int, UnicastPathPlan]] = []
    attempts = 0
    limit = config.sessions * 200
    while len(chosen) < config.sessions and attempts < limit:
        attempts += 1
        source, destination = rng.sample(range(network.node_count), 2)
        try:
            etx_plan = plan_etx_route(network, source, destination)
        except NodeSelectionError:
            continue
        if not config.min_hops <= etx_plan.hop_count <= config.max_hops:
            continue
        try:
            # Coded planning must succeed too for a comparable session.
            plan_more(network, source, destination)
        except NodeSelectionError:
            continue
        chosen.append((source, destination, etx_plan))
    if len(chosen) < config.sessions and strict:
        raise RuntimeError(
            f"only found {len(chosen)} feasible sessions after {attempts} draws; "
            "relax the hop-count constraint or enlarge the network"
        )
    return chosen


def session_rng(seed: int, session_index: int) -> RngFactory:
    """The independent per-session RNG factory of one campaign slot.

    Derived from ``(campaign seed, session index)`` alone — never from a
    stream threaded through the campaign loop — so any subset of
    sessions can run in any order, on any worker, and draw exactly the
    randomness the serial campaign would have given them.  This is the
    seam that makes parallel execution bit-identical to serial.
    """
    return RngFactory(seed).spawn(f"session-{session_index}")


def run_session(
    network: WirelessNetwork,
    source: int,
    destination: int,
    etx_plan: UnicastPathPlan,
    session_config: SessionConfig,
    rng: RngFactory,
) -> SessionRecord:
    """Run all four protocols on one session.

    ``rng`` must be the session's *own* factory (see
    :func:`session_rng`); each protocol spawns an independent child from
    it, so the per-(session, protocol) streams depend only on the
    campaign seed and the session index — never on which other sessions
    ran, or where.
    """
    results: Dict[str, SessionResult] = {}
    plans: Dict[str, object] = {"etx": etx_plan}

    results["etx"] = run_unicast_session(
        network, etx_plan, config=session_config,
        rng=rng.spawn("etx"),
    )
    omnc_report = plan_omnc_detailed(network, source, destination)
    plans["omnc"] = omnc_report.plan
    results["omnc"] = run_coded_session(
        network, omnc_report.plan, config=session_config,
        rng=rng.spawn("omnc"),
    )
    more_plan = plan_more(network, source, destination)
    plans["more"] = more_plan
    results["more"] = run_coded_session(
        network, more_plan, config=session_config,
        rng=rng.spawn("more"),
    )
    oldmore_plan = plan_oldmore(network, source, destination)
    plans["oldmore"] = oldmore_plan
    results["oldmore"] = run_coded_session(
        network, oldmore_plan, config=session_config,
        rng=rng.spawn("oldmore"),
        protocol_label="oldmore",
    )
    hop_count = etx_plan.hop_count
    return SessionRecord(
        source=source,
        destination=destination,
        hop_count=hop_count,
        results=results,
        plans=plans,
    )


@dataclass(frozen=True)
class SessionJob:
    """Picklable unit of campaign work: one session, all four protocols.

    Everything a worker needs is derivable from the fields: the network
    rebuilds deterministically from the config, the ETX plan re-derives
    from the endpoints, and the randomness comes from
    :func:`session_rng`.  That self-containment is what makes the job
    executable on any worker — or satisfiable from the result cache —
    with an identical outcome.
    """

    config: CampaignConfig
    session_index: int
    source: int
    destination: int
    collect_metrics: bool = False

    def cache_key(self) -> str:
        """Stable content hash identifying this job's result.

        Only *execution-relevant* knobs participate: ``sessions`` /
        ``min_hops`` / ``max_hops`` steer endpoint selection, not what
        the emulator computes for a given endpoint pair, so sweeping the
        session count re-uses every already-cached session.
        """
        config = self.config
        return stable_hash(
            {
                "kind": "campaign-session",
                "schema": SESSION_JOB_SCHEMA,
                "node_count": config.node_count,
                "quality": config.quality,
                "seed": config.seed,
                "session_seconds": config.session_seconds,
                "target_generations": config.target_generations,
                "interference": config.interference,
                "coding_fidelity": config.coding_fidelity,
                "session_index": self.session_index,
                "source": self.source,
                "destination": self.destination,
                "collect_metrics": self.collect_metrics,
            }
        )


@dataclass(frozen=True)
class SessionJobOutput:
    """What one session job ships back to the campaign driver."""

    record: SessionRecord
    # Rendered snapshot (with histogram samples) of the job's own
    # collection scope, or None when metrics collection was off.
    metrics: Optional[Dict[str, dict]] = None


# Per-process memo of deployed topologies, keyed by the config fields
# that determine them.  The campaign driver files the network it built
# before it submits jobs, so in-process jobs and forked workers find it
# there; a spawned worker, or a job run on its own, builds it once.
_NETWORK_CACHE: Dict[Tuple[int, str, int], WirelessNetwork] = {}


def _network_key(config: CampaignConfig) -> Tuple[int, str, int]:
    return (config.node_count, config.quality, config.seed)


def _remember_network(config: CampaignConfig, network: WirelessNetwork) -> None:
    if len(_NETWORK_CACHE) >= 8:  # bound worker memory across sweeps
        _NETWORK_CACHE.clear()
    _NETWORK_CACHE[_network_key(config)] = network


def _campaign_network(config: CampaignConfig) -> WirelessNetwork:
    network = _NETWORK_CACHE.get(_network_key(config))
    if network is None:
        _, network = build_network(config)
        _remember_network(config, network)
    return network


def execute_session_job(job: SessionJob) -> SessionJobOutput:
    """Run one campaign session end to end (the worker entry point).

    Module-level and self-contained by design: the execution engine
    pickles it by reference into worker processes.  With
    ``collect_metrics`` the job runs in a collection scope of its own and
    returns that registry as a mergeable snapshot, so parent-side
    aggregation is identical whether the job ran in-process or on a
    worker.
    """
    with obs.collecting() if job.collect_metrics else nullcontext() as registry:
        network = _campaign_network(job.config)
        record = run_session(
            network,
            job.source,
            job.destination,
            plan_etx_route(network, job.source, job.destination),
            job.config.session_config(),
            session_rng(job.config.seed, job.session_index),
        )
    snapshot = registry.snapshot(include_samples=True) if registry is not None else None
    return SessionJobOutput(record=record, metrics=snapshot)


def campaign_jobs(
    config: CampaignConfig,
    sessions: List[Tuple[int, int, UnicastPathPlan]],
    *,
    collect_metrics: bool = False,
) -> List[JobSpec]:
    """The executable job list of one campaign's selected sessions."""
    specs: List[JobSpec] = []
    for index, (source, destination, _etx_plan) in enumerate(sessions):
        job = SessionJob(
            config=config,
            session_index=index,
            source=source,
            destination=destination,
            collect_metrics=collect_metrics,
        )
        specs.append(
            JobSpec(key=job.cache_key(), fn=execute_session_job, payload=job)
        )
    return specs


def run_campaign(
    config: Optional[CampaignConfig] = None,
    *,
    policy: Optional[ExecutionPolicy] = None,
) -> CampaignResult:
    """Run the full four-protocol campaign on the execution engine.

    ``policy`` selects serial vs parallel execution, the result cache,
    and the per-job timeout/retry budget; the default runs serially with
    no cache — and produces exactly what any parallel policy produces.
    Failed or infeasible sessions are recorded in
    :attr:`CampaignResult.failures` instead of aborting the run.

    Run it inside :func:`repro.obs.collecting` to aggregate every
    session's metrics — the same records at any worker count; the
    snapshot lands in :attr:`CampaignResult.metrics`.
    """
    config = config or CampaignConfig()
    policy = policy or ExecutionPolicy()
    metrics = obs.get_registry()
    sessions_counter = metrics.counter(
        "campaign.sessions", "four-protocol sessions completed"
    )
    failures_counter = metrics.counter(
        "campaign.sessions_failed", "session slots infeasible or failed"
    )
    started = time.time()  # repro: ignore[RPR002] campaign wall-time metric
    _rng, network = build_network(config)
    _remember_network(config, network)
    sessions = pick_sessions(config, network, strict=False)
    campaign = CampaignResult(config=config, network=network)
    for missing in range(len(sessions), config.sessions):
        campaign.failures.append(
            CampaignFailure(
                session_index=missing,
                stage="selection",
                error="NodeSelectionError",
                message=(
                    "no feasible (source, destination) pair within the "
                    "hop-count constraint; relax min/max_hops or enlarge "
                    "the network"
                ),
            )
        )
        failures_counter.inc()
    specs = campaign_jobs(config, sessions, collect_metrics=metrics.enabled)
    if policy.jobs > 1:  # resolved (and self-tested) once here, forked workers inherit it
        engine.compiled_kernel()
    outcomes = execute_jobs(specs, policy)
    for index, ((source, destination, _plan), outcome) in enumerate(
        zip(sessions, outcomes)
    ):
        if isinstance(outcome, JobResult):
            output: SessionJobOutput = outcome.value
            campaign.records.append(output.record)
            if output.metrics is not None:
                metrics.merge_snapshot(output.metrics)
            if outcome.cached:
                campaign.cache_hits += 1
            sessions_counter.inc()
        else:
            campaign.failures.append(
                CampaignFailure(
                    session_index=index,
                    stage="session",
                    source=source,
                    destination=destination,
                    error=outcome.error,
                    message=outcome.message,
                    attempts=outcome.attempts,
                )
            )
            failures_counter.inc()
    campaign.failures.sort(key=lambda failure: failure.session_index)
    campaign.wall_seconds = time.time() - started  # repro: ignore[RPR002]
    if metrics.enabled:
        metrics.gauge(
            "campaign.wall_seconds", "wall-clock time of the campaign"
        ).set(campaign.wall_seconds)
        campaign.metrics = metrics.snapshot()
    return campaign
