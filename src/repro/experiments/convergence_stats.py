"""Section 5 claim — the distributed algorithm converges in ~91 iterations.

"The average number of iterations required for the experiments in
Fig. 2 is 91."  This experiment runs the distributed rate control on the
session graphs of a Fig. 2-style campaign and reports the iteration
distribution, plus the quality of the recovered allocation against the
centralized LP optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro import obs
from repro.emulator.stats import DistributionSummary, summarize
from repro.exec import (
    ExecutionPolicy,
    JobResult,
    JobSpec,
    execute_jobs,
    stable_hash,
)
from repro.experiments.common import (
    CampaignConfig,
    _campaign_network,
    build_network,
    pick_sessions,
)
from repro.optimization.problem import session_graph_from_selection
from repro.optimization.rate_control import RateControlAlgorithm, RateControlConfig
from repro.optimization.sunicast import solve_sunicast
from repro.routing.node_selection import select_forwarders

PAPER_MEAN_ITERATIONS = 91

#: Bump when the per-session optimisation changes in a way that
#: invalidates previously cached convergence-job results.
CONVERGENCE_JOB_SCHEMA = 1


@dataclass(frozen=True)
class ConvergenceStats:
    """Iteration counts and LP-tracking quality over a campaign."""

    iterations: DistributionSummary
    lp_ratio: DistributionSummary  # recovered gamma / LP gamma
    converged_fraction: float


@dataclass(frozen=True)
class ConvergenceJob:
    """One session graph's rate-control run, as an executable job."""

    config: CampaignConfig
    source: int
    destination: int
    rate_config: Optional[RateControlConfig] = None

    def cache_key(self) -> str:
        """Stable content hash of the optimisation this job performs."""
        config = self.config
        return stable_hash(
            {
                "kind": "convergence-session",
                "schema": CONVERGENCE_JOB_SCHEMA,
                "node_count": config.node_count,
                "quality": config.quality,
                "seed": config.seed,
                "source": self.source,
                "destination": self.destination,
                "rate_config": self.rate_config,
            }
        )


@dataclass(frozen=True)
class ConvergenceSample:
    """One job's measurements; ``lp_throughput <= 0`` means skipped."""

    iterations: int
    ratio: float
    converged: bool
    feasible: bool


def execute_convergence_job(job: ConvergenceJob) -> ConvergenceSample:
    """Solve one session graph: LP bound plus distributed recovery."""
    network = _campaign_network(job.config)
    forwarders = select_forwarders(network, job.source, job.destination)
    graph = session_graph_from_selection(network, forwarders)
    lp = solve_sunicast(graph)
    if lp.throughput <= 1e-9:
        return ConvergenceSample(
            iterations=0, ratio=0.0, converged=False, feasible=False
        )
    result = RateControlAlgorithm(graph, job.rate_config).run()
    return ConvergenceSample(
        iterations=result.iterations,
        ratio=result.throughput / lp.throughput,
        converged=result.converged,
        feasible=True,
    )


def convergence_jobs(
    config: CampaignConfig,
    sessions: Sequence[Tuple[int, int, object]],
    rate_config: Optional[RateControlConfig] = None,
) -> List[JobSpec]:
    """Executable job list for a campaign's session graphs."""
    specs: List[JobSpec] = []
    for source, destination, _ in sessions:
        job = ConvergenceJob(
            config=config,
            source=source,
            destination=destination,
            rate_config=rate_config,
        )
        specs.append(
            JobSpec(key=job.cache_key(), fn=execute_convergence_job, payload=job)
        )
    return specs


def run_convergence_stats(
    config: Optional[CampaignConfig] = None,
    rate_config: Optional[RateControlConfig] = None,
    *,
    policy: Optional[ExecutionPolicy] = None,
) -> ConvergenceStats:
    """Run rate control on every campaign session graph.

    Sessions execute as independent jobs on the :mod:`repro.exec`
    engine (the optimisation is deterministic per endpoint pair, so any
    worker count reproduces the serial numbers).  Inside an
    :func:`repro.obs.collecting` scope each feasible session is also
    published as ``optimizer.session_*`` metrics; the returned summary
    never depends on the scope.
    """
    if config is None:
        config = CampaignConfig.from_environment(quality="lossy")
    scope = obs.get_registry().attach("optimizer")
    m_iterations = scope.histogram(
        "session_iterations", "outer iterations per session graph"
    )
    m_lp_ratio = scope.histogram(
        "session_lp_ratio", "recovered gamma over the LP optimum"
    )
    m_converged = scope.counter(
        "sessions_converged", "sessions that met the stopping rule"
    )
    _, network = build_network(config)
    sessions = pick_sessions(config, network)
    specs = convergence_jobs(config, sessions, rate_config)
    # A failed job is recorded by the engine; the summary skips the slot.
    samples: List[ConvergenceSample] = [
        outcome.value
        for outcome in execute_jobs(specs, policy)
        if isinstance(outcome, JobResult) and outcome.value.feasible
    ]
    for sample in samples:
        m_iterations.observe(sample.iterations)
        m_lp_ratio.observe(sample.ratio)
        if sample.converged:
            m_converged.inc()
    converged = sum(1 for sample in samples if sample.converged)
    return ConvergenceStats(
        iterations=summarize([float(sample.iterations) for sample in samples]),
        lp_ratio=summarize([sample.ratio for sample in samples]),
        converged_fraction=converged / len(samples) if samples else 0.0,
    )


def report(stats: ConvergenceStats) -> None:
    """Print the convergence summary table."""
    print("Distributed rate control — convergence statistics")
    print(
        f"  iterations: mean {stats.iterations.mean:.0f} "
        f"(paper {PAPER_MEAN_ITERATIONS}), "
        f"median {stats.iterations.median:.0f}, "
        f"max {stats.iterations.maximum:.0f}"
    )
    print(
        f"  recovered gamma / LP optimum: mean {stats.lp_ratio.mean:.3f}, "
        f"min {stats.lp_ratio.minimum:.3f}, max {stats.lp_ratio.maximum:.3f}"
    )
    print(f"  sessions converged before cap: {stats.converged_fraction:.0%}")
