"""Figure 3 — distribution of time-averaged queue sizes.

The paper samples each node's broadcast queue, time-averages it, and
plots the per-node distribution for OMNC and MORE in the lossy network.
Headline numbers: OMNC's overall average is 0.63 (most nodes < 1);
MORE's is 22 — the rate-control-vs-none contrast that explains the
throughput results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.emulator.stats import DistributionSummary, ascii_cdf, summarize
from repro.exec import ExecutionPolicy
from repro.experiments.common import (
    CampaignConfig,
    CampaignResult,
    run_campaign,
)

QUEUE_PROTOCOLS = ("omnc", "more", "oldmore")

PAPER_MEAN_QUEUES = {"omnc": 0.63, "more": 22.0}


@dataclass(frozen=True)
class Fig3Result:
    """Per-node queue-size distributions per protocol."""

    distributions: Dict[str, DistributionSummary]
    campaign: CampaignResult

    def mean_queue(self, protocol: str) -> float:
        """Overall average of per-node time-averaged queues."""
        return self.distributions[protocol].mean


def run_fig3(
    config: Optional[CampaignConfig] = None,
    *,
    policy: Optional[ExecutionPolicy] = None,
) -> Fig3Result:
    """Run the Fig. 3 queue campaign (lossy network)."""
    if config is None:
        config = CampaignConfig.from_environment(quality="lossy")
    campaign = run_campaign(config, policy=policy)
    distributions = {
        protocol: summarize(campaign.per_node_queues(protocol))
        for protocol in QUEUE_PROTOCOLS
    }
    return Fig3Result(distributions=distributions, campaign=campaign)


def report(result: Fig3Result) -> None:
    """Print the Fig. 3 summary and CDFs."""
    print("Figure 3 — per-node time-averaged queue size (lossy network)")
    for protocol in QUEUE_PROTOCOLS:
        summary = result.distributions[protocol]
        paper = PAPER_MEAN_QUEUES.get(protocol)
        note = f" (paper {paper})" if paper is not None else ""
        below_one = summary.fraction_below(1.0)
        print(
            f"  {protocol:8s} mean {summary.mean:6.2f}{note}  "
            f"median {summary.median:5.2f}  P(q<1) = {below_one:.2f}"
        )
    for protocol in QUEUE_PROTOCOLS:
        print()
        print(ascii_cdf(result.distributions[protocol], label=f"{protocol} queue CDF"))
