"""Figure 2 — distribution of throughput gains over ETX routing.

Left panel: the lossy network (average link quality ~0.58).  Paper
averages: OMNC 2.45, MORE 1.67, oldMORE 1.12.  Right panel: the same
topology with raised transmission power (average quality ~0.91), where
OMNC's gain shrinks to 1.12 and MORE/oldMORE fall below ETX.

``OMNC_FULL_SCALE=1`` switches to the paper's 300-node / 300-session
campaign.
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

CODED_PROTOCOLS = ("omnc", "more", "oldmore")

PAPER_MEAN_GAINS = {
    "lossy": {"omnc": 2.45, "more": 1.67, "oldmore": 1.12},
    "high": {"omnc": 1.12, "more": 0.95, "oldmore": 0.9},
}


@dataclass(frozen=True)
class Fig2Result:
    """Gain distributions for one quality regime."""

    quality: str
    distributions: Dict[str, DistributionSummary]
    campaign: CampaignResult

    def mean_gain(self, protocol: str) -> float:
        """Average throughput gain of ``protocol``."""
        return self.distributions[protocol].mean


def run_fig2(
    quality: str = "lossy",
    config: Optional[CampaignConfig] = None,
    *,
    policy: Optional[ExecutionPolicy] = None,
) -> Fig2Result:
    """Run the Fig. 2 campaign for one quality regime."""
    if config is None:
        config = CampaignConfig.from_environment(quality=quality)
    campaign = run_campaign(config, policy=policy)
    distributions = {
        protocol: summarize(campaign.gains(protocol))
        for protocol in CODED_PROTOCOLS
    }
    return Fig2Result(
        quality=quality, distributions=distributions, campaign=campaign
    )


def report(result: Fig2Result) -> None:
    """Print the mean gains, the campaign's cache/failure tally and the CDFs."""
    campaign = result.campaign
    paper = PAPER_MEAN_GAINS[result.quality]
    print(f"Figure 2 ({result.quality}): mean throughput gain over ETX")
    print(
        f"  network: {campaign.config.node_count} nodes, "
        f"{campaign.config.sessions} sessions, avg link quality "
        f"{campaign.network.average_link_probability():.2f}"
    )
    for protocol in CODED_PROTOCOLS:
        summary = result.distributions[protocol]
        print(
            f"  {protocol:8s} {summary.mean:5.2f} "
            f"(paper {paper[protocol]:.2f}, median {summary.median:.2f})"
        )
    if campaign.cache_hits or campaign.failures:
        print(
            f"  ({campaign.cache_hits} cached session(s), "
            f"{len(campaign.failures)} failed slot(s))"
        )
    for protocol in CODED_PROTOCOLS:
        print()
        print(ascii_cdf(result.distributions[protocol], label=f"{protocol} gain CDF"))
