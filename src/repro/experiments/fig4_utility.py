"""Figure 4 — node utility and path utility ratios.

The paper contrasts how much of the selected forwarder set (node
utility) and of the available path diversity (path utility) each coded
protocol actually uses.  oldMORE "tends to prune a large number of nodes
associated with low quality links" — its ratios sit far below OMNC's and
(new) MORE's, which are similar to each other.
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

UTILITY_PROTOCOLS = ("omnc", "more", "oldmore")


@dataclass(frozen=True)
class Fig4Result:
    """Node- and path-utility distributions per protocol."""

    node_utility: Dict[str, DistributionSummary]
    path_utility: Dict[str, DistributionSummary]
    campaign: CampaignResult


def run_fig4(
    config: Optional[CampaignConfig] = None,
    *,
    policy: Optional[ExecutionPolicy] = None,
) -> Fig4Result:
    """Run the Fig. 4 utility campaign (lossy network)."""
    if config is None:
        config = CampaignConfig.from_environment(quality="lossy")
    campaign = run_campaign(config, policy=policy)
    node_utility: Dict[str, DistributionSummary] = {}
    path_utility: Dict[str, DistributionSummary] = {}
    for protocol in UTILITY_PROTOCOLS:
        nodes, paths = campaign.utilities(protocol)
        node_utility[protocol] = summarize(nodes)
        path_utility[protocol] = summarize(paths)
    return Fig4Result(
        node_utility=node_utility,
        path_utility=path_utility,
        campaign=campaign,
    )


def report(result: Fig4Result) -> None:
    """Print the Fig. 4 summary and CDFs."""
    print("Figure 4 — node and path utility ratios (lossy network)")
    print(f"{'protocol':10s} {'node util':>10s} {'path util':>10s}")
    for protocol in UTILITY_PROTOCOLS:
        print(
            f"{protocol:10s} {result.node_utility[protocol].mean:10.2f} "
            f"{result.path_utility[protocol].mean:10.3f}"
        )
    for protocol in UTILITY_PROTOCOLS:
        print()
        print(
            ascii_cdf(
                result.node_utility[protocol],
                label=f"{protocol} node-utility CDF",
            )
        )
