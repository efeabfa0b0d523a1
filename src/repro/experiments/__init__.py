"""Experiments regenerating every figure and claim of the paper's
evaluation (Sec. 5), plus the Sec. 4 coding-speed claim.

* :mod:`repro.experiments.common` — the shared four-protocol campaign.
* :mod:`repro.experiments.fig1_convergence` — Fig. 1.
* :mod:`repro.experiments.fig2_throughput` — Fig. 2 (left and right).
* :mod:`repro.experiments.fig3_queue` — Fig. 3.
* :mod:`repro.experiments.fig4_utility` — Fig. 4.
* :mod:`repro.experiments.coding_speed` — the 3-5x acceleration claim.
* :mod:`repro.experiments.convergence_stats` — the ~91-iteration claim.

The extensions beyond the paper are ``fig5_adaptation``,
``fig6_multisession`` and ``fig7_finite_length``.  Each module exposes
a ``run_*`` function for programmatic use and one ``report`` function
that prints its result; ``python -m repro <command>`` (:mod:`repro.cli`)
is the one front end that calls the pair, and the benchmark suite calls
the ``run_*`` functions with pinned configurations.
"""

from repro.experiments.coding_speed import CodingSpeedPoint, run_coding_speed
from repro.experiments.common import (
    CampaignConfig,
    CampaignResult,
    SessionRecord,
    build_network,
    pick_sessions,
    run_campaign,
    run_session,
)
from repro.experiments.convergence_stats import (
    ConvergenceStats,
    run_convergence_stats,
)
from repro.experiments.fig1_convergence import ConvergenceSeries, run_fig1
from repro.experiments.fig2_throughput import Fig2Result, run_fig2
from repro.experiments.fig3_queue import Fig3Result, run_fig3
from repro.experiments.fig4_utility import Fig4Result, run_fig4

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "CodingSpeedPoint",
    "ConvergenceSeries",
    "ConvergenceStats",
    "Fig2Result",
    "Fig3Result",
    "Fig4Result",
    "SessionRecord",
    "build_network",
    "pick_sessions",
    "run_campaign",
    "run_coding_speed",
    "run_convergence_stats",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_session",
]
