"""Scenario-driven live emulation (paper Sec. 4 re-initiation trade-off).

OMNC presumes "link qualities ... are relatively stable over time"; when
they are not, the control plane must re-initiate node selection and rate
allocation, paying overhead.  This package makes that trade-off runnable:

* :mod:`repro.scenario.spec` — declarative scenarios: timed link-quality
  drift, node failure/recovery and offered-load changes over a session's
  lifetime, plus the timeline that replays them onto a topology;
* :mod:`repro.scenario.controller` — re-planning policies (oblivious,
  periodic, drift-triggered) and the per-epoch observation they act on;
* :mod:`repro.scenario.runner` — the adaptive session driver: epoch
  loop, event application, plan hot-swap and overhead charging.
"""

from repro.scenario.controller import (
    DriftTriggeredPolicy,
    EpochObservation,
    ObliviousPolicy,
    PeriodicPolicy,
    ReplanPolicy,
    make_policy,
)
from repro.scenario.runner import (
    AdaptiveSessionResult,
    EpochRecord,
    run_adaptive_session,
)
from repro.scenario.spec import (
    SCENARIO_KINDS,
    ScenarioEvent,
    ScenarioSpec,
    ScenarioTimeline,
    builtin_scenario,
    load_scenario,
)

__all__ = [
    "AdaptiveSessionResult",
    "DriftTriggeredPolicy",
    "EpochObservation",
    "EpochRecord",
    "ObliviousPolicy",
    "PeriodicPolicy",
    "ReplanPolicy",
    "SCENARIO_KINDS",
    "ScenarioEvent",
    "ScenarioSpec",
    "ScenarioTimeline",
    "builtin_scenario",
    "load_scenario",
    "make_policy",
    "run_adaptive_session",
]
