"""Re-planning policies: when should the control plane re-initiate?

At every epoch boundary the adaptive runner assembles an
:class:`EpochObservation` — what a deployed controller could actually
measure: elapsed time, link-quality drift since the last plan (from
probing), and the epoch's delivery progress — and asks the policy
whether to pay for a re-plan.  Three policies span the paper's Sec. 4
trade-off:

* :class:`ObliviousPolicy` — never re-plan (the static baseline);
* :class:`PeriodicPolicy` — re-plan every k epochs regardless of need
  (pays overhead even on a calm network);
* :class:`DriftTriggeredPolicy` — re-plan when observed drift crosses a
  threshold (overhead only when the plan is actually stale).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class EpochObservation:
    """What the controller sees at one epoch boundary.

    Attributes:
        epoch: 0-based epoch index just completed.
        time: emulated seconds elapsed.
        drift: mean absolute link-quality change between the topology
            the current plan was computed on and the topology now
            (:func:`repro.topology.dynamics.quality_drift`, union
            semantics so failures register).
        generations_decoded: cumulative decoded generations (coded
            sessions; 0 for unicast).
        new_generations: generations decoded during this epoch.
        new_deliveries: packets delivered end-to-end during this epoch
            (unicast sessions; 0 for coded).
    """

    epoch: int
    time: float
    drift: float
    generations_decoded: int = 0
    new_generations: int = 0
    new_deliveries: int = 0


class ReplanPolicy:
    """Decides, per epoch, whether the session re-initiates its plan."""

    name = "base"

    def should_replan(self, observation: EpochObservation) -> bool:
        """True when the controller should pay for a re-plan now."""
        raise NotImplementedError


class ObliviousPolicy(ReplanPolicy):
    """Never re-plan: the paper's static pipeline."""

    name = "oblivious"

    def should_replan(self, observation: EpochObservation) -> bool:
        return False


class PeriodicPolicy(ReplanPolicy):
    """Re-plan every ``every`` epochs, drift or no drift."""

    def __init__(self, every: int = 1) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self._every = every
        self.name = f"periodic:{every}"

    @property
    def every(self) -> int:
        """Epochs between re-plans."""
        return self._every

    def should_replan(self, observation: EpochObservation) -> bool:
        return (observation.epoch + 1) % self._every == 0


class DriftTriggeredPolicy(ReplanPolicy):
    """Re-plan when observed drift since the last plan crosses a
    threshold.

    The default threshold (0.02 mean absolute probability change) sits
    well above probing noise on a stable network but well below the
    shift a ``sigma = 0.3`` drift event produces, so calm epochs stay
    free and real drift triggers within one epoch.
    """

    def __init__(self, threshold: float = 0.02) -> None:
        if not 0 < threshold < math.inf:  # refuses NaN too
            raise ValueError(f"threshold must be finite and > 0, got {threshold}")
        self._threshold = threshold
        self.name = f"drift:{threshold:g}"

    @property
    def threshold(self) -> float:
        """Drift level at which a re-plan fires."""
        return self._threshold

    def should_replan(self, observation: EpochObservation) -> bool:
        return observation.drift >= self._threshold


def make_policy(spec: str) -> ReplanPolicy:
    """Parse a CLI policy argument.

    ``"oblivious"``, ``"periodic"`` / ``"periodic:3"``, and
    ``"drift"`` / ``"drift:0.05"`` are accepted.
    """
    head, _, argument = spec.partition(":")
    if head == "oblivious":
        if argument:
            raise ValueError("oblivious takes no argument")
        return ObliviousPolicy()
    if head == "periodic":
        return PeriodicPolicy(int(argument) if argument else 1)
    if head == "drift":
        return DriftTriggeredPolicy(float(argument) if argument else 0.02)
    raise ValueError(f"unknown policy {spec!r}")
