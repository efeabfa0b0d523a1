"""Scenario specifications and their replay onto a topology.

A :class:`ScenarioSpec` is pure data: a named schedule of timed events
over one session's lifetime, sliced into fixed *epochs* at whose
boundaries the live control plane observes the network and may re-plan.
Event kinds:

* ``drift`` — every link quality moves by logit-space Gaussian noise of
  scale ``sigma`` (:func:`repro.topology.dynamics.perturb_link_qualities`);
* ``fail`` — a node's links all disappear (radio dies); geometry and
  node ids are preserved so decoder/session state survives;
* ``recover`` — a failed node's links return at their pre-failure
  qualities;
* ``load`` — the application changes its offered load (CBR fraction);
* ``session_arrive`` / ``session_depart`` — a unicast session joins or
  leaves a multi-session run (consumed by
  :func:`repro.emulator.multisession.run_multi_session`; the timeline's
  topology replay ignores them).

:class:`ScenarioTimeline` is the executable view: it replays a spec's
events onto a concrete :class:`~repro.topology.graph.WirelessNetwork`,
drawing drift noise from a dedicated RNG stream so a fixed seed plus a
fixed scenario reproduces the exact same sequence of topologies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Tuple

from repro.topology.dynamics import perturb_link_qualities
from repro.topology.graph import Link, WirelessNetwork
from repro.util.rng import RngLike, as_rng

SCENARIO_KINDS = (
    "drift",
    "fail",
    "recover",
    "load",
    "session_arrive",
    "session_depart",
)


@dataclass(frozen=True)
class ScenarioEvent:
    """One timed event.

    Attributes:
        at: emulated seconds from session start.
        kind: one of :data:`SCENARIO_KINDS`.
        sigma: drift magnitude in logit space (``drift`` only).
        node: the affected node (``fail``/``recover`` only).
        cbr_fraction: the new offered load as a fraction of channel
            capacity (``load`` only).
        session_id: the joining/leaving session
            (``session_arrive``/``session_depart`` only; the session's
            plan is given to the multi-session runner up front).
    """

    at: float
    kind: str
    sigma: float = 0.0
    node: int | None = None
    cbr_fraction: float | None = None
    session_id: int | None = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"event time must be >= 0, got {self.at}")
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.kind == "drift" and self.sigma <= 0:
            raise ValueError(f"drift events need sigma > 0, got {self.sigma}")
        if self.kind in ("fail", "recover"):
            if self.node is None or self.node < 0:
                raise ValueError(f"{self.kind} events need a node id >= 0")
        if self.kind == "load":
            if self.cbr_fraction is None or not 0.0 < self.cbr_fraction <= 1.0:
                raise ValueError(
                    f"load events need cbr_fraction in (0, 1], got {self.cbr_fraction}"
                )
        if self.kind in ("session_arrive", "session_depart"):
            if self.session_id is None or self.session_id < 0:
                raise ValueError(f"{self.kind} events need a session_id >= 0")

    def as_dict(self) -> dict[str, object]:
        """JSON-compatible representation (omits unused fields)."""
        record: dict[str, object] = {"at": self.at, "kind": self.kind}
        if self.kind == "drift":
            record["sigma"] = self.sigma
        if self.node is not None:
            record["node"] = self.node
        if self.cbr_fraction is not None:
            record["cbr_fraction"] = self.cbr_fraction
        if self.session_id is not None:
            record["session_id"] = self.session_id
        return record

    @classmethod
    def from_dict(cls, record: dict[str, Any]) -> "ScenarioEvent":
        """Inverse of :meth:`as_dict` (unknown keys are ignored)."""
        return cls(
            at=float(record["at"]),
            kind=record["kind"],
            sigma=float(record.get("sigma", 0.0)),
            node=record.get("node"),
            cbr_fraction=record.get("cbr_fraction"),
            session_id=record.get("session_id"),
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """A named event schedule over one session.

    Attributes:
        name: scenario label (appears in results and traces).
        duration: total emulated seconds.
        epoch_seconds: spacing of the control plane's observation points.
        events: the schedule, sorted by time, every event within
            ``[0, duration)``.
    """

    name: str
    duration: float
    epoch_seconds: float
    events: Tuple[ScenarioEvent, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.duration <= 0:
            raise ValueError(f"duration must be > 0, got {self.duration}")
        if not 0 < self.epoch_seconds <= self.duration:
            raise ValueError(
                f"epoch_seconds must be in (0, duration], got {self.epoch_seconds}"
            )
        times = [event.at for event in self.events]
        if times != sorted(times):
            raise ValueError("events must be sorted by time")
        if times and times[-1] >= self.duration:
            raise ValueError(
                f"event at {times[-1]} s falls outside the {self.duration} s scenario"
            )

    @property
    def epoch_count(self) -> int:
        """Number of observation epochs covering the duration."""
        return max(1, int(-(-self.duration // self.epoch_seconds)))

    def events_between(self, start: float, end: float) -> Tuple[ScenarioEvent, ...]:
        """Events with ``start < at <= end`` (one epoch's arrivals)."""
        return tuple(e for e in self.events if start < e.at <= end)

    def as_dict(self) -> dict[str, object]:
        """JSON-compatible representation."""
        return {
            "name": self.name,
            "duration": self.duration,
            "epoch_seconds": self.epoch_seconds,
            "events": [event.as_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, record: dict[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`as_dict`."""
        return cls(
            name=record["name"],
            duration=float(record["duration"]),
            epoch_seconds=float(record["epoch_seconds"]),
            events=tuple(
                ScenarioEvent.from_dict(e) for e in record.get("events", ())
            ),
        )

    def to_json(self, path: str | Path) -> None:
        """Write the spec as a JSON file."""
        Path(path).write_text(json.dumps(self.as_dict(), indent=2) + "\n")

    @classmethod
    def from_json(cls, path: str | Path) -> "ScenarioSpec":
        """Load a spec previously written by :meth:`to_json`."""
        return cls.from_dict(json.loads(Path(path).read_text()))


def builtin_scenario(
    name: str,
    *,
    duration: float = 120.0,
    epoch_seconds: float = 10.0,
) -> ScenarioSpec:
    """A named topology-independent scenario.

    * ``"calm"`` — no events (re-planning can only waste overhead);
    * ``"drift"`` — a strong quality shift at one third of the session
      and a milder aftershock at two thirds (the Sec. 4 motivating case).
    """
    if name == "calm":
        events: Tuple[ScenarioEvent, ...] = ()
    elif name == "drift":
        events = (
            ScenarioEvent(at=duration / 3, kind="drift", sigma=0.6),
            ScenarioEvent(at=2 * duration / 3, kind="drift", sigma=0.3),
        )
    else:
        raise ValueError(f"unknown builtin scenario {name!r}")
    return ScenarioSpec(
        name=name,
        duration=duration,
        epoch_seconds=epoch_seconds,
        events=events,
    )


def load_scenario(
    spec: str,
    *,
    duration: float = 120.0,
    epoch_seconds: float = 10.0,
) -> ScenarioSpec:
    """Resolve a CLI scenario argument: builtin name or JSON file path."""
    if spec in ("calm", "drift"):
        return builtin_scenario(
            spec, duration=duration, epoch_seconds=epoch_seconds
        )
    path = Path(spec)
    if path.exists():
        return ScenarioSpec.from_json(path)
    raise ValueError(
        f"unknown scenario {spec!r}: not a builtin name and no such file"
    )


class ScenarioTimeline:
    """Replay a spec's events onto a concrete topology.

    Drift draws come from the dedicated generator passed at
    construction, consumed strictly in event order, so the produced
    topology sequence is a pure function of (base network, spec, seed).
    Failure removes every link touching the node while keeping its
    position (interference geometry is physical and survives a dead
    radio); recovery restores the saved qualities.  Drift while a node
    is down only moves the live links — the saved ones return exactly as
    stored, a deliberate simplification.
    """

    def __init__(
        self,
        network: WirelessNetwork,
        spec: ScenarioSpec,
        *,
        rng: RngLike = None,
    ) -> None:
        self._network = network
        self._spec = spec
        self._rng = as_rng(rng)
        self._index = 0
        self._saved_links: Dict[int, Dict[Link, float]] = {}
        self._cbr_fraction: float | None = None

    @property
    def network(self) -> WirelessNetwork:
        """The topology as of the last :meth:`advance_to`."""
        return self._network

    @property
    def spec(self) -> ScenarioSpec:
        """The schedule being replayed."""
        return self._spec

    @property
    def cbr_fraction(self) -> float | None:
        """Offered-load override from the latest ``load`` event (None
        until one fires)."""
        return self._cbr_fraction

    @property
    def applied_events(self) -> int:
        """How many events have fired so far."""
        return self._index

    @property
    def failed_nodes(self) -> Tuple[int, ...]:
        """Nodes currently down."""
        return tuple(sorted(self._saved_links))

    def advance_to(self, time: float) -> bool:
        """Apply every not-yet-fired event with ``at <= time``.

        Returns True when the topology changed (the engine must be told
        via :meth:`~repro.emulator.shard.ShardedSession.set_network`).
        """
        changed = False
        events = self._spec.events
        while self._index < len(events) and events[self._index].at <= time:
            changed |= self._apply(events[self._index])
            self._index += 1
        return changed

    def _apply(self, event: ScenarioEvent) -> bool:
        if event.kind == "drift":
            self._network = perturb_link_qualities(
                self._network, sigma=event.sigma, rng=self._rng
            )
            return True
        if event.kind == "fail":
            return self._fail(event.node)
        if event.kind == "recover":
            return self._recover(event.node)
        if event.kind == "load":
            # Purely an application-layer change.
            self._cbr_fraction = event.cbr_fraction
        # session_arrive/session_depart: consumed by the multi-session
        # runner, not the topology replay.
        return False

    def _fail(self, node: int) -> bool:
        if node in self._saved_links:
            return False  # already down
        links = {(i, j): p for i, j, p in self._network.links()}
        removed = {
            link: p for link, p in links.items() if node in link
        }
        if not removed:
            self._saved_links[node] = {}
            return False  # isolated node: nothing to remove
        for link in removed:
            del links[link]
        self._saved_links[node] = removed
        self._network = self._network.with_links(links)
        return True

    def _recover(self, node: int) -> bool:
        saved = self._saved_links.pop(node, None)
        if not saved:
            return False  # was never down (or had no links)
        links = {(i, j): p for i, j, p in self._network.links()}
        links.update(saved)
        self._network = self._network.with_links(links)
        return True
