"""Drift-style packet-level emulation (paper Sec. 5).

The emulator executes real protocol logic (actual coding vectors, actual
innovation checks) over simulated lower layers:

* :mod:`repro.emulator.scheduler` — the ideal MAC: conflict-free maximal
  scheduling among interfering transmitters.
* :mod:`repro.emulator.channel` — the lossy broadcast channel (PHY loss
  draws only; the scheduler removed collisions).
* :mod:`repro.emulator.node` — per-node data planes (rate-driven coding,
  credit-driven coding, store-and-forward).
* :mod:`repro.emulator.engine` — the slot loop, per process: what
  happens to the nodes one process hosts, its MAC grant included.
* :mod:`repro.emulator.shard` — the session above it: clock, replay and
  stats, over one core or many (and the grant when several contend).
* :mod:`repro.emulator.awake` — the awake set the slot loop sweeps
  (runtimes parked at a fixed point are skipped until woken).
* :mod:`repro.emulator.session` — session drivers and results.
* :mod:`repro.emulator.stats` — figure metrics (gains, queues, utility).
"""

from repro.emulator.channel import LossyBroadcastChannel
from repro.emulator.engine import EngineCore, EngineStats
from repro.emulator.multisession import (
    InterSessionXorRelay,
    MultiSessionOutcome,
    multi_session_digest,
    run_multi_session,
)
from repro.emulator.node import (
    CodedDestinationRuntime,
    CodedRelayRuntime,
    CodedSourceRuntime,
    MultiSessionNodeRuntime,
    NodeRuntime,
    UnicastRuntime,
    XorPacket,
)
from repro.emulator.scheduler import ConflictGraph, IdealMacScheduler
from repro.emulator.session import (
    SessionConfig,
    SessionResult,
    run_coded_session,
    run_unicast_session,
)
from repro.emulator.shard import ShardedSession, session_digest
from repro.emulator.stats import (
    DistributionSummary,
    UtilityRatios,
    ascii_cdf,
    count_dag_paths,
    jain_fairness_index,
    summarize,
    throughput_gain,
    utility_ratios,
)

__all__ = [
    "CodedDestinationRuntime",
    "CodedRelayRuntime",
    "CodedSourceRuntime",
    "ConflictGraph",
    "DistributionSummary",
    "EngineCore",
    "EngineStats",
    "IdealMacScheduler",
    "InterSessionXorRelay",
    "LossyBroadcastChannel",
    "MultiSessionNodeRuntime",
    "MultiSessionOutcome",
    "NodeRuntime",
    "SessionConfig",
    "SessionResult",
    "ShardedSession",
    "UnicastRuntime",
    "UtilityRatios",
    "XorPacket",
    "ascii_cdf",
    "count_dag_paths",
    "jain_fairness_index",
    "multi_session_digest",
    "run_coded_session",
    "run_multi_session",
    "run_unicast_session",
    "session_digest",
    "summarize",
    "throughput_gain",
    "utility_ratios",
]
