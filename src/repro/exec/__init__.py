"""Deterministic parallel execution engine.

The engine turns campaign-shaped work (many independent jobs, each a
pure function of a picklable payload) into something that runs as fast
as the hardware allows without giving up reproducibility:

* :mod:`repro.exec.job` — content-hashed :class:`JobSpec` identity
  (:func:`job_key` for a plain ``fn(payload)`` call) plus value-style
  outcomes (:class:`JobResult` / :class:`JobFailure`);
* :mod:`repro.exec.cache` — content-addressed on-disk
  :class:`ResultCache` giving free resume and incremental re-runs;
* :mod:`repro.exec.pool` — a crash-isolated :class:`WorkerPool` with
  per-job timeouts and bounded retry, and the persistent workers of the
  sharded emulator, all on one worker loop;
* :mod:`repro.exec.engine` — :class:`ExecutionPolicy`,
  :func:`execute_jobs`, :func:`execute_calls` (values or a raise), and
  the shared CLI flags.

The determinism contract: a job's randomness derives from its payload
(never from shared mutable streams), so ``jobs=1`` and ``jobs=N``
produce bit-identical values in the same submission order.  The
experiment layer (:mod:`repro.experiments.common`) is built on exactly
that contract.
"""

from repro.exec.cache import CACHE_SCHEMA, ResultCache
from repro.exec.engine import (
    DEFAULT_CACHE_DIR,
    ExecutionPolicy,
    add_execution_arguments,
    execute_calls,
    execute_jobs,
    policy_from_args,
)
from repro.exec.job import (
    JobFailure,
    JobOutcome,
    JobResult,
    JobSpec,
    job_key,
    stable_hash,
)
from repro.exec.pool import (
    PersistentWorkerGroup,
    WorkerCallError,
    WorkerPool,
    run_serial,
)

__all__ = [
    "CACHE_SCHEMA",
    "DEFAULT_CACHE_DIR",
    "ExecutionPolicy",
    "JobFailure",
    "JobOutcome",
    "JobResult",
    "JobSpec",
    "PersistentWorkerGroup",
    "ResultCache",
    "WorkerCallError",
    "WorkerPool",
    "add_execution_arguments",
    "execute_calls",
    "execute_jobs",
    "job_key",
    "policy_from_args",
    "run_serial",
    "stable_hash",
]
