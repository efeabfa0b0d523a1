"""Execution policy, cache resolution, and the top-level job driver.

:func:`execute_jobs` is the engine's single entry point: it resolves
cache hits, runs the remaining jobs serially (``jobs=1``) or on a
:class:`~repro.exec.pool.WorkerPool`, writes fresh results back to the
cache, and counts progress in the :mod:`repro.obs` registry
(``exec.*`` counters).

Because every job derives its own randomness from its payload and
outcomes are ordered by submission index, the serial and parallel paths
produce bit-identical values — the engine only changes *when* work
happens, never *what* it computes.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro import obs
from repro.exec.cache import ResultCache
from repro.exec.job import JobOutcome, JobResult, JobSpec, job_key
from repro.exec.pool import WorkerPool, run_serial

__all__ = [
    "DEFAULT_CACHE_DIR",
    "ExecutionPolicy",
    "add_execution_arguments",
    "add_gf_backend_argument",
    "execute_calls",
    "execute_jobs",
    "policy_from_args",
]

#: Where ``--resume`` keeps results when no ``--cache-dir`` is given.
DEFAULT_CACHE_DIR = ".omnc-cache"


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a batch of jobs is executed.

    Attributes:
        jobs: worker processes; 1 runs in-process with no pool.
        cache_dir: directory of the content-addressed result cache;
            ``None`` disables caching entirely.
        resume: when a cache is configured, whether previously stored
            results are *read* (fresh results are always written).
            ``False`` forces recomputation while still recording.
        job_timeout: per-job wall-clock budget in seconds (enforced only
            with ``jobs > 1`` — killing an in-process job is not
            possible); ``None`` disables the timeout.
        retries: extra attempts granted to jobs that time out or crash
            their worker; exceptions are deterministic and never
            retried.
        start_method: multiprocessing start method override (``fork`` /
            ``spawn`` / ``forkserver``); ``None`` picks ``fork`` where
            available.
    """

    jobs: int = 1
    cache_dir: Optional[str] = None
    resume: bool = True
    job_timeout: Optional[float] = None
    retries: int = 1
    start_method: Optional[str] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise ValueError(
                f"job_timeout must be > 0, got {self.job_timeout}"
            )
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")

    @property
    def parallel(self) -> bool:
        """True when a worker pool will be used."""
        return self.jobs > 1


def execute_jobs(
    specs: Sequence[JobSpec],
    policy: Optional[ExecutionPolicy] = None,
) -> List[JobOutcome]:
    """Execute ``specs`` under ``policy``; outcomes in submission order.

    Failures are recorded, not raised: callers decide whether a
    :class:`~repro.exec.job.JobFailure` is fatal.  Progress lands in the
    global metrics registry (``exec.jobs_completed`` /
    ``exec.jobs_failed`` / ``exec.cache_hits`` / ``exec.cache_misses``).
    """
    policy = policy or ExecutionPolicy()
    metrics = obs.get_registry()
    completed = metrics.counter("exec.jobs_completed", "jobs that produced a value")
    failed = metrics.counter("exec.jobs_failed", "jobs that exhausted every attempt")
    hits = metrics.counter("exec.cache_hits", "jobs satisfied from the result cache")
    misses = metrics.counter("exec.cache_misses", "jobs that had to execute")
    cache = ResultCache(policy.cache_dir) if policy.cache_dir else None

    outcomes: dict[int, JobOutcome] = {}
    remaining: List[tuple[int, JobSpec]] = []
    for index, spec in enumerate(specs):
        if cache is not None and policy.resume:
            hit, value = cache.get(spec.key)
            if hit:
                outcome: JobOutcome = JobResult(
                    key=spec.key,
                    value=value,
                    attempts=0,
                    wall_seconds=0.0,
                    cached=True,
                )
                outcomes[index] = outcome
                hits.inc()
                completed.inc()
                continue
            misses.inc()
        remaining.append((index, spec))

    if remaining:
        def record(spec: JobSpec, outcome: JobOutcome) -> None:
            if isinstance(outcome, JobResult):
                completed.inc()
                if cache is not None:
                    cache.put(spec.key, outcome.value)
            else:
                failed.inc()

        batch = [spec for _, spec in remaining]
        if policy.parallel:
            pool = WorkerPool(
                policy.jobs,
                job_timeout=policy.job_timeout,
                retries=policy.retries,
                start_method=policy.start_method,
            )
            fresh = pool.run(batch, on_outcome=record)
        else:
            fresh = run_serial(batch, on_outcome=record)
        for (index, _), outcome in zip(remaining, fresh):
            outcomes[index] = outcome
    return [outcomes[index] for index in range(len(specs))]


def execute_calls(
    calls: Sequence[Tuple[Callable[[Any], Any], Any]],
    policy: Optional[ExecutionPolicy] = None,
) -> List[Any]:
    """Run each ``fn(payload)`` of ``calls`` as a job keyed by
    :func:`~repro.exec.job.job_key`; values in submission order.

    For callers that need every value: the first call that did not
    produce one raises ``RuntimeError`` naming it.
    """
    specs = [
        JobSpec(key=job_key(fn, payload), fn=fn, payload=payload)
        for fn, payload in calls
    ]
    values = []
    for spec, outcome in zip(specs, execute_jobs(specs, policy)):
        if not isinstance(outcome, JobResult):
            raise RuntimeError(
                f"{spec.fn.__qualname__}({spec.payload!r}) failed: "
                f"{outcome.error}: {outcome.message}"
            )
        values.append(outcome.value)
    return values


def add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the engine's shared CLI flags to ``parser``.

    The flags map onto :class:`ExecutionPolicy` via
    :func:`policy_from_args`; every campaign-shaped command exposes
    them.
    """
    group = parser.add_argument_group("execution")
    group.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for campaign jobs (default 1 = serial; "
        "results are bit-identical at any worker count)",
    )
    group.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed result cache; completed jobs are stored "
        "here and reused on the next run",
    )
    group.add_argument(
        "--resume",
        action="store_true",
        help="resume from cached results (uses "
        f"{DEFAULT_CACHE_DIR!r} when --cache-dir is not given)",
    )
    group.add_argument(
        "--fresh",
        action="store_true",
        help="ignore existing cache entries (still records new results)",
    )
    group.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock budget; overdue jobs are killed, "
        "retried, then recorded as failures (requires --jobs > 1)",
    )
    group.add_argument(
        "--job-retries",
        type=int,
        default=1,
        metavar="N",
        help="extra attempts for jobs that time out or crash "
        "(default 1; exceptions are never retried)",
    )
    add_gf_backend_argument(group)


def add_gf_backend_argument(parser: "argparse._ActionsContainer") -> None:
    """Attach ``--gf-backend`` (applied by :func:`apply_gf_backend`)."""
    parser.add_argument(
        "--gf-backend",
        default=None,
        metavar="NAME",
        help="GF(2^8) codec backend for this run ('numpy', 'native' or "
        "'best'; default: the OMNC_GF_BACKEND environment variable, "
        "else 'best')",
    )


def apply_gf_backend(name: "str | None") -> None:
    """Select the GF(2^8) codec backend ``name`` process-wide (no-op on
    ``None``: ``OMNC_GF_BACKEND`` or, failing that, ``"best"`` applies).

    The selection is exported through ``OMNC_GF_BACKEND`` so campaign
    worker processes inherit it; results are bit-identical across
    backends regardless (CI enforces equivalence), so this never
    changes campaign digests.  A name that is unknown or unavailable on
    this machine is an ``argparse.ArgumentError`` (a usage error).
    """
    if name is None:
        return
    from repro.coding.backends import select_backend

    try:
        select_backend(name, export=True)
    except KeyError as exc:
        raise argparse.ArgumentError(None, f"--gf-backend: {exc.args[0]}") from exc


def policy_from_args(args: argparse.Namespace) -> ExecutionPolicy:
    """Build the :class:`ExecutionPolicy` the parsed CLI flags describe.

    Also applies cross-cutting execution selections carried by the same
    flag group (currently ``--gf-backend``).
    """
    apply_gf_backend(getattr(args, "gf_backend", None))
    cache_dir = args.cache_dir
    if args.resume and cache_dir is None:
        cache_dir = DEFAULT_CACHE_DIR
    return ExecutionPolicy(
        jobs=args.jobs,
        cache_dir=cache_dir,
        resume=not args.fresh,
        job_timeout=args.job_timeout,
        retries=args.job_retries,
    )
