"""Crash-isolated worker pool with per-job timeouts and bounded retry.

``multiprocessing.Pool`` cannot kill a hung task or survive a worker
that dies mid-job, so the pool here is built directly on processes and
pipes: the parent assigns one job to one worker at a time and therefore
always knows which job a dead or overdue worker was holding.  That is
what turns the three failure modes into recorded outcomes instead of a
dead campaign:

* a job that **raises** reports the exception back and the worker keeps
  going — deterministic failures are never retried;
* a job that **exceeds the timeout** gets its worker terminated and
  replaced; the job is retried up to the retry budget, then recorded as
  a ``timeout`` failure;
* a worker that **crashes** (segfault, ``os._exit``, OOM-kill) is
  detected by pipe hangup and replaced the same way, with the job it
  held retried, then recorded as a ``crash`` failure.

Scheduling order never leaks into results: outcomes are keyed by
submission index and returned in submission order, and jobs carry their
own RNG derivations, so a pool run is bit-identical to a serial loop.

Every worker process — a pool's or a :class:`PersistentWorkerGroup`'s —
runs one loop, :func:`_persistent_worker_main`, and is started and
stopped through one handle, :class:`_Worker`; a pool worker's state is a
:class:`_JobRunner`, which runs the ``(fn, payload)`` it is sent.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait as _wait_connections
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exec.job import JobFailure, JobOutcome, JobResult, JobSpec

__all__ = [
    "PersistentWorkerGroup",
    "WorkerCallError",
    "WorkerPool",
    "run_serial",
]

#: Poll granularity (seconds) when no per-job timeout bounds the wait.
_IDLE_TICK = 1.0
#: Grace period for process joins during shutdown/replacement.
_JOIN_GRACE = 5.0

OutcomeCallback = Callable[[JobSpec, JobOutcome], None]


def run_serial(
    specs: Sequence[JobSpec],
    *,
    on_outcome: Optional[OutcomeCallback] = None,
) -> List[JobOutcome]:
    """Execute ``specs`` in-process, in order — the ``jobs=1`` path.

    Semantically identical to a one-worker pool minus process isolation:
    exceptions become ``exception`` failures, but timeouts and crash
    containment need real worker processes.
    """
    outcomes: List[JobOutcome] = []
    for spec in specs:
        started = time.perf_counter()
        try:
            value = spec.fn(spec.payload)
        except Exception as error:
            outcome: JobOutcome = JobFailure(
                key=spec.key,
                kind="exception",
                error=type(error).__name__,
                message=str(error),
                traceback=traceback.format_exc(),
                attempts=1,
            )
        else:
            outcome = JobResult(
                key=spec.key,
                value=value,
                attempts=1,
                wall_seconds=time.perf_counter() - started,
            )
        outcomes.append(outcome)
        if on_outcome is not None:
            on_outcome(spec, outcome)
    return outcomes


def _persistent_worker_main(
    conn: Connection, factory: Callable[[Any], Any], payload: Any
) -> None:
    """The worker loop: build state once, dispatch method calls.

    Holds ``factory(payload)`` alive across messages — a
    :class:`_JobRunner` for a pool worker, or a shard's per-node
    runtimes, RNG streams and neighbor structures kept warm between slot
    barriers.  The first reply is the ready one; then each message is
    ``(method, argument)`` and its reply ``("ok", value)`` or
    ``("error", (type, message, traceback))``.  Runs until the parent
    sends ``None`` or the pipe closes; ``SystemExit``/``os._exit`` and
    real crashes surface to the parent as a pipe hangup.
    """
    try:
        state = factory(payload)
    except Exception as error:
        conn.send(
            ("error", (type(error).__name__, str(error), traceback.format_exc()))
        )
        conn.close()
        return
    conn.send(("ok", None))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        method, argument = message
        try:
            value = getattr(state, method)(argument)
        except Exception as error:
            conn.send(
                (
                    "error",
                    (type(error).__name__, str(error), traceback.format_exc()),
                )
            )
        else:
            conn.send(("ok", value))
    conn.close()


class _JobRunner:
    """A pool worker's state: each ``run`` call is one ``(fn, payload)`` job."""

    def __init__(self, _payload: None) -> None:
        """Pool workers carry no state of their own."""

    def run(self, job: Tuple[Callable[[Any], Any], Any]) -> Any:
        fn, payload = job
        return fn(payload)


class WorkerCallError(RuntimeError):
    """A persistent worker raised (or died) while serving a call."""

    def __init__(self, worker: int, method: str, detail: str) -> None:
        super().__init__(
            f"persistent worker {worker} failed during {method!r}: {detail}"
        )
        self.worker = worker
        self.method = method
        self.detail = detail


@dataclass
class _Worker:
    """One worker process, the parent's end of its pipe, and the job (if
    any) a pool has assigned it."""

    process: Any  # multiprocessing.Process (context-specific class)
    conn: Connection
    index: Optional[int] = None  # submission index of the assigned job
    attempt: int = 0
    started: float = 0.0  # monotonic assignment time

    @property
    def busy(self) -> bool:
        return self.index is not None

    @classmethod
    def start(
        cls, ctx: Any, factory: Callable[[Any], Any], payload: Any
    ) -> "_Worker":
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_persistent_worker_main,
            args=(child_conn, factory, payload),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return cls(process=process, conn=parent_conn)

    def receive(self, position: int, method: str) -> Any:
        """The reply to ``method``; a raise or a death is a :class:`WorkerCallError`."""
        try:
            status, data = self.conn.recv()
        except (EOFError, OSError):
            raise WorkerCallError(
                position,
                method,
                f"worker process died (exit code {self.process.exitcode})",
            ) from None
        if status == "error":
            error, message, trace = data
            raise WorkerCallError(position, method, f"{error}: {message}\n{trace}")
        return data

    def stop(self, grace: float) -> None:
        """Give the process ``grace`` seconds to exit, then terminate it
        (kill a straggler) and close the pipe."""
        self.process.join(grace)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(_JOIN_GRACE)
        if self.process.is_alive():  # pragma: no cover - hard stragglers
            self.process.kill()
            self.process.join(_JOIN_GRACE)
        self.conn.close()


def _start_workers(
    ctx: Any, factory: Callable[[Any], Any], payloads: Sequence[Any]
) -> List[_Worker]:
    """Start one worker per payload, then await every ready reply.

    A factory that raises (or a worker that dies starting) stops them all
    and raises :class:`WorkerCallError`.
    """
    workers: List[_Worker] = []
    try:
        for payload in payloads:
            workers.append(_Worker.start(ctx, factory, payload))
        for position, worker in enumerate(workers):
            worker.receive(position, "__init__")
    except BaseException:
        _stop_workers(workers)
        raise
    return workers


def _stop_workers(workers: Sequence[_Worker]) -> None:
    """Ask every idle worker to leave its loop, then stop them all; a
    worker still holding a job is terminated without waiting."""
    for worker in workers:
        if not worker.busy:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
    for worker in workers:
        worker.stop(0.0 if worker.busy else _JOIN_GRACE)


class PersistentWorkerGroup:
    """Long-lived stateful workers driven by method-dispatch calls.

    Built by :meth:`WorkerPool.persistent`.  Where the pool assigns one
    self-contained :class:`JobSpec` per message, the group initializes
    each worker once with ``factory(payload)`` and then exchanges small
    per-call messages against that warm state — the execution shape of
    the sharded slot loop, whose per-slot barrier traffic (lottery keys,
    boundary offers) is tiny next to the runtimes and neighbor
    structures that stay resident in the worker.

    Failure model: a worker that raises reports the exception (raised
    here as :class:`WorkerCallError`); a worker that dies is detected by
    pipe hangup and also raised — there is no retry, because shard state
    is stateful and cannot be re-run from a message.  A factory that
    raises fails construction, not the first call.
    """

    def __init__(
        self,
        factory: Callable[[Any], Any],
        payloads: Sequence[Any],
        *,
        ctx: Any,
    ) -> None:
        if not payloads:
            raise ValueError("at least one worker payload is required")
        self._closed = False
        self._workers = _start_workers(ctx, factory, payloads)

    @property
    def size(self) -> int:
        """Number of live workers."""
        return len(self._workers)

    def call_each(self, method: str, arguments: Mapping[int, Any]) -> Dict[int, Any]:
        """Invoke ``method`` on the workers ``arguments`` names.

        ``arguments[i]`` goes to worker ``i``; the other workers are not
        contacted.  All requests are written before any reply is
        awaited, so the addressed workers execute the phase concurrently
        — one pipelined barrier round-trip.  Replies are keyed like
        ``arguments``.
        """
        if self._closed:
            raise RuntimeError("worker group is closed")
        for worker, argument in arguments.items():
            try:
                self._workers[worker].conn.send((method, argument))
            except (BrokenPipeError, ConnectionResetError):
                pass  # a dead worker; the receive below says so
        return {
            worker: self._workers[worker].receive(worker, method)
            for worker in arguments
        }

    def call_all(
        self, method: str, arguments: Optional[Sequence[Any]] = None
    ) -> List[Any]:
        """:meth:`call_each` over every worker; results in worker order.

        ``arguments[i]`` goes to worker ``i`` (``None`` broadcasts
        ``None`` to all).
        """
        if arguments is None:
            arguments = [None] * self.size
        if len(arguments) != self.size:
            raise ValueError(
                f"expected {self.size} argument(s), got {len(arguments)}"
            )
        return list(self.call_each(method, dict(enumerate(arguments))).values())

    def call_one(self, worker: int, method: str, argument: Any = None) -> Any:
        """Invoke ``method`` on one worker and await its reply."""
        return self.call_each(method, {worker: argument})[worker]

    def close(self) -> None:
        """Shut every worker down; idempotent."""
        if not self._closed:
            self._closed = True
            _stop_workers(self._workers)

    def __enter__(self) -> "PersistentWorkerGroup":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()


class WorkerPool:
    """Fixed-size process pool executing :class:`JobSpec` batches."""

    def __init__(
        self,
        workers: int,
        *,
        job_timeout: Optional[float] = None,
        retries: int = 1,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError(f"job_timeout must be > 0, got {job_timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self._workers = workers
        self._job_timeout = job_timeout
        self._retries = retries
        # fork is dramatically cheaper where available (no re-import of
        # numpy and the package per worker, and whatever the parent
        # memoised is inherited); spawn is the portable fallback.
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:
            self._ctx = multiprocessing.get_context("spawn")

    @property
    def workers(self) -> int:
        """Configured worker count."""
        return self._workers

    def persistent(
        self, factory: Callable[[Any], Any], payloads: Sequence[Any]
    ) -> PersistentWorkerGroup:
        """Spawn long-lived stateful workers sharing this pool's context.

        One worker per payload; each holds ``factory(payload)`` alive
        across calls.  Used by the sharded emulator to keep shard state
        (runtimes, RNG streams, neighbor structures) resident between
        slot barriers instead of shipping it with every job.
        """
        return PersistentWorkerGroup(factory, payloads, ctx=self._ctx)

    def run(
        self,
        jobs: Sequence[JobSpec],
        *,
        on_outcome: Optional[OutcomeCallback] = None,
    ) -> List[JobOutcome]:
        """Execute every job; outcomes in submission order.

        ``on_outcome`` fires in *completion* order (progress reporting);
        the returned list is always in submission order regardless of
        scheduling.
        """
        specs = list(jobs)
        if not specs:
            return []
        outcomes: Dict[int, JobOutcome] = {}
        # (submission index, attempt number) — attempt counts from 1.
        pending: Deque[Tuple[int, int]] = deque(
            (index, 1) for index in range(len(specs))
        )
        crew = _start_workers(
            self._ctx, _JobRunner, [None] * min(self._workers, len(specs))
        )
        try:
            while len(outcomes) < len(specs):
                self._assign(crew, pending, specs)
                busy = [worker for worker in crew if worker.busy]
                if not busy:  # pragma: no cover - defensive
                    raise RuntimeError("pool stalled with work outstanding")
                ready = set(
                    _wait_connections(
                        [worker.conn for worker in busy],
                        self._wait_timeout(busy),
                    )
                )
                for position, worker in enumerate(crew):
                    if worker.busy and worker.conn in ready:
                        self._collect(
                            position, crew, specs, pending, outcomes, on_outcome
                        )
                self._expire_overdue(crew, specs, pending, outcomes, on_outcome)
        finally:
            _stop_workers(crew)
        return [outcomes[index] for index in range(len(specs))]

    # -- internals ---------------------------------------------------------

    def _replace(self, crew: List[_Worker], position: int) -> None:
        """Stop the worker at ``position`` at once and start a fresh one."""
        crew[position].stop(0.0)
        (crew[position],) = _start_workers(self._ctx, _JobRunner, [None])

    def _assign(
        self,
        crew: List[_Worker],
        pending: Deque[Tuple[int, int]],
        specs: List[JobSpec],
    ) -> None:
        for worker in crew:
            if not pending:
                break
            if worker.busy:
                continue
            index, attempt = pending.popleft()
            spec = specs[index]
            worker.index = index
            worker.attempt = attempt
            worker.started = time.monotonic()
            worker.conn.send(("run", (spec.fn, spec.payload)))

    def _wait_timeout(self, busy: Sequence[_Worker]) -> float:
        if self._job_timeout is None:
            return _IDLE_TICK
        now = time.monotonic()
        remaining = min(
            worker.started + self._job_timeout - now for worker in busy
        )
        return max(min(remaining, _IDLE_TICK), 0.01)

    def _collect(
        self,
        position: int,
        crew: List[_Worker],
        specs: List[JobSpec],
        pending: Deque[Tuple[int, int]],
        outcomes: Dict[int, JobOutcome],
        on_outcome: Optional[OutcomeCallback],
    ) -> None:
        worker = crew[position]
        assert worker.index is not None
        index, attempt = worker.index, worker.attempt
        spec = specs[index]
        try:
            status, data = worker.conn.recv()
        except (EOFError, OSError):
            # The worker died under this job: replace it, retry the job.
            self._replace(crew, position)
            self._record_attempt_failure(
                spec,
                index,
                attempt,
                kind="crash",
                message=(
                    f"worker process died (exit code "
                    f"{worker.process.exitcode}) while running the job"
                ),
                pending=pending,
                outcomes=outcomes,
                on_outcome=on_outcome,
            )
            return
        elapsed = time.monotonic() - worker.started
        worker.index = None
        if status == "ok":
            outcome: JobOutcome = JobResult(
                key=spec.key,
                value=data,
                attempts=attempt,
                wall_seconds=elapsed,
            )
        else:
            error, message, trace = data
            # Exceptions are deterministic given the payload: retrying
            # would reproduce them, so they consume no retry budget.
            outcome = JobFailure(
                key=spec.key,
                kind="exception",
                error=error,
                message=message,
                traceback=trace,
                attempts=attempt,
            )
        outcomes[index] = outcome
        if on_outcome is not None:
            on_outcome(spec, outcome)

    def _expire_overdue(
        self,
        crew: List[_Worker],
        specs: List[JobSpec],
        pending: Deque[Tuple[int, int]],
        outcomes: Dict[int, JobOutcome],
        on_outcome: Optional[OutcomeCallback],
    ) -> None:
        if self._job_timeout is None:
            return
        now = time.monotonic()
        for position, worker in enumerate(crew):
            if not worker.busy or now - worker.started <= self._job_timeout:
                continue
            if worker.conn.poll(0):
                # Finished just after the wait returned — collect, don't kill.
                self._collect(
                    position, crew, specs, pending, outcomes, on_outcome
                )
                continue
            assert worker.index is not None
            index, attempt = worker.index, worker.attempt
            self._replace(crew, position)
            self._record_attempt_failure(
                specs[index],
                index,
                attempt,
                kind="timeout",
                message=(
                    f"job exceeded the per-job timeout of "
                    f"{self._job_timeout:g}s (attempt {attempt})"
                ),
                pending=pending,
                outcomes=outcomes,
                on_outcome=on_outcome,
            )

    def _record_attempt_failure(
        self,
        spec: JobSpec,
        index: int,
        attempt: int,
        *,
        kind: str,
        message: str,
        pending: Deque[Tuple[int, int]],
        outcomes: Dict[int, JobOutcome],
        on_outcome: Optional[OutcomeCallback],
    ) -> None:
        """Retry a crashed/overdue job, or record its final failure."""
        if attempt <= self._retries:
            pending.appendleft((index, attempt + 1))
            return
        outcome = JobFailure(
            key=spec.key,
            kind=kind,
            error=kind,
            message=message,
            traceback="",
            attempts=attempt,
        )
        outcomes[index] = outcome
        if on_outcome is not None:
            on_outcome(spec, outcome)
