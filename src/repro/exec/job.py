"""Job identity and outcome types of the execution engine.

A *job* is one picklable unit of work: a module-level callable plus a
picklable payload, identified by a stable content hash.  The hash is the
job's identity everywhere — it keys the on-disk result cache, names the
job in progress events, and lets a re-run recognise work that is already
done regardless of worker count or scheduling order.

Outcomes are values, never exceptions: a job that raises, times out or
kills its worker becomes a recorded :class:`JobFailure` so one bad job
cannot abort a campaign of thousands.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence, Union

__all__ = [
    "JobFailure",
    "JobOutcome",
    "JobResult",
    "JobSpec",
    "job_key",
    "stable_hash",
]


def _jsonable(value: object) -> object:
    """Canonical JSON-compatible form of ``value`` (recursive).

    Dataclasses render to sorted field dicts, mappings to sorted-key
    dicts, and sequences to lists, so equal payloads always hash equal.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    if isinstance(value, Mapping):
        return {str(key): _jsonable(item) for key, item in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(
        f"cannot canonicalise {type(value).__name__!r} for hashing; "
        "job payloads must be built from dataclasses, mappings, "
        "sequences and scalars"
    )


def stable_hash(payload: object) -> str:
    """Content hash of a JSON-able payload: canonical form, sha256 hex.

    Stable across processes, interpreter runs and machines — the
    property the result cache and the resume path rely on.
    """
    canonical = json.dumps(
        _jsonable(payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def job_key(fn: Callable[[Any], Any], payload: object) -> str:
    """Key of the job ``fn(payload)``: the function's qualified name and
    the payload, hashed — equal calls share a key, any other call differs."""
    return stable_hash(
        {"fn": f"{fn.__module__}.{fn.__qualname__}", "payload": payload}
    )


@dataclass(frozen=True)
class JobSpec:
    """One schedulable unit of work.

    Attributes:
        key: stable content hash identifying the job (see
            :func:`stable_hash`); equal keys mean interchangeable
            results, which is what makes caching and resume sound.
        fn: a **module-level** callable (pickled by reference, so it
            must be importable in a worker process) taking ``payload``.
        payload: the picklable argument handed to ``fn``.
    """

    key: str
    fn: Callable[[Any], Any]
    payload: Any

    def __post_init__(self) -> None:
        if not self.key:
            raise ValueError("job key must be non-empty")
        if not callable(self.fn):
            raise TypeError("job fn must be callable")


@dataclass(frozen=True)
class JobResult:
    """A job that produced a value.

    ``attempts`` is 0 for cache hits (no execution happened this run);
    ``wall_seconds`` is host time and therefore excluded from any
    determinism comparison.
    """

    key: str
    value: Any
    attempts: int
    wall_seconds: float
    cached: bool = False


@dataclass(frozen=True)
class JobFailure:
    """A job that did not produce a value, after all allowed attempts.

    Attributes:
        kind: ``"exception"`` (the job raised — deterministic, never
            retried), ``"timeout"`` (exceeded the per-job budget) or
            ``"crash"`` (the worker process died under it).
        error: exception type name, or the kind for non-exception
            failures.
        message: human-readable description.
        traceback: the worker-side traceback for exceptions, else "".
        attempts: attempts consumed before giving up.
    """

    key: str
    kind: str
    error: str
    message: str
    traceback: str
    attempts: int


JobOutcome = Union[JobResult, JobFailure]


def outcomes_ok(outcomes: Sequence[JobOutcome]) -> bool:
    """True when every outcome is a :class:`JobResult`."""
    return all(isinstance(outcome, JobResult) for outcome in outcomes)
