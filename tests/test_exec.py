"""The deterministic parallel execution engine (repro.exec)."""

import os
import time

import pytest

from repro import obs
from repro.exec import (
    CACHE_SCHEMA,
    ExecutionPolicy,
    JobFailure,
    JobResult,
    JobSpec,
    PersistentWorkerGroup,
    ResultCache,
    WorkerCallError,
    WorkerPool,
    execute_calls,
    execute_jobs,
    job_key,
    run_serial,
    stable_hash,
)
from repro.exec.job import outcomes_ok


# -- module-level job functions (pickled by reference into workers) --------

def _square(payload):
    return payload * payload


def _raise_value_error(payload):
    raise ValueError(f"bad payload {payload}")


def _crash(_payload):
    os._exit(13)


def _sleep(seconds):
    time.sleep(seconds)
    return seconds


def _cube(payload):
    return payload**3


def _touch_and_square(payload):
    """Record execution via a marker file, then compute."""
    directory, value = payload
    with open(os.path.join(directory, f"ran-{value}"), "w") as fh:
        fh.write(str(value))
    return value * value


def _specs(values, fn=_square):
    return [
        JobSpec(key=stable_hash({"fn": fn.__name__, "v": v}), fn=fn, payload=v)
        for v in values
    ]


class _Counter:
    """Stateful worker payload for PersistentWorkerGroup tests."""

    def __init__(self, start):
        self.value = start

    def add(self, amount):
        self.value += amount
        return self.value

    def get(self, _argument=None):
        return self.value

    def boom(self, _argument=None):
        raise RuntimeError("counter exploded")

    def die(self, _argument=None):
        os._exit(13)


def _counter_factory(payload):
    return _Counter(payload)


def _failing_factory(_payload):
    raise ValueError("cannot build state")


class TestStableHash:
    def test_equal_payloads_hash_equal(self):
        assert stable_hash({"a": 1, "b": [2, 3]}) == stable_hash(
            {"b": [2, 3], "a": 1}
        )

    def test_different_payloads_hash_differently(self):
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})

    def test_dataclasses_hash_by_value(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Payload:
            x: int
            y: str

        assert stable_hash(Payload(1, "a")) == stable_hash(Payload(1, "a"))
        assert stable_hash(Payload(1, "a")) != stable_hash(Payload(2, "a"))

    def test_unhashable_payloads_rejected(self):
        with pytest.raises(TypeError):
            stable_hash({"a": object()})

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            JobSpec(key="", fn=_square, payload=1)
        with pytest.raises(TypeError):
            JobSpec(key="k", fn="not callable", payload=1)


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = stable_hash({"k": 1})
        hit, _ = cache.get(key)
        assert not hit
        cache.put(key, {"answer": 42})
        hit, value = cache.get(key)
        assert hit
        assert value == {"answer": 42}
        assert key in cache
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = stable_hash({"k": 2})
        cache.put(key, 7)
        cache.path_for(key).write_bytes(b"garbage")
        hit, _ = cache.get(key)
        assert not hit
        assert key not in cache  # corrupt file was dropped

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        for i in range(3):
            cache.put(stable_hash({"k": i}), i)
        assert len(cache) == 3
        cache.clear()
        assert len(cache) == 0

    def test_schema_constant_exported(self):
        assert CACHE_SCHEMA >= 1


class TestRunSerial:
    def test_values_in_order(self):
        outcomes = run_serial(_specs([1, 2, 3]))
        assert outcomes_ok(outcomes)
        assert [o.value for o in outcomes] == [1, 4, 9]
        assert all(o.attempts == 1 for o in outcomes)

    def test_exception_recorded_not_raised(self):
        outcomes = run_serial(_specs([5], fn=_raise_value_error))
        (outcome,) = outcomes
        assert isinstance(outcome, JobFailure)
        assert outcome.kind == "exception"
        assert outcome.error == "ValueError"
        assert "bad payload 5" in outcome.message
        assert outcome.attempts == 1


class TestWorkerPool:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(0)
        with pytest.raises(ValueError):
            WorkerPool(1, job_timeout=0)
        with pytest.raises(ValueError):
            WorkerPool(1, retries=-1)

    def test_results_in_submission_order(self):
        pool = WorkerPool(3)
        outcomes = pool.run(_specs(list(range(10))))
        assert outcomes_ok(outcomes)
        assert [o.value for o in outcomes] == [v * v for v in range(10)]

    def test_exception_is_not_retried(self):
        pool = WorkerPool(2, retries=3)
        outcomes = pool.run(_specs([1], fn=_raise_value_error))
        (outcome,) = outcomes
        assert isinstance(outcome, JobFailure)
        assert outcome.kind == "exception"
        assert outcome.attempts == 1  # deterministic: no retry budget spent
        assert "ValueError" in outcome.traceback

    def test_crash_is_isolated_and_retried(self):
        specs = _specs([1, 2], fn=_square) + _specs([0], fn=_crash)
        pool = WorkerPool(2, retries=1)
        outcomes = pool.run(specs)
        assert [o.value for o in outcomes[:2]] == [1, 4]
        crash = outcomes[2]
        assert isinstance(crash, JobFailure)
        assert crash.kind == "crash"
        assert crash.attempts == 2  # initial + one retry
        assert "died" in crash.message

    def test_timeout_kills_retries_then_fails(self):
        specs = _specs([0.0], fn=_sleep) + [
            JobSpec(key="sleeper", fn=_sleep, payload=30.0)
        ]
        pool = WorkerPool(2, job_timeout=0.5, retries=1)
        started = time.monotonic()
        outcomes = pool.run(specs)
        elapsed = time.monotonic() - started
        assert isinstance(outcomes[0], JobResult)
        timeout = outcomes[1]
        assert isinstance(timeout, JobFailure)
        assert timeout.kind == "timeout"
        assert timeout.attempts == 2
        assert elapsed < 20  # the 30 s job was killed, twice

    def test_on_outcome_fires_per_job(self):
        seen = []
        pool = WorkerPool(2)
        pool.run(
            _specs([1, 2, 3]),
            on_outcome=lambda spec, outcome: seen.append(spec.key),
        )
        assert sorted(seen) == sorted(s.key for s in _specs([1, 2, 3]))


class TestExecutionPolicy:
    def test_defaults_are_serial_uncached(self):
        policy = ExecutionPolicy()
        assert policy.jobs == 1
        assert not policy.parallel
        assert policy.cache_dir is None

    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutionPolicy(jobs=0)
        with pytest.raises(ValueError):
            ExecutionPolicy(job_timeout=-1)
        with pytest.raises(ValueError):
            ExecutionPolicy(retries=-1)


class TestExecuteJobs:
    def test_serial_and_parallel_agree(self):
        specs = _specs(list(range(6)))
        serial = execute_jobs(specs, ExecutionPolicy(jobs=1))
        parallel = execute_jobs(specs, ExecutionPolicy(jobs=3))
        assert [o.value for o in serial] == [o.value for o in parallel]

    def test_cache_roundtrip_skips_execution(self, tmp_path):
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        specs = [
            JobSpec(
                key=stable_hash({"touch": v}),
                fn=_touch_and_square,
                payload=(str(marker_dir), v),
            )
            for v in range(4)
        ]
        policy = ExecutionPolicy(jobs=1, cache_dir=str(tmp_path / "cache"))
        first = execute_jobs(specs, policy)
        assert [o.value for o in first] == [0, 1, 4, 9]
        assert all(not o.cached for o in first)
        assert len(list(marker_dir.iterdir())) == 4

        for marker in marker_dir.iterdir():
            marker.unlink()
        second = execute_jobs(specs, policy)
        assert [o.value for o in second] == [0, 1, 4, 9]
        assert all(o.cached for o in second)
        assert all(o.attempts == 0 for o in second)
        assert list(marker_dir.iterdir()) == []  # nothing re-executed

    def test_fresh_policy_ignores_cache_reads(self, tmp_path):
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        specs = [
            JobSpec(
                key=stable_hash({"touch2": v}),
                fn=_touch_and_square,
                payload=(str(marker_dir), v),
            )
            for v in range(2)
        ]
        cached = ExecutionPolicy(jobs=1, cache_dir=str(tmp_path / "cache"))
        execute_jobs(specs, cached)
        for marker in marker_dir.iterdir():
            marker.unlink()
        fresh = ExecutionPolicy(
            jobs=1, cache_dir=str(tmp_path / "cache"), resume=False
        )
        outcomes = execute_jobs(specs, fresh)
        assert all(not o.cached for o in outcomes)
        assert len(list(marker_dir.iterdir())) == 2  # really re-ran

    def test_partial_cache_resumes(self, tmp_path):
        """An interrupted run's cache is honoured by the next run."""
        specs = _specs(list(range(5)))
        policy = ExecutionPolicy(jobs=1, cache_dir=str(tmp_path / "cache"))
        # Simulate an interruption: only the first two results landed.
        cache = ResultCache(policy.cache_dir)
        for spec in specs[:2]:
            cache.put(spec.key, spec.payload * spec.payload)
        outcomes = execute_jobs(specs, policy)
        assert [o.value for o in outcomes] == [v * v for v in range(5)]
        assert [o.cached for o in outcomes] == [True, True, False, False, False]

    def test_metrics_counters(self, tmp_path):
        specs = _specs([1, 2, 3]) + _specs([9], fn=_raise_value_error)
        policy = ExecutionPolicy(jobs=1, cache_dir=str(tmp_path / "cache"))
        with obs.collecting() as registry:
            execute_jobs(specs, policy)
        snapshot = registry.snapshot()
        assert snapshot["exec.jobs_completed"]["value"] == 3
        assert snapshot["exec.jobs_failed"]["value"] == 1
        assert snapshot["exec.cache_misses"]["value"] == 4
        with obs.collecting() as registry2:
            execute_jobs(specs[:3], policy)
        assert registry2.snapshot()["exec.cache_hits"]["value"] == 3


class TestExecuteCalls:
    """The one figure-job path: keys from the call, values or a named raise."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_values_in_submission_order(self, jobs):
        calls = [(_square, 3), (_cube, 2), (_square, 1), (_cube, 3)]
        assert execute_calls(calls, ExecutionPolicy(jobs=jobs)) == [9, 8, 1, 27]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_failed_call_raises_naming_the_cell(self, jobs):
        calls = [(_square, 2), (_raise_value_error, 7), (_square, 4)]
        with pytest.raises(
            RuntimeError,
            match=r"_raise_value_error\(7\) failed: ValueError: bad payload 7",
        ):
            execute_calls(calls, ExecutionPolicy(jobs=jobs))

    def test_equal_calls_share_a_key_and_others_do_not(self):
        from dataclasses import replace

        from repro.experiments.fig7_finite_length import (
            Fig7Config,
            Fig7DecodeJob,
            Fig7GoodputJob,
            execute_fig7_decode_job,
            execute_fig7_goodput_job,
        )

        serial = Fig7GoodputJob(config=Fig7Config.smoke(), loss=0.3, arm="static")
        key = job_key(execute_fig7_goodput_job, serial)
        assert key == job_key(
            execute_fig7_goodput_job,
            Fig7GoodputJob(config=Fig7Config.smoke(), loss=0.3, arm="static"),
        )
        assert key != job_key(execute_fig7_goodput_job, replace(serial, arm="adaptive"))
        decode = Fig7DecodeJob(config=Fig7Config.smoke(), loss=0.3, systematic=False)
        assert job_key(execute_fig7_decode_job, decode) != job_key(
            execute_fig7_goodput_job, decode
        )
        assert job_key(_square, 2) != job_key(_cube, 2)


class TestPersistentWorkerGroup:
    """Long-lived stateful workers: the sharded emulator's substrate."""

    def test_state_persists_across_barriers(self):
        with WorkerPool(2).persistent(_counter_factory, [10, 100]) as group:
            assert group.size == 2
            assert group.call_all("add", [1, 2]) == [11, 102]
            assert group.call_all("add", [1, 2]) == [12, 104]
            assert group.call_all("get") == [12, 104]
            assert group.call_one(1, "add", 6) == 110

    def test_call_each_contacts_only_the_workers_named(self):
        with WorkerPool(3).persistent(_counter_factory, [0, 10, 20]) as group:
            assert group.call_each("add", {2: 5, 0: 1}) == {2: 25, 0: 1}
            assert group.call_each("add", {}) == {}
            assert group.call_all("get") == [1, 10, 25]  # worker 1 heard nothing

    def test_call_each_reports_a_worker_that_died_earlier(self):
        # The pipe to a dead worker may refuse the request itself; that
        # has to read as the worker's failure, not as a raw OSError.
        group = WorkerPool(2).persistent(_counter_factory, [0, 0])
        try:
            group._workers[1].process.kill()
            group._workers[1].process.join(5)
            assert group.call_each("add", {0: 1}) == {0: 1}
            for _ in range(2):
                with pytest.raises(WorkerCallError, match="died") as info:
                    group.call_each("add", {0: 1, 1: b"x" * 1_000_000})
                assert info.value.worker == 1
        finally:
            group.close()
        assert not any(worker.process.is_alive() for worker in group._workers)

    def test_factory_error_fails_construction(self):
        with pytest.raises(WorkerCallError, match="cannot build state"):
            WorkerPool(1).persistent(_failing_factory, [0])

    def test_method_exception_carries_traceback(self):
        with WorkerPool(1).persistent(_counter_factory, [0]) as group:
            with pytest.raises(WorkerCallError, match="counter exploded"):
                group.call_all("boom")
            # The worker survives an in-method exception.
            assert group.call_all("get") == [0]

    def test_worker_death_is_detected(self):
        group = WorkerPool(1).persistent(_counter_factory, [0])
        try:
            with pytest.raises(WorkerCallError, match="died"):
                group.call_all("die")
        finally:
            group.close()

    def test_argument_count_must_match_workers(self):
        with WorkerPool(2).persistent(_counter_factory, [0, 0]) as group:
            with pytest.raises(ValueError, match="argument"):
                group.call_all("add", [1])

    def test_close_is_idempotent(self):
        group = WorkerPool(1).persistent(_counter_factory, [5])
        assert group.call_all("get") == [5]
        group.close()
        group.close()
