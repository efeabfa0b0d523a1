"""Campaigns on the execution engine: determinism, caching, failures."""

import multiprocessing
import os
import signal
import time
from dataclasses import replace

import pytest

from repro import obs
from repro.exec import ExecutionPolicy, JobSpec, execute_jobs
from repro.experiments.common import (
    CampaignConfig,
    CampaignFailure,
    SessionJob,
    build_network,
    campaign_jobs,
    pick_sessions,
    run_campaign,
    session_rng,
)

TINY = CampaignConfig(
    node_count=40,
    sessions=4,
    min_hops=2,
    max_hops=6,
    session_seconds=20.0,
    target_generations=2,
    seed=7,
)


#: The paper's Fig. 2 campaign at pin size: the 120-node reference mesh,
#: all four protocols, flow fidelity.
FIG2 = CampaignConfig(
    node_count=120,
    sessions=2,
    min_hops=4,
    session_seconds=200.0,
    target_generations=2,
    seed=2008,
)


def fig2_campaign(jobs):
    """Digest of :data:`FIG2` run on ``jobs`` workers (pin ``campaign.fig2``)."""
    return run_campaign(FIG2, policy=ExecutionPolicy(jobs=jobs)).digest()


@pytest.fixture(scope="module")
def serial_campaign():
    return run_campaign(TINY, policy=ExecutionPolicy(jobs=1))


class TestDeterminism:
    def test_parallel_matches_serial_bit_for_bit(self, serial_campaign):
        parallel = run_campaign(TINY, policy=ExecutionPolicy(jobs=4))
        assert parallel.digest() == serial_campaign.digest()
        assert len(parallel.records) == len(serial_campaign.records)

    def test_worker_count_is_irrelevant(self, serial_campaign):
        two = run_campaign(TINY, policy=ExecutionPolicy(jobs=2))
        three = run_campaign(TINY, policy=ExecutionPolicy(jobs=3))
        assert two.digest() == three.digest() == serial_campaign.digest()

    def test_default_policy_matches_explicit_serial(self, serial_campaign):
        assert run_campaign(TINY).digest() == serial_campaign.digest()

    @pytest.mark.parametrize("coding_fidelity", ["flow", "exact"])
    def test_metrics_aggregate_identically(self, coding_fidelity):
        # One scope around the campaign: every layer's metrics (emulator,
        # MAC, decoders, rate control, codec kernels) reach it the same
        # way whether a job ran in this process or on a worker.
        config = replace(
            TINY, sessions=2, target_generations=1, coding_fidelity=coding_fidelity
        )

        def campaign_metrics(jobs):
            with obs.collecting() as registry:
                run_campaign(config, policy=ExecutionPolicy(jobs=jobs))
            return {
                name: record
                for name, record in registry.snapshot().items()
                if not name.startswith(("campaign.wall", "exec."))
            }

        serial, parallel = campaign_metrics(1), campaign_metrics(2)
        assert sorted(serial) == sorted(parallel)
        for name, record in serial.items():
            assert parallel[name] == record, name
        assert serial["optimizer.iterations"]["value"] > 0
        if coding_fidelity == "exact":
            assert serial["decoder.innovative"]["value"] > 0
            assert serial["codec.bytes_processed"]["value"] > 0

    def test_session_rng_depends_only_on_seed_and_index(self):
        a = session_rng(TINY.seed, 3).derive("omnc").random()
        b = session_rng(TINY.seed, 3).derive("omnc").random()
        c = session_rng(TINY.seed, 4).derive("omnc").random()
        assert a == b
        assert a != c

    def test_digest_covers_failures(self, serial_campaign):
        import copy

        mutated = copy.copy(serial_campaign)
        mutated.failures = list(serial_campaign.failures) + [
            CampaignFailure(session_index=99, stage="session", error="X")
        ]
        assert mutated.digest() != serial_campaign.digest()


class TestCampaignCache:
    def test_cache_hit_reproduces_and_counts(self, tmp_path, serial_campaign):
        policy = ExecutionPolicy(jobs=1, cache_dir=str(tmp_path / "cache"))
        first = run_campaign(TINY, policy=policy)
        second = run_campaign(TINY, policy=policy)
        assert first.cache_hits == 0
        assert second.cache_hits == TINY.sessions
        assert (
            first.digest()
            == second.digest()
            == serial_campaign.digest()
        )

    def test_parallel_run_reuses_serial_cache(self, tmp_path, serial_campaign):
        cache_dir = str(tmp_path / "cache")
        run_campaign(TINY, policy=ExecutionPolicy(jobs=1, cache_dir=cache_dir))
        parallel = run_campaign(
            TINY, policy=ExecutionPolicy(jobs=4, cache_dir=cache_dir)
        )
        assert parallel.cache_hits == TINY.sessions
        assert parallel.digest() == serial_campaign.digest()

    def test_session_sweep_reuses_cached_sessions(self, tmp_path):
        """The job hash excludes selection-only knobs like ``sessions``."""
        cache_dir = str(tmp_path / "cache")
        small = run_campaign(
            CampaignConfig(**{**TINY.__dict__, "sessions": 2}),
            policy=ExecutionPolicy(jobs=1, cache_dir=cache_dir),
        )
        assert small.cache_hits == 0
        grown = run_campaign(
            TINY, policy=ExecutionPolicy(jobs=1, cache_dir=cache_dir)
        )
        # The first two sessions are identical draws -> cache hits.
        assert grown.cache_hits == 2

    def test_resume_after_kill_mid_campaign(self, tmp_path, serial_campaign):
        """A campaign killed mid-run resumes from its cache."""
        cache_dir = str(tmp_path / "cache")
        ready = multiprocessing.Event()

        def victim():
            ready.set()
            run_campaign(
                CampaignConfig(**{**TINY.__dict__, "session_seconds": 200.0}),
                policy=ExecutionPolicy(jobs=1, cache_dir=cache_dir),
            )

        process = multiprocessing.Process(target=victim)
        process.start()
        ready.wait(10)
        # Give it time to finish at least one (longer) session, then kill
        # it the hard way mid-campaign.
        deadline = time.monotonic() + 30
        from repro.exec import ResultCache

        while time.monotonic() < deadline and len(ResultCache(cache_dir)) < 1:
            time.sleep(0.05)
        os.kill(process.pid, signal.SIGKILL)
        process.join(10)
        cached_before = len(ResultCache(cache_dir))
        assert 1 <= cached_before < TINY.sessions  # genuinely interrupted

        resumed = run_campaign(
            CampaignConfig(**{**TINY.__dict__, "session_seconds": 200.0}),
            policy=ExecutionPolicy(jobs=1, cache_dir=cache_dir),
        )
        assert resumed.cache_hits == cached_before
        assert len(resumed.records) == TINY.sessions
        assert not resumed.failures


def _explode(_payload):
    raise RuntimeError("poisoned session")


class TestFailureRecording:
    def test_selection_shortfall_is_recorded_not_raised(self):
        # A hop-count band nothing satisfies: every slot becomes a
        # recorded selection failure and the campaign still returns.
        impossible = CampaignConfig(
            node_count=30,
            sessions=3,
            min_hops=29,
            max_hops=30,
            session_seconds=10.0,
            target_generations=1,
            seed=3,
        )
        campaign = run_campaign(impossible)
        assert campaign.records == []
        assert len(campaign.failures) == 3
        assert all(f.stage == "selection" for f in campaign.failures)

    def test_strict_pick_sessions_still_raises(self):
        impossible = CampaignConfig(
            node_count=30,
            sessions=3,
            min_hops=29,
            max_hops=30,
            session_seconds=10.0,
            target_generations=1,
            seed=3,
        )
        _, network = build_network(impossible)
        with pytest.raises(RuntimeError):
            pick_sessions(impossible, network)
        assert pick_sessions(impossible, network, strict=False) == []

    def test_poisoned_job_is_isolated(self, monkeypatch):
        """One failing session is recorded; the rest of the campaign runs."""
        from repro.experiments import common as common_module

        real = common_module.execute_session_job

        def poisoned(job):
            if job.session_index == 1:
                raise RuntimeError("poisoned session")
            return real(job)

        monkeypatch.setattr(common_module, "execute_session_job", poisoned)
        campaign = run_campaign(TINY)  # serial path calls via the module
        assert len(campaign.records) == TINY.sessions - 1
        (failure,) = campaign.failures
        assert failure.stage == "session"
        assert failure.session_index == 1
        assert failure.error == "RuntimeError"
        assert "poisoned" in failure.message

    def test_failed_sessions_surface_in_metrics(self, monkeypatch):
        from repro.experiments import common as common_module

        monkeypatch.setattr(common_module, "execute_session_job", _explode)
        with obs.collecting() as registry:
            campaign = run_campaign(TINY)
        assert campaign.records == []
        assert len(campaign.failures) == TINY.sessions
        snapshot = registry.snapshot()
        assert snapshot["campaign.sessions_failed"]["value"] == TINY.sessions
        assert snapshot["exec.jobs_failed"]["value"] == TINY.sessions


def _memoised_networks(_payload):
    """Probe job: the keys of the network memo in the process that runs it."""
    from repro.experiments import common as common_module

    return sorted(common_module._NETWORK_CACHE)


class TestCampaignNetworkMemo:
    """The driver's network is the jobs' network: one build per campaign."""

    KEY = (TINY.node_count, TINY.quality, TINY.seed)

    @pytest.fixture
    def builds(self, monkeypatch):
        from repro.experiments import common as common_module

        calls = []
        real = common_module.build_network

        def counted(config):
            calls.append(config)
            return real(config)

        monkeypatch.setattr(common_module, "build_network", counted)
        monkeypatch.setattr(common_module, "_NETWORK_CACHE", {})  # cold process
        return calls

    def test_serial_campaign_builds_once(self, builds, serial_campaign):
        from repro.experiments import common as common_module

        campaign = run_campaign(TINY, policy=ExecutionPolicy(jobs=1))
        assert len(builds) == 1
        assert common_module._NETWORK_CACHE[self.KEY] is campaign.network
        assert campaign.digest() == serial_campaign.digest()

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="workers inherit the memo only when forked",
    )
    def test_forked_workers_inherit_the_network(self, builds):
        policy = ExecutionPolicy(jobs=2)
        run_campaign(TINY, policy=policy)
        assert len(builds) == 1  # the parent's; a worker's would not show here
        (probe,) = execute_jobs(
            [JobSpec(key="network-memo-probe", fn=_memoised_networks, payload=None)],
            policy,
        )
        assert probe.value == [self.KEY]

    def test_memo_stays_bounded(self, builds):
        from repro.experiments import common as common_module

        for seed in range(10):
            config = CampaignConfig(**{**TINY.__dict__, "node_count": 12, "seed": seed})
            common_module._campaign_network(config)
            assert len(common_module._NETWORK_CACHE) <= 8
        assert len(builds) == 10


class TestJobShape:
    def test_campaign_jobs_are_stable(self):
        _, network = build_network(TINY)
        sessions = pick_sessions(TINY, network)
        first = [spec.key for spec in campaign_jobs(TINY, sessions)]
        second = [spec.key for spec in campaign_jobs(TINY, sessions)]
        assert first == second
        assert len(set(first)) == len(first)  # distinct jobs

    def test_cache_key_ignores_selection_only_knobs(self):
        base = SessionJob(config=TINY, session_index=0, source=1, destination=2)
        swept = SessionJob(
            config=CampaignConfig(**{**TINY.__dict__, "sessions": 40}),
            session_index=0,
            source=1,
            destination=2,
        )
        assert base.cache_key() == swept.cache_key()

    def test_cache_key_tracks_execution_knobs(self):
        base = SessionJob(config=TINY, session_index=0, source=1, destination=2)
        longer = SessionJob(
            config=CampaignConfig(**{**TINY.__dict__, "session_seconds": 99.0}),
            session_index=0,
            source=1,
            destination=2,
        )
        assert base.cache_key() != longer.cache_key()
