"""The command-line interface."""

import argparse
import os
import pkgutil

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in (
            ["fig1"],
            ["fig2"],
            ["fig3"],
            ["fig4"],
            ["fig5"],
            ["fig5", "--smoke"],
            ["coding-speed"],
            ["convergence"],
            ["topology", "out.json"],
            ["session", "omnc", "0", "1"],
            ["session", "omnc", "0", "1", "--scenario", "drift"],
        ):
            args = parser.parse_args(command)
            assert callable(args.func)

    def test_every_experiment_module_has_a_command(self):
        import repro.experiments

        commands = {
            "fig1_convergence": "fig1",
            "fig2_throughput": "fig2",
            "fig3_queue": "fig3",
            "fig4_utility": "fig4",
            "fig5_adaptation": "fig5",
            "fig6_multisession": "fig6",
            "fig7_finite_length": "fig7",
            "coding_speed": "coding-speed",
            "convergence_stats": "convergence",
        }
        modules = {
            module.name
            for module in pkgutil.iter_modules(repro.experiments.__path__)
        }
        assert modules - {"common"} == set(commands)
        (subcommands,) = (
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert set(commands.values()) <= set(subcommands.choices)

    def test_fig2_options(self):
        args = build_parser().parse_args(["fig2", "--quality", "high", "--sessions", "3"])
        assert args.quality == "high"
        assert args.sessions == 3

    def test_session_protocol_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["session", "teleport", "0", "1"])

    def test_session_scenario_defaults(self):
        args = build_parser().parse_args(["session", "omnc", "0", "1"])
        assert args.scenario is None
        assert args.policy == "drift"
        assert args.epoch_seconds == 10.0

    def test_session_scenario_options(self):
        args = build_parser().parse_args(
            [
                "session", "more", "0", "1",
                "--scenario", "calm",
                "--policy", "periodic:3",
                "--epoch-seconds", "5",
            ]
        )
        assert args.scenario == "calm"
        assert args.policy == "periodic:3"
        assert args.epoch_seconds == 5.0


class TestExecutionFlags:
    def test_campaign_commands_expose_execution_flags(self):
        parser = build_parser()
        for command in ("fig2", "fig3", "fig4", "fig5", "convergence"):
            args = parser.parse_args([command, "--jobs", "4"])
            assert args.jobs == 4
            assert args.cache_dir is None
            assert args.resume is False
            assert args.fresh is False
            assert args.job_timeout is None
            assert args.job_retries == 1

    def test_policy_from_args_maps_flags(self):
        from repro.exec import DEFAULT_CACHE_DIR, policy_from_args

        args = build_parser().parse_args(
            [
                "fig2", "--jobs", "3",
                "--cache-dir", "/tmp/c",
                "--job-timeout", "5",
                "--job-retries", "2",
            ]
        )
        policy = policy_from_args(args)
        assert policy.jobs == 3
        assert policy.cache_dir == "/tmp/c"
        assert policy.resume is True
        assert policy.job_timeout == 5.0
        assert policy.retries == 2

        resumed = policy_from_args(build_parser().parse_args(["fig3", "--resume"]))
        assert resumed.cache_dir == DEFAULT_CACHE_DIR

        fresh = policy_from_args(
            build_parser().parse_args(["fig4", "--cache-dir", "/tmp/c", "--fresh"])
        )
        assert fresh.resume is False
        assert fresh.cache_dir == "/tmp/c"

    def test_fig2_parallel_run(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["fig2", "--sessions", "2", "--jobs", "2"])
        assert code == 0
        assert "mean throughput gain" in capsys.readouterr().out


class TestCommands:
    def test_topology_generation(self, tmp_path, capsys):
        path = tmp_path / "net.json"
        code = main(["topology", str(path), "--nodes", "30", "--seed", "5"])
        assert code == 0
        assert path.exists()
        assert "30-node network" in capsys.readouterr().out

    def test_session_on_saved_topology(self, tmp_path, capsys):
        path = tmp_path / "net.json"
        main(["topology", str(path), "--nodes", "50", "--seed", "5"])
        # Find a feasible pair on the saved topology first.
        from repro.topology.serialization import load_network
        from repro.routing.node_selection import NodeSelectionError, select_forwarders

        network = load_network(path)
        pair = None
        for s in range(network.node_count):
            for t in range(network.node_count - 1, -1, -1):
                if s == t:
                    continue
                try:
                    select_forwarders(network, s, t)
                    pair = (s, t)
                    break
                except NodeSelectionError:
                    continue
            if pair:
                break
        assert pair is not None
        code = main([
            "session", "omnc", str(pair[0]), str(pair[1]),
            "--topology", str(path),
            "--seconds", "40", "--generations", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out

    def test_etx_session_random_topology(self, capsys):
        # ETX on a random topology; endpoints chosen to be connected on
        # the default seed (falls back cleanly if planning fails).
        from repro.topology.random_network import random_network
        from repro.topology.phy import lossy_phy
        from repro.util.rng import RngFactory
        from repro.protocols.etx_routing import plan_etx_route
        from repro.routing.node_selection import NodeSelectionError

        rng = RngFactory(2008)
        network = random_network(
            60, phy=lossy_phy(rng=rng.derive("phy")), rng=rng.derive("topology")
        )
        pair = None
        for s in range(network.node_count):
            for t in range(network.node_count):
                if s == t:
                    continue
                try:
                    plan_etx_route(network, s, t)
                    pair = (s, t)
                    break
                except NodeSelectionError:
                    continue
            if pair:
                break
        assert pair is not None
        code = main([
            "session", "etx", str(pair[0]), str(pair[1]),
            "--nodes", "60", "--seconds", "30", "--seed", "2008",
        ])
        assert code == 0
        assert "packets" in capsys.readouterr().out

    def test_scenario_session(self, capsys):
        # Live control plane through the CLI: ETX under the builtin
        # drift scenario with a drift-triggered policy.
        from repro.topology.random_network import random_network
        from repro.topology.phy import lossy_phy
        from repro.util.rng import RngFactory
        from repro.protocols.etx_routing import plan_etx_route
        from repro.routing.node_selection import NodeSelectionError

        rng = RngFactory(2008)
        network = random_network(
            60, phy=lossy_phy(rng=rng.derive("phy")), rng=rng.derive("topology")
        )
        pair = None
        for s in range(network.node_count):
            for t in range(network.node_count):
                if s == t:
                    continue
                try:
                    plan_etx_route(network, s, t)
                    pair = (s, t)
                    break
                except NodeSelectionError:
                    continue
            if pair:
                break
        assert pair is not None
        code = main([
            "session", "etx", str(pair[0]), str(pair[1]),
            "--nodes", "60", "--seconds", "30", "--seed", "2008",
            "--scenario", "drift", "--policy", "drift:0.001",
            "--epoch-seconds", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario:" in out
        assert "replans:" in out


@pytest.mark.parametrize(
    "command",
    [["session", "omnc", "0", "39", "--nodes", "40"], ["multisession"], ["fig7", "--smoke"]],
    ids=["session", "multisession", "fig7"],
)
def test_shards_is_a_usage_error(command, capsys):
    # Every session runs in one process: there is no process count to pick.
    with pytest.raises(SystemExit) as usage:
        main([*command, "--shards", "2"])
    assert usage.value.code == 2
    assert "unrecognized arguments: --shards 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["session", "omnc", "0", "39", "--nodes", "40"], ["fig3"]], ids=["session", "fig3"]
)
def test_gf_backend_is_a_usage_error(command, capsys):
    # The codec runs on the compiled field wherever it loads: there is no
    # field to pick.
    with pytest.raises(SystemExit) as usage:
        main([*command, "--gf-backend", "numpy"])
    assert usage.value.code == 2
    assert "unrecognized arguments: --gf-backend numpy" in capsys.readouterr().err


class TestDomainErrors:
    """An unplannable request is the user's input: one line, exit 2."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["session", "omnc", "3", "41", "--nodes", "60", "--seed", "3"],
                "repro session: error: destination 41 unreachable from source 3\n",
            ),
            (
                ["multisession", "--sessions", "8", "--nodes", "12", "--seed", "1"],
                "repro multisession: error: only 6 disjoint feasible sessions on "
                "the experiment network, needed 8\n",
            ),
        ],
        ids=["session", "multisession"],
    )
    def test_no_traceback_for_an_unplannable_request(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == message
        assert captured.out == ""


SESSION = ["session", "omnc", "0", "7", "--nodes", "30"]


class TestUsageErrors:
    """An option value a constructor refuses is a usage error: one line, exit 2."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fig2", "--sessions", "0"], "sessions must be >= 1"),
            (["fig3", "--jobs", "0"], "jobs must be >= 1, got 0"),
            (["fig4", "--job-retries", "-1"], "retries must be >= 0, got -1"),
            (["fig5", "--smoke", "--job-timeout", "0"], "job_timeout must be > 0, got 0.0"),
            (
                ["session", "omnc", "0", "39", "--nodes", "40", "--blocks", "0"],
                "blocks and block_size must be > 0",
            ),
            (["multisession", "--sessions", "0"], "--sessions must be >= 1"),
            (
                ["session", "omnc", "0", "7", "--nodes", "30", "--seconds", "20",
                 "--scenario", "drift", "--epoch-seconds", "0"],
                "epoch_seconds must be in (0, duration], got 0.0",
            ),
            (["session", "omnc", "0", "7", "--nodes", "0"], "node_count must be > 0, got 0"),
            (
                ["session", "omnc", "0", "7", "--nodes", "30", "--seed", "-1"],
                "seed must be >= 0, got -1",
            ),
            (
                ["session", "omnc", "0", "7", "--nodes", "30", "--seconds", "20",
                 "--scenario", "drift", "--policy", "periodic:0"],
                "every must be >= 1, got 0",
            ),
            (["multisession", "--nodes", "0"], "node_count must be > 0, got 0"),
            (["topology", "net.json", "--nodes", "0"], "node_count must be > 0, got 0"),
            (SESSION + ["--seconds", "nan"], "max_seconds must be finite, got nan"),
            (["multisession", "--seconds", "inf"], "max_seconds must be finite, got inf"),
            (SESSION + ["--topology", "no.json"], "--topology no.json: No such file or directory"),
            (
                ["multisession", "--topology", os.devnull],
                f"--topology {os.devnull}: not a topology file "
                "(Expecting value: line 1 column 1 (char 0))",
            ),
            (
                SESSION + ["--trace", "no/such/dir/x.jsonl"],
                "--trace no/such/dir/x.jsonl: cannot write a file there",
            ),
        ],
        ids=["fig2-sessions", "fig3-jobs", "fig4-retries", "fig5-timeout",
             "session-blocks", "multisession-sessions", "session-epoch-seconds",
             "session-nodes", "session-seed", "session-policy", "multisession-nodes",
             "topology-nodes", "session-seconds-nan", "multisession-seconds-inf",
             "session-topology-missing", "multisession-topology-not-json",
             "session-trace-unwritable"],
    )
    def test_bad_numeric_option(self, argv, message, capsys, tmp_path, monkeypatch):
        # Each used to end in a traceback from a config constructor,
        # generator or file read, or to exit 1 (multisession's bare
        # SystemExit strings); --trace failed only
        # after the whole run.
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"repro {argv[0]}: error: {message}\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []  # nothing written


class TestImportHygiene:
    """The LP solver and the graph exporter load their libraries on use."""

    _SCRIPT = """
import sys
import repro.cli, repro.emulator, repro.protocols, repro.scenario
import repro.experiments.common
loaded = [name for name in ("scipy", "networkx") if name in sys.modules]
assert not loaded, loaded

from repro.optimization.problem import session_graph_from_network
from repro.optimization.sunicast import solve_sunicast
from repro.topology.random_network import chain_topology
network = chain_topology((0.5, 0.5, 0.5))
solution = solve_sunicast(session_graph_from_network(network, 0, 3))
assert 0.0 < solution.throughput < 0.5
assert network.to_networkx(weight="etx").number_of_edges() > 0
assert "scipy" in sys.modules and "networkx" in sys.modules
"""

    # A one-session, four-protocol campaign; then, at jobs=2, a probe job
    # that plans oldMORE on a worker forked after the campaign's own.
    _CAMPAIGN_SCRIPT = """
import sys
from repro.exec import ExecutionPolicy, JobSpec, execute_jobs
from repro.experiments.common import CampaignConfig, build_network, run_campaign

JOBS = int(sys.argv[1])
CONFIG = CampaignConfig(
    node_count=40, sessions=1, min_hops=2, max_hops=6,
    session_seconds=20.0, target_generations=2, seed=7,
)


def plan_on_worker(endpoints):
    from repro.protocols.oldmore import plan_oldmore
    plan_oldmore(build_network(CONFIG)[1], *endpoints)
    return "scipy" in sys.modules


campaign = run_campaign(CONFIG, policy=ExecutionPolicy(jobs=JOBS))
(record,) = campaign.records
assert set(record.results) == {"etx", "omnc", "more", "oldmore"}
assert "scipy" not in sys.modules
if JOBS > 1:
    (probe,) = execute_jobs(
        [JobSpec(
            key="scipy-probe", fn=plan_on_worker,
            payload=(record.source, record.destination),
        )],
        ExecutionPolicy(jobs=JOBS),
    )
    assert probe.value is False, probe
"""

    @staticmethod
    def _run(script, *argv):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src, *filter(None, [env.get("PYTHONPATH")])]
        )
        done = subprocess.run(
            [sys.executable, "-c", script, *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr

    def test_scipy_and_networkx_load_on_first_use_only(self):
        self._run(self._SCRIPT)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_campaign_never_loads_scipy(self, jobs):
        self._run(self._CAMPAIGN_SCRIPT, str(jobs))
