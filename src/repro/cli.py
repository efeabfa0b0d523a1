"""Command-line interface: ``python -m repro <command>``.

A thin front end over the experiment harnesses and the session drivers,
for users who want the paper's numbers without writing Python:

* ``fig1`` / ``fig2`` / ``fig3`` / ``fig4`` — regenerate a figure;
* ``fig5`` / ``fig6`` / ``fig7`` — the extensions (re-planning under
  drift, concurrent unicasts, finite-length generation sizing);
* ``coding-speed`` / ``convergence`` — the two numeric claims;
* ``session`` — plan and emulate one session of a chosen protocol;
* ``multisession`` — plan and emulate N concurrent unicast sessions;
* ``topology`` — generate and save a topology for later reuse;
* ``check`` — the static analyzer: per-file determinism rules and the
  whole-program architecture contract (RPR001-RPR104).

Each figure and claim command is its experiment module's ``run_*``
function followed by its ``report``; the options and defaults live here
and nowhere else.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from typing import Any, Callable, List, Optional

from repro import obs
from repro.analysis import checker as analysis_checker
from repro.exec import add_execution_arguments, policy_from_args
from repro.emulator.session import SessionConfig, run_coded_session
from repro.emulator.trace import SessionTracer
from repro.optimization.sunicast import InfeasibleSessionError
from repro.protocols.etx_routing import plan_etx_route
from repro.protocols.more import plan_more
from repro.protocols.oldmore import plan_oldmore
from repro.protocols.omnc import plan_omnc
from repro.routing.node_selection import NodeSelectionError
from repro.topology.graph import WirelessNetwork
from repro.topology.random_network import random_network
from repro.topology.phy import high_quality_phy, lossy_phy
from repro.topology.serialization import load_network, save_network
from repro.util.rng import RngFactory


def _checked(build: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """``build(*args, **kwargs)``, with the ``ValueError`` it raises on a
    bad option value turned into a usage error: the one path from an
    option to ``repro <command>: error: …`` and exit 2.  Call it before
    any work, so a bad value is reported before anything runs."""
    try:
        return build(*args, **kwargs)
    except ValueError as error:
        raise argparse.ArgumentError(None, str(error)) from error


def _load_topology(path: str) -> WirelessNetwork:
    """``load_network(path)``, with a file that cannot be read or is not
    a topology turned into a usage error naming the path."""
    try:
        return load_network(path)
    except OSError as error:
        raise argparse.ArgumentError(None, f"--topology {path}: {error.strerror}") from error
    except ValueError as error:
        raise argparse.ArgumentError(
            None, f"--topology {path}: not a topology file ({error})"
        ) from error


def _check_trace_path(path: str) -> None:
    """Refuse, before any work runs, a ``--trace`` path no file can be
    written to."""
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(folder, os.W_OK):
        raise argparse.ArgumentError(None, f"--trace {path}: cannot write a file there")


def _cmd_fig1(_args: argparse.Namespace) -> int:
    from repro.experiments import fig1_convergence

    fig1_convergence.report(fig1_convergence.run_fig1())
    return 0


def _cmd_fig2(args: argparse.Namespace) -> int:
    from repro.experiments import fig2_throughput
    from repro.experiments.common import CampaignConfig

    config = _checked(
        CampaignConfig.from_environment,
        quality=args.quality,
        sessions=args.sessions,
    )
    policy = _checked(policy_from_args, args)
    fig2_throughput.report(
        fig2_throughput.run_fig2(args.quality, config, policy=policy)
    )
    return 0


def _cmd_fig3(args: argparse.Namespace) -> int:
    from repro.experiments import fig3_queue

    policy = _checked(policy_from_args, args)
    fig3_queue.report(fig3_queue.run_fig3(policy=policy))
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    from repro.experiments import fig4_utility

    policy = _checked(policy_from_args, args)
    fig4_utility.report(fig4_utility.run_fig4(policy=policy))
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    from repro.experiments import fig5_adaptation as fig5

    policy = _checked(policy_from_args, args)
    config = fig5.Fig5Config.smoke() if args.smoke else fig5.Fig5Config()
    fig5.report(fig5.run_fig5(config, policy=policy))
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    from repro.experiments import fig6_multisession as fig6

    policy = _checked(policy_from_args, args)
    config = fig6.Fig6Config.smoke() if args.smoke else fig6.Fig6Config()
    fig6.report(fig6.run_fig6(config, policy=policy))
    return 0


def _cmd_fig7(args: argparse.Namespace) -> int:
    from repro.experiments import fig7_finite_length as fig7

    policy = _checked(policy_from_args, args)
    config = fig7.Fig7Config.smoke() if args.smoke else fig7.Fig7Config()
    fig7.report(fig7.run_fig7(config, policy=policy))
    return 0


def _cmd_coding_speed(_args: argparse.Namespace) -> int:
    from repro.experiments import coding_speed

    coding_speed.report(coding_speed.run_coding_speed())
    return 0


def _cmd_convergence(args: argparse.Namespace) -> int:
    from repro.experiments import convergence_stats

    policy = _checked(policy_from_args, args)
    convergence_stats.report(
        convergence_stats.run_convergence_stats(policy=policy)
    )
    return 0


def _cmd_topology(args: argparse.Namespace) -> int:
    rng = _checked(RngFactory, args.seed)
    phy_factory = high_quality_phy if args.quality == "high" else lossy_phy
    network = _checked(
        random_network,
        args.nodes,
        phy=phy_factory(rng=rng.derive("phy")),
        rng=rng.derive("topology"),
    )
    save_network(network, args.output)
    print(
        f"saved {network.node_count}-node network "
        f"({network.link_count()} links, "
        f"avg quality {network.average_link_probability():.2f}) to {args.output}"
    )
    return 0


def _format_metric(record: dict) -> str:
    if record["kind"] == "histogram":
        if record["count"] == 0:
            return "histogram (empty)"
        return (
            f"count {record['count']}, mean {record['mean']:.3g}, "
            f"p50 {record['p50']:.3g}, p99 {record['p99']:.3g}"
        )
    return f"{record['value']:.6g}"


def _print_metrics(collected: "obs.MetricsRegistry") -> None:
    print("metrics:")
    for name, record in collected.snapshot().items():
        print(f"  {name:32s} {_format_metric(record)}")


def _fold_coding(
    config: SessionConfig, network, plan, coding: str
) -> SessionConfig:
    """Fold a one-shot ``--coding`` decision into the session config.

    Static runs (and unicast plans, which code nothing) pass through
    unchanged; adaptive/systematic runs get the controller's initial
    decision — the same one a scenario run would start from.
    """
    from dataclasses import replace

    from repro.protocols.adaptive import make_coding_controller

    controller = make_coding_controller(
        coding, blocks=config.blocks, block_size=config.block_size
    )
    if controller is None:
        return config
    decision = controller.decide(network, plan)
    if decision is None:
        return config
    return replace(
        config, blocks=decision.blocks, systematic=decision.systematic
    )


def _cmd_session(args: argparse.Namespace) -> int:
    config = _checked(
        SessionConfig,
        max_seconds=args.seconds,
        target_generations=args.generations,
        blocks=args.blocks,
    )
    if args.trace:
        _check_trace_path(args.trace)
    rng = _checked(RngFactory, args.seed)
    if args.scenario:
        from repro.scenario import load_scenario, make_policy

        spec = _checked(
            load_scenario,
            args.scenario,
            duration=args.seconds,
            epoch_seconds=min(args.epoch_seconds, args.seconds),
        )
        replan_policy = _checked(make_policy, args.policy)
    if args.topology:
        network = _load_topology(args.topology)
    else:
        network = _checked(
            random_network,
            args.nodes,
            phy=lossy_phy(rng=rng.derive("phy")),
            rng=rng.derive("topology"),
        )
    tracer = SessionTracer() if args.trace else None
    source, destination = args.source, args.destination
    adaptive = None
    # --metrics collects from every layer (engine, MAC, decoder, codec
    # kernels) for the run, without per-call plumbing.
    with obs.collecting() if args.metrics else nullcontext() as registry:
        if args.scenario:
            from repro.protocols.adaptive import (
                make_coding_controller,
                make_planner,
            )
            from repro.scenario import run_adaptive_session

            adaptive = run_adaptive_session(
                network,
                make_planner(args.protocol, source, destination),
                replan_policy,
                spec,
                config=config,
                rng=rng.spawn("session"),
                tracer=tracer,
                coding_controller=make_coding_controller(
                    args.coding,
                    blocks=config.blocks,
                    block_size=config.block_size,
                ),
            )
            result = adaptive.session
        else:
            planners = {
                "omnc": plan_omnc,
                "more": plan_more,
                "oldmore": plan_oldmore,
                "etx": plan_etx_route,
            }
            plan = planners[args.protocol](network, source, destination)
            if args.protocol != "etx":
                config = _fold_coding(config, network, plan, args.coding)
            result = run_coded_session(
                network,
                plan,
                config=config,
                rng=rng.spawn("session"),
                protocol_label=args.protocol,
                tracer=tracer,
            )
    print(f"{args.protocol} session {source} -> {destination}:")
    print(f"  throughput:  {result.throughput_bps:.0f} B/s")
    print(f"  duration:    {result.duration:.1f} s emulated")
    if result.generations_decoded:
        print(f"  generations: {result.generations_decoded} decoded")
    else:
        print(f"  packets:     {result.packets_delivered} delivered")
    print(f"  mean queue:  {result.mean_queue():.2f} packets")
    if args.coding != "static" and args.protocol != "etx":
        if args.scenario:
            print(f"  coding:      {args.coding} (per-epoch controller)")
        else:
            flag = ", systematic" if config.systematic else ""
            print(f"  coding:      {args.coding} (n={config.blocks}{flag})")
    if adaptive is not None:
        print(
            f"  scenario:    {adaptive.scenario} "
            f"({adaptive.policy} policy)"
        )
        print(
            f"  replans:     {adaptive.replans} "
            f"({adaptive.replan_seconds:.1f} s control overhead)"
        )
        if any(adaptive.planner_iterations):
            iters = ",".join(str(i) for i in adaptive.planner_iterations)
            print(f"  rc iters:    {iters}")
    if tracer is not None:
        lines = tracer.to_jsonl(args.trace)
        print(f"  trace:       {lines} events -> {args.trace}")
    if registry is not None:
        _print_metrics(registry)
    return 0


def _cmd_multisession(args: argparse.Namespace) -> int:
    from repro.emulator.multisession import (
        multi_session_digest,
        run_multi_session,
    )
    from repro.experiments.fig6_multisession import fig6_endpoints
    from repro.protocols.intersession import plan_intersession_pairs
    from repro.protocols.omnc import plan_omnc_multi
    from repro.scenario.spec import ScenarioEvent, ScenarioSpec

    if args.sessions < 1:
        raise argparse.ArgumentError(None, "--sessions must be >= 1")
    if args.churn and args.sessions < 2:
        raise argparse.ArgumentError(None, "--churn needs --sessions >= 2")
    config = _checked(
        SessionConfig,
        max_seconds=args.seconds,
        target_generations=args.generations,
        blocks=args.blocks,
        block_size=args.block_size,
    )
    rng = _checked(RngFactory, args.seed)
    if args.topology:
        network = _load_topology(args.topology)
    else:
        network = _checked(
            random_network,
            args.nodes,
            neighbors_per_node=args.density,
            rng=rng.derive("topology"),
        )
    endpoints = fig6_endpoints(network, args.sessions, layout=args.layout)
    session_ids = list(range(1, args.sessions + 1))
    if args.protocol == "omnc":
        plans = dict(
            plan_omnc_multi(
                network,
                {sid: endpoints[sid - 1] for sid in session_ids},
            ).plans
        )
    else:
        plans = {
            sid: plan_more(network, *endpoints[sid - 1])
            for sid in session_ids
        }
    xor_pairs = plan_intersession_pairs(plans) if args.xor else None
    scenario = None
    if args.churn:
        # The newest session arrives a third of the way in; the first
        # session departs at two thirds.
        scenario = ScenarioSpec(
            name="churn",
            duration=args.seconds,
            epoch_seconds=args.seconds,
            events=(
                ScenarioEvent(
                    at=args.seconds / 3,
                    kind="session_arrive",
                    session_id=session_ids[-1],
                ),
                ScenarioEvent(
                    at=2 * args.seconds / 3,
                    kind="session_depart",
                    session_id=session_ids[0],
                ),
            ),
        )
    outcome = run_multi_session(
        network,
        plans,
        config=config,
        rng=rng.spawn("multisession"),
        xor_pairs=xor_pairs,
        scenario=scenario,
        protocol_label=args.protocol,
    )
    print(
        f"{args.protocol} x{args.sessions} sessions on "
        f"{network.node_count} nodes:"
    )
    for sid in sorted(outcome.sessions):
        result = outcome.sessions[sid]
        print(
            f"  session {sid}: {result.source} -> {result.destination}  "
            f"{result.throughput_bps:8.0f} B/s  "
            f"{result.generations_decoded} generations"
        )
    print(f"  duration:    {outcome.duration:.1f} s emulated")
    print(f"  aggregate:   {outcome.aggregate_throughput_bps:.0f} B/s")
    print(f"  fairness:    {outcome.fairness:.4f} (Jain)")
    print(f"  airtime:     {outcome.transmissions} transmissions")
    if args.xor:
        print(f"  xor slots:   {outcome.xor_transmissions}")
    if scenario is not None:
        arrivals = ", ".join(
            f"{sid}@{at:.1f}s" for at, sid in outcome.arrivals
        )
        departures = ", ".join(
            f"{sid}@{at:.1f}s" for at, sid in outcome.departures
        )
        print(f"  arrivals:    {arrivals or 'none'}")
        print(f"  departures:  {departures or 'none'}")
    print(f"  digest:      {multi_session_digest(outcome)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OMNC (ICDCS 2008) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("fig1", help="Fig. 1: rate-control convergence").set_defaults(
        func=_cmd_fig1
    )
    fig2 = sub.add_parser("fig2", help="Fig. 2: throughput gains")
    fig2.add_argument("--quality", choices=("lossy", "high"), default="lossy")
    fig2.add_argument("--sessions", type=int, default=10)
    add_execution_arguments(fig2)
    fig2.set_defaults(func=_cmd_fig2)
    fig3 = sub.add_parser("fig3", help="Fig. 3: queue sizes")
    add_execution_arguments(fig3)
    fig3.set_defaults(func=_cmd_fig3)
    fig4 = sub.add_parser("fig4", help="Fig. 4: utility ratios")
    add_execution_arguments(fig4)
    fig4.set_defaults(func=_cmd_fig4)
    fig5 = sub.add_parser(
        "fig5", help="Fig. 5 (extension): re-planning under drift/failure"
    )
    fig5.add_argument(
        "--smoke", action="store_true", help="CI-sized run (~1 s)"
    )
    add_execution_arguments(fig5)
    fig5.set_defaults(func=_cmd_fig5)
    fig6 = sub.add_parser(
        "fig6",
        help="Fig. 6 (extension): concurrent unicasts, fairness, XOR relay",
    )
    fig6.add_argument(
        "--smoke", action="store_true", help="CI-sized run (~seconds)"
    )
    add_execution_arguments(fig6)
    fig6.set_defaults(func=_cmd_fig6)
    fig7 = sub.add_parser(
        "fig7",
        help="Fig. 7 (extension): finite-length generation sizing and "
        "systematic coding",
    )
    fig7.add_argument(
        "--smoke", action="store_true", help="CI-sized run (~seconds)"
    )
    add_execution_arguments(fig7)
    fig7.set_defaults(func=_cmd_fig7)
    sub.add_parser(
        "coding-speed", help="accelerated vs baseline codec"
    ).set_defaults(func=_cmd_coding_speed)
    convergence = sub.add_parser(
        "convergence", help="iteration statistics vs the paper's 91"
    )
    add_execution_arguments(convergence)
    convergence.set_defaults(func=_cmd_convergence)

    topology = sub.add_parser("topology", help="generate and save a topology")
    topology.add_argument("output")
    topology.add_argument("--nodes", type=int, default=120)
    topology.add_argument("--quality", choices=("lossy", "high"), default="lossy")
    topology.add_argument("--seed", type=int, default=2008)
    topology.set_defaults(func=_cmd_topology)

    session = sub.add_parser("session", help="plan + emulate one session")
    session.add_argument("protocol", choices=("omnc", "more", "oldmore", "etx"))
    session.add_argument("source", type=int)
    session.add_argument("destination", type=int)
    session.add_argument("--topology", help="JSON topology file (else random)")
    session.add_argument("--nodes", type=int, default=120)
    session.add_argument("--seconds", type=float, default=120.0)
    session.add_argument("--generations", type=int, default=4)
    session.add_argument("--seed", type=int, default=2008)
    session.add_argument(
        "--blocks", type=int, default=40,
        help="packets per generation (default 40, the paper's n; "
        "<= 255 over GF(2^8))",
    )
    session.add_argument(
        "--coding",
        choices=("static", "adaptive", "systematic"),
        default="static",
        help="generation sizing: static = the configured --blocks; "
        "adaptive = solve the finite-length model for n from observed "
        "link loss (re-solved per epoch under --scenario); systematic = "
        "keep --blocks but emit plain blocks before dense repair "
        "(decode-cost optimization, exact coding fidelity only)",
    )
    session.add_argument(
        "--metrics",
        action="store_true",
        help="collect and print observability metrics for the run",
    )
    session.add_argument(
        "--trace",
        metavar="PATH",
        help="export per-slot emulation events as JSON lines to PATH",
    )
    session.add_argument(
        "--scenario",
        help="run live under a scenario: builtin name ('calm', 'drift') "
        "or JSON spec path",
    )
    session.add_argument(
        "--policy",
        default="drift",
        help="re-planning policy: oblivious | periodic[:k] | drift[:threshold] "
        "(default drift)",
    )
    session.add_argument(
        "--epoch-seconds",
        type=float,
        default=10.0,
        help="control-plane observation interval for --scenario (default 10)",
    )
    session.set_defaults(func=_cmd_session)

    multisession = sub.add_parser(
        "multisession", help="plan + emulate N concurrent unicast sessions"
    )
    multisession.add_argument(
        "--sessions", type=int, default=3, metavar="N",
        help="number of concurrent unicast sessions (default 3)",
    )
    multisession.add_argument(
        "--protocol",
        choices=("omnc", "more"),
        default="omnc",
        help="omnc = joint proportional-fair planning; more = per-flow "
        "MORE heuristics (default omnc)",
    )
    multisession.add_argument(
        "--topology", help="JSON topology file (else random)"
    )
    multisession.add_argument("--nodes", type=int, default=24)
    multisession.add_argument(
        "--density", type=float, default=9.0,
        help="average in-range neighbors for the random topology "
        "(default 9)",
    )
    multisession.add_argument("--seconds", type=float, default=30.0)
    multisession.add_argument(
        "--generations", type=int, default=0,
        help="stop once every session decodes this many generations "
        "(0 = run the full --seconds; default 0)",
    )
    multisession.add_argument("--seed", type=int, default=2008)
    multisession.add_argument(
        "--blocks", type=int, default=8,
        help="packets per generation (default 8 — deliberately below the "
        "paper's n = 40: the quick-run default keeps short contended "
        "multi-session runs decoding whole generations; pass "
        "--blocks 40 for paper-scale sizing)",
    )
    multisession.add_argument(
        "--block-size", type=int, default=256,
        help="payload bytes per packet (default 256)",
    )
    multisession.add_argument(
        "--layout",
        choices=("disjoint", "opposing"),
        default="disjoint",
        help="endpoint layout: disjoint = node-disjoint pairs (default); "
        "opposing = consecutive sessions share endpoints in opposite "
        "directions, so --xor finds COPE-style coding opportunities on "
        "the random mesh",
    )
    multisession.add_argument(
        "--xor",
        action="store_true",
        help="enable inter-session XOR relaying at eligible shared relays",
    )
    multisession.add_argument(
        "--churn",
        action="store_true",
        help="exercise session churn: the last session arrives at 1/3 of "
        "the run, the first departs at 2/3",
    )
    multisession.set_defaults(func=_cmd_multisession)

    check = sub.add_parser(
        "check",
        help="static analysis: determinism rules and the architecture "
        "contract (RPR001-RPR104)",
    )
    analysis_checker.configure_parser(check)
    check.set_defaults(func=analysis_checker.run)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        argparse.ArgumentError,
        NodeSelectionError,
        InfeasibleSessionError,
    ) as error:
        # An option value a constructor refuses, or a request that cannot
        # be planned on this topology: the user's input, not a defect, so
        # no traceback.
        print(f"repro {args.command}: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
