"""Every pinned value of the test suite, in one table (DESIGN.md §3.3).

Each :class:`Pin` names its producer, an importable ``"module:function"``
that recomputes the value from a variant's keyword arguments only; the
committed value; and the variants it must hold at (a ``form`` runs it
under :func:`core_form`, a ``loop`` under :func:`table1_loop`).  ``tests/test_pins.py`` checks each (pin,
variant).  To move a pin on purpose, from the root::

    PYTHONPATH=src python -m tests.pins record NAME [NAME ...]

It refuses, naming them, when the variants disagree; otherwise it
rewrites only those entries here and prints ``name: old -> new``.
"""

import ast
import json
import sys
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from typing import Any
from unittest import mock

from repro.coding.backends import available_backends
from repro.emulator import engine
from repro.optimization import native, rate_control
from repro.optimization.rate_control import RateControlLoop


@contextmanager
def core_form(form):
    """Build the block's cores in ``form``: ``"scalar"`` (the compiled slot
    loop withheld, so every core is scalar) or ``"compiled"`` (every core
    :func:`engine.compilable` admits on the compiled slot loop, the rest
    scalar), which fails unless the kernel was called.  A forked worker's
    cores go unchecked."""
    kernel = engine.compiled_kernel() if form == "compiled" else None
    calls = []

    def counted(*arguments):
        calls.append(arguments[1])
        return kernel.run(*arguments)

    forced = kernel and kernel._replace(run=counted)
    with mock.patch.object(engine, "compiled_kernel", return_value=forced):
        yield
    assert form == "scalar" or calls, f"core form {form}: the kernel was never called"


@contextmanager
def table1_loop(loop):
    """Run the block's Table 1 loops on ``loop``: ``"python"`` (the kernel
    withheld, so re-plan floods run in Python too) or ``"compiled"``; fail
    unless that path ran, and for ``"python"`` unless it alone did and no
    flood ran compiled."""
    paths = ("python", "compiled")
    with ExitStack() as stack:
        if loop == "python":
            stack.enter_context(mock.patch.object(rate_control, "compiled_kernel", return_value=None))
        spies = {
            path: stack.enter_context(mock.patch.object(
                RateControlLoop, f"_converge_{path}", autospec=True,
                side_effect=getattr(RateControlLoop, f"_converge_{path}"),
            ))
            for path in paths
        }
        flood = stack.enter_context(mock.patch.object(
            native, "broadcast_costs", side_effect=native.broadcast_costs
        ))
        yield
    ran = {**{path: spy.called for path, spy in spies.items()}, "compiled flood": flood.called}
    assert ran[loop] and (loop == "compiled" or not (ran["compiled"] or ran["compiled flood"])), (
        f"table1 loop {loop}: paths ran: {ran}"
    )


@dataclass(frozen=True)
class Pin:
    name: str
    producer: str
    value: Any
    variants: tuple = ({},)

    def produce(self, variant):
        module, function = self.producer.split(":")
        arguments = dict(variant)
        with ExitStack() as stack:
            if "form" in variant:
                stack.enter_context(core_form(arguments.pop("form")))
            if "loop" in variant:
                stack.enter_context(table1_loop(arguments.pop("loop")))
            return getattr(import_module(module), function)(**arguments)


def variant_id(variant):
    return "-".join(f"{key}={value}" for key, value in variant.items())


#: The relay lines, run in this process.
ONE_SHARD = ({"shards": 1},)
#: A campaign run serially and on two exec-pool workers.
JOBS_12 = ({"jobs": 1}, {"jobs": 2})
#: Every GF(2^8) field engine this machine has.
FIELDS = tuple({"field": name} for name in available_backends())
#: The compiled slot loop, where its kernel loads.
COMPILED = ({"form": "compiled"},) if engine.compiled_kernel() else ()
#: Both Table 1 loops, the compiled one where its kernel loads.
LOOPS = ({"loop": "python"},) + (
    ({"loop": "compiled"},) if rate_control.compiled_kernel() else ()
)


def bench_smoke(workload):
    """``bench/run.py --smoke``'s result digest of ``workload`` at its default seed."""
    if (bench := str(Path(__file__).resolve().parents[1] / "bench")) not in sys.path:
        sys.path.append(bench)  # imported as it runs, never edited
    return import_module("workloads").make_workload(workload, 2008, smoke=True).rep().digest


def and_compiled(variants):
    """``variants``, then the first (in-process) one again on the compiled
    slot loop, where its kernel loads: for pins whose runs build flow, ETX,
    exact or composite (multi-session) cores, untraced and unobserved — a
    traced or observed run never does."""
    return (*variants, *({**variants[0], **form} for form in COMPILED))


def and_loops(variants=({},), loops=None):
    """``variants``, then the first (in-process) one again on each Table 1
    loop (all of :data:`LOOPS` unless ``loops`` names some)."""
    return (*variants, *({**variants[0], **loop} for loop in loops or LOOPS))


PINS = (
    Pin("table1.cold_warm", "tests.test_table1_oracle:cold_and_warm", (
        "42a640356f5cb21665b0b576d7af28692a75f23dc7a601d6ddf146261647dcdf",
        "2201f31dcd66eb1bb875d27785d169d7e17652161d46eba090899f7c6b6bab29",
    ), and_loops()),
    Pin("table1.messages", "tests.test_table1_oracle:message_passing",
        "292ac313a4cdd4733602b24ccc078509d1bc39bfe00620c0a4140dd5266e9481", and_loops()),
    Pin("table1.multi", "tests.test_table1_oracle:four_opposing_sessions",
        "fda32c5965e5c56500d09db64ee1d6dfbe5d6cf1ee371785b3ba0e8bc66a6eb1", and_loops()),
    Pin("table1.replan", "tests.test_table1_oracle:replan_costs",
        "9c76799b43753317a948bf8f5394836cbd3b4617ccb8d55081555a0a0a569ea1", and_loops()),
    Pin("table1.near_tie", "tests.test_table1_oracle:near_tie_census",
        "40e605229b82ca21a68322a3f7ce9b4754b1500c16347e6435d4674355cac3d0", and_loops()),
    Pin("table1.fig1_obs", "tests.test_table1_oracle:fig1_observed_iterations",
        "5e8c45d4af01d018fb8fef6798e9a96b06fc436b4a2366eebba878e875d37d5d",
        and_loops(loops=LOOPS[:1])),
    Pin("relay_line", "tests.test_active_set:relay_line", (
        "5534da33dfebe4a9a27993b46b371521ebf4147aeff467b420fe51736bb4a8bb",
        "734c4265147bdc6130cc016a13f4fdac53103f47583e6e7f8d22f48b4a8b014e",
    ), ONE_SHARD),
    Pin("churn_xor", "tests.test_active_set:churn_xor", (
        "a374b1c1587b81b041b6a7dfe341032e829db122c3928083ef631c05f6863a41",
        "4f18db7655fc9c6ea44f4a48fc6b462e594d8e7a0fd2894ece5939f7aadd1b05",
    ), and_loops()),
    Pin("adaptive_switch.runner", "tests.test_active_set:adaptive_switch_runner", (
        "bc1d5c1292a2d806b927fd30076ee7d686c71f11d7340ca719b9d47dabe50bd5",
        "3fed94f8e7ffa49e05d6bdfd79a79337b1a91982b7def07af8b8b20fb6956bff",
    ), and_loops()),
    Pin("adaptive_switch.sharded", "tests.test_active_set:adaptive_switch_sharded", (
        "2da176d1170eafea06f670170b7f9a37d9addfd1cdc6ee67f2869779694fba3f",
        "3e08700e14662ae4bbcba77281c109b5457a43999683174a8104b020eeb6f589",
    ), and_loops()),
    Pin("hot_swap", "tests.test_active_set:hot_swap", (
        "b9548d8dc984a4d95dbe1368b97aacb10722ea516343b61d8fd9902a1ff74474",
        "ee85f757f8884d38d9c59b90ded4b15f3181d84809884f90ac0f221f29d42ab4",
    )),
    Pin("obs_on.flow_session", "tests.test_active_set:obs_on_flow_session", (
        {"slots": 282, "grants": 235, "transmissions": 235, "deliveries": 458, "blanked": 0},
        (1128, 49.0, "c2ae998ec56d96186cfd2734a5d4fb2e520878c79dc80b8687e78d488a5231b7"),
    ), and_loops()),
    Pin("obs_on.relay_line", "tests.test_active_set:obs_on_relay_line", (
        {"slots": 200, "grants": 4196, "transmissions": 4196, "deliveries": 2650, "blanked": 4980},
        (25600, 8826.0, "73a606a51d5a9464977b3d9017fd068588daa299e92474afc828920ead32e7f9"),
    )),
    Pin("relay_line.array_cores", "tests.test_array_core:relay_line_across_forms", (
        "14bccb58a4582ba423c8da8ec4e0e3062b985b6db039400893ef23b2bb5953fa",
        "4ac25057daa581ef87577613ecf754b3fe3b480cb6e23797be08b2d78932279a",
    ), ONE_SHARD),
    Pin("driver.unicast", "tests.test_plan_install:unicast_driver",
        "1455624e49dd426060bd1df8faf3fbd3436ca23de1a16a1c3736d04afbf0ab2d",
        and_compiled(({}, {"form": "scalar"}))),
    Pin("driver.credit_exact", "tests.test_plan_install:credit_plan_at_exact_fidelity",
        "75297b9bb81230f7bd72ed840b370b28b6f0606c226ef1e0adb426e630733f91",
        and_compiled(({}, {"form": "scalar"}))),
    Pin("adaptive.more_flow", "tests.test_plan_install:adaptive_more_flow", (
        "f0546a2b9235fc259bf103e345f85b2e0f3f8ce25c4152ed08b9c7a253ee2794",
        "df5c52759ebf020c816adab8eaf160e1402d753337c03aec7e6bc4ce736e0595",
    )),
    # Traced, so scalar; its session digest untraced, on the compiled slot
    # loop, is ``test_plan_install``'s to check.
    Pin("adaptive.more_exact", "tests.test_plan_install:adaptive_more_exact", (
        "76c075fbd9315c2741b1c9a17357b8c9d82668fe6ec0b89118189bdb8dfab51c",
        "edcc4c5535df937e554bfb439c9a25e4aca891c4c7d149caaca07806216f66a7",
    ), ({}, {"form": "scalar"})),
    # Traced, so scalar; its session digest untraced, on the compiled slot
    # loop, is ``test_plan_install``'s to check.
    Pin("adaptive.etx_flow", "tests.test_plan_install:adaptive_etx_flow", (
        "f0b52461fed690a5e0f55a09dc82a2764168af20390cf5e1ad6012931ab80479",
        "4734007fc1120ccddf2a89cabccce069d409340db7b3f090a89513020aafc19a",
    ), ({}, {"form": "scalar"})),
    Pin("link_tables.drift", "tests.test_dynamics:builtin_drift_link_tables", (
        "b6aa4c29afd7198cce8f1a2973465d59726f48847a75850e57b9d9e8f9617a87",
        "8b06b57e8335eef56bd703bfa1fb4bbbbbfec0cca8565059312e906a09b86d63",
        "bd615fb755accf24cee8855de88cbe795bfb0c89e70135e53e0e85651be3603d",
    )),
    Pin("link_tables.fail_drift_recover", "tests.test_scenario:fail_drift_recover_link_tables", (
        (670, "ba3984672883620e6cf80c8463ce22ced593956c776b43982e34c6865ab4b063"),
        (670, "24e1e4f26902bcd9adcce6738b90828bd42fc1f4e071b642ffbda5550a275926"),
        (678, "e2f295ae1ba6a39232b5a85ee5da75b7c3b6bc9823e0f14b62b8f5d29bb025f5"),
    )),
    Pin("routing.etx_routes", "tests.test_protocols:routes_from_three_sources",
        "d15d4a0418a35c59d3f173177cf65f5632d528faf555c62c04d6beb58a61058d"),
    Pin("routing.more_credits", "tests.test_protocols:more_heuristic_of_the_benchmark_pairs",
        "428c27b938b1d90c2cef7b65e4b1680d53da345d314f0ff52a15d725e8b2f00b"),
    Pin("routing.forwarder_sets", "tests.test_node_selection:forwarder_sets_of_the_benchmark_pairs",
        "828faff2326adaa6215bef49a939eb4aea3c045352a4bc350eda5f827e58ccf7"),
    Pin("relay_stream", "tests.test_encoder:relay_stream", (
        "09cb4b61d74773fd7dc5e0b847c3301ba74c136a605975990c73b1fe138a84a1",
        "341fd7381bb75a4a4d2140ed545a1f26fe8c7ced42f191592e9557a83b583f9f",
    ), FIELDS),
    Pin("campaign.fig2", "tests.test_exec_campaign:fig2_campaign",
        "725cf97e1280b11e34e718128b13305b1708e9f3a24a257b3bf4b0ff3f8ab01c",
        and_loops(and_compiled(JOBS_12))),
    Pin("mesh2k.result_digest", "tests.test_shard_traffic:mesh2k_result_digest", "7021afba"),
    Pin("bench.campaign", "tests.pins:bench_smoke",
        "d0a5346bf64233b221b249eae55c2dbadeb99de8e3cfb25e6610509d9c7723c9",
        and_loops(and_compiled(({"workload": "campaign_serial"}, {"workload": "campaign_jobs2"})))),
    Pin("bench.mesh2k", "tests.pins:bench_smoke",
        "0be08acd4d8bbc18ccb2e6b38307d6911f8520078d92599311a812910ba994be",
        and_compiled(({"workload": "mesh2k_serial"}, {"workload": "mesh2k_shards2"}))),
    Pin("bench.exact_multisession", "tests.pins:bench_smoke",
        "1e2f3b1d4fd3cd5f3aa7a40b3a7f4746263ab1a69a74966f176875b2a297a6f0",
        and_loops(and_compiled(({"workload": "exact_multisession"},)))),
    Pin("bench.codec_stream", "tests.pins:bench_smoke",
        "a3a11a32e97bedd59c37c31f277ebac29a92594463b57b19e90ead5f0ae1fa50",
        ({"workload": "codec_stream"},)),
    Pin("bench.adaptive_replan", "tests.pins:bench_smoke",
        "d0a4dfb1bfd5b1f6b4b14c3c40d04171bb5dcb79349b38cc4df2345faec50746",
        and_loops(and_compiled(({"workload": "adaptive_replan"},)))),
)


def literal(value):
    """``value`` as the table writes it: a tuple of several items one item
    a line, anything else on one line."""
    if isinstance(value, tuple) and len(value) > 1:
        return "(\n" + "".join(f"        {_flat(item)},\n" for item in value) + "    )"
    return _flat(value)


def _flat(value):
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, tuple):
        return "(" + ", ".join(map(_flat, value)) + ("," if len(value) == 1 else "") + ")"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_flat(key)}: {_flat(item)}" for key, item in value.items()) + "}"
    return repr(value)


def record(names, table=PINS, path=Path(__file__)):
    """Recompute the named pins and write their values into ``path``."""
    pins = {pin.name: pin for pin in table}
    unknown = [name for name in names if name not in pins]
    if unknown:
        raise SystemExit(f"pins: no such pin: {', '.join(unknown)}")
    moved = {}
    for name in names:
        pin = pins[name]
        produced = {variant_id(variant): pin.produce(variant) for variant in pin.variants}
        values = list(produced.values())
        if any(value != values[0] for value in values):
            raise SystemExit(
                f"pins: {name}: the variants disagree, nothing written"
                + "".join(f"\n  {variant}: {value!r}" for variant, value in produced.items())
            )
        moved[name] = values[0]
    source = path.read_bytes()  # ast offsets count bytes
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    edits = []
    for call in ast.walk(ast.parse(source)):
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "Pin":
            name, value = getattr(call.args[0], "value", None), call.args[2]
            if name in moved:
                start = starts[value.lineno - 1] + value.col_offset
                end = starts[value.end_lineno - 1] + value.end_col_offset
                edits.append((start, end, literal(moved[name]).encode()))
    for start, end, text in sorted(edits, reverse=True):
        source = source[:start] + text + source[end:]
    path.write_bytes(source)
    for name, new in moved.items():
        old = pins[name].value
        print(f"{name}: unchanged" if new == old else f"{name}: {old!r} -> {new!r}")


if __name__ == "__main__":
    if sys.argv[1:2] != ["record"] or len(sys.argv) < 3:
        raise SystemExit("usage: python -m tests.pins record NAME [NAME ...]")
    record(sys.argv[2:])
