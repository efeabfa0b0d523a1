"""The two forms' pre-drawn blocks, and refreshes that keep them.

A compiled core draws its lottery keys and loss vectors array-at-a-time
from a :class:`~repro.emulator.native.StreamBank`, a scalar core one node at a
time from :class:`~repro.util.rng.DrawBuffers` (DESIGN.md §13.1).  Both
must hand every node the sequence its scalar calls would have drawn, and
a re-plan or a new link table must rebuild a core's structures without
touching what either has drawn.  End to end, a session on scalar cores
equals the same session compiled, and a core's form is picked from what
it hosts.
"""

import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.emulator.engine import CoreInit, EngineCore
from repro.emulator.native import StreamBank
from repro.emulator.node import (
    FlowDestinationRuntime,
    FlowRelayRuntime,
    FlowSourceRuntime,
    RuntimeTerms,
)
from repro.emulator.plan import CodedBroadcastPlan
from repro.emulator.session import (
    SessionConfig,
    build_plan_runtimes,
    plan_coding_config,
    plan_packet_bytes,
    run_coded_session,
)
from repro.emulator.shard import ShardedSession, _DecodeLog, session_digest
from repro.obs import EventTracer, trace_digest
from repro.protocols.etx_routing import plan_etx_route
from repro.routing.node_selection import ForwarderSet
from repro.util.rng import DrawBuffers, NodeStreams, RngFactory
from tests.meshes import lossy_meshes
from tests.pins import core_form
from tests.test_active_set import (
    BLOCKS,
    PACKET_BYTES,
    line_network,
    line_session,
    plan_session,
    planned_mesh,
    stats_digest,
)
from tests.test_compiled_slots import KERNEL, census, needs_kernel

NODES = (7, 3, 9)


def _bank(kind, seed=5):
    """A bank of ``kind`` streams on the kernel's draws."""
    return StreamBank(KERNEL.take, RngFactory(seed), kind)


@needs_kernel
class TestStreamBank:
    """Any interleaving of takes is the scalar calls' sequence."""

    @given(
        block=st.sampled_from((1, 2, 32)),
        kind=st.sampled_from(("mac", "channel")),
        takes=st.lists(
            st.dictionaries(
                st.sampled_from(NODES),
                st.one_of(st.integers(0, 5), st.integers(0, 40)),
                min_size=1,
            ),
            max_size=40,
        ),
        one_each=st.booleans(),
    )
    @settings(deadline=None, max_examples=150)
    def test_takes_equal_the_scalar_sequences(self, block, kind, takes, one_each):
        with mock.patch.object(StreamBank, "BLOCK", block):
            bank = _bank(kind)
        row_of = dict(zip(NODES, bank.rows_for(NODES).tolist()))
        scalar = NodeStreams(RngFactory(5), kind)
        for take in takes:
            rows = np.array([row_of[node] for node in take], dtype=np.intp)
            if one_each:
                counts = [1] * len(take)
                values = bank.take(rows)
            else:
                counts = list(take.values())
                values = bank.take(rows, np.array(counts, dtype=np.intp))
            expected = []
            for node, count in zip(take, counts):
                if kind == "mac":  # the lottery: one scalar call per key
                    expected += [scalar[node].standard_exponential() for _ in range(count)]
                else:  # a broadcast: one call for all its candidates
                    expected += scalar[node].random(count).tolist()
            assert values.tolist() == expected

    def test_rows_are_kept_when_more_nodes_are_asked_for(self):
        bank = _bank("mac")
        first = bank.rows_for([4, 2])
        drawn = bank.take(first)
        again = bank.rows_for([2, 8, 4])
        assert again.tolist() == [first[1], 2, first[0]]
        scalar = NodeStreams(RngFactory(5), "mac")
        assert drawn.tolist() == [scalar[4].standard_exponential(), scalar[2].standard_exponential()]
        # Node 4's cursor and block survived the growth.
        assert bank.take(again[2:]).tolist() == [scalar[4].standard_exponential()]

    def test_a_node_named_twice_gets_one_row(self):
        # Two rows of one node would each replay its stream from the seed.
        bank = _bank("mac")
        rows = bank.rows_for([3, 3])
        assert rows.tolist() == [0, 0] and bank.rows_for([5, 3, 5]).tolist() == [1, 0, 1]
        assert bank._nodes.tolist() == [3, 5] and len(bank._values) == len(bank._cursor) == 2
        scalar = NodeStreams(RngFactory(5), "mac")
        assert bank.take(np.array([0, 0])).tolist() == scalar[3].standard_exponential(2).tolist()

    def test_capture_streams_cannot_be_banked(self):
        with pytest.raises(ValueError, match="cannot be banked"):
            _bank("capture")


def _scalar_run(generator, kind, count):
    """The next ``count`` values of ``generator`` as the scalar form draws
    them: a lottery key per call, a broadcast's loss vector in one."""
    if kind == "mac":
        return [generator.standard_exponential() for _ in range(count)]
    return generator.random(count).tolist()


class TestDrawBuffers:
    """Any interleaving of single draws and runs is the scalar calls' sequence."""

    @given(
        block=st.sampled_from((1, 2, 32)),
        kind=st.sampled_from(("mac", "channel")),
        draws=st.lists(
            st.tuples(
                st.sampled_from(NODES),
                # None: one ``list.pop()``; a count: one run of that many.
                st.one_of(st.none(), st.integers(0, 5), st.integers(0, 80)),
            ),
            max_size=60,
        ),
    )
    @example(block=2, kind="channel", draws=[(7, 0), (7, None), (7, 5), (3, 0), (7, None)])
    @settings(deadline=None, max_examples=150)
    def test_draws_equal_the_scalar_sequences(self, block, kind, draws):
        with mock.patch.object(DrawBuffers, "BLOCK", block):
            buffers = DrawBuffers(NodeStreams(RngFactory(5), kind))
        scalar = NodeStreams(RngFactory(5), kind)
        for node, count in draws:
            if count is None:
                values = [(buffers[node] or buffers.refill(node)).pop()]
                count = 1
            else:
                values = buffers.take(node, count)
            assert values == _scalar_run(scalar[node], kind, count)

    def test_capture_streams_cannot_be_buffered(self):
        with pytest.raises(ValueError, match="cannot be buffered"):
            DrawBuffers(NodeStreams(RngFactory(5), "capture"))

    @pytest.mark.parametrize("unicast", [False, True])
    def test_a_scalar_session_calls_a_generator_once_a_block(self, unicast, monkeypatch):
        """Per node and kind, at most ⌈values consumed / BLOCK⌉ calls."""
        calls, drawn = Counter(), Counter()

        class Counting:
            def __init__(self, generator, key):
                self._generator, self._key = generator, key

            def __getattr__(self, name):
                method = getattr(self._generator, name)
                if name not in ("standard_exponential", "random"):
                    return method  # a capture tie-break

                def call(size):
                    calls[self._key] += 1
                    drawn[self._key] += size
                    return method(size=size)

                return call

        derive = NodeStreams.__missing__

        def counted(streams, node):
            stream = streams[node] = Counting(derive(streams, node), (streams.kind, node))
            return stream

        monkeypatch.setattr(NodeStreams, "__missing__", counted)
        network, source, destination, coded_plan = planned_mesh()
        plan = plan_etx_route(network, source, destination) if unicast else coded_plan
        with (
            core_form("scalar"),
            plan_session(network, plan, SessionConfig(max_seconds=30.0), RngFactory(4)) as session,
        ):
            core = session._core
            assert core._kernel is None
            session.run(1500)
            buffers = {"mac": core._mac_draws, "channel": core._loss_draws}
            consumed = {
                (kind, node): count - len(buffers[kind][node])
                for (kind, node), count in drawn.items()
            }
        assert {kind for kind, _node in calls} == {"mac", "channel"}
        assert max(calls.values()) > 1
        for key, count in calls.items():
            assert count <= math.ceil(consumed[key] / DrawBuffers.BLOCK), key


class TestScalarEqualsArray:
    """The scalar form against the compiled one, end to end (the class is
    named for the numpy array form the compiled slot loop replaced).
    Where the kernel does not load, both sides are scalar."""

    # Exact coding never runs compiled: flow is the fidelity with two forms.
    @pytest.mark.parametrize("fidelity", ["flow"])
    @pytest.mark.parametrize("interference", ["blanking", "conflict_free"])
    def test_single_session(self, interference, fidelity):
        # Watched (traced and metered, so on scalar cores) and unwatched
        # (compiled where the kernel loads): watching changes nothing.
        network, _source, _destination, plan = planned_mesh()
        config = SessionConfig(
            blocks=6,
            block_size=256,
            max_seconds=30.0,
            target_generations=3,
            interference=interference,
            coding_fidelity=fidelity,
        )

        def run(tracer=None):
            result = run_coded_session(
                network, plan, config=config, rng=RngFactory(4), tracer=tracer
            )
            assert result.generations_decoded > 0  # the run did work
            return session_digest(result)

        with census() as plain_forms:
            plain = run()
        tracer = EventTracer(capacity=500_000)
        with census() as watched_forms, obs.collecting() as registry:
            watched = run(tracer)
        assert watched == plain
        assert len(tracer) > 0 and trace_digest(tracer)
        assert registry.snapshot()["emulator.deliveries"]["value"] > 0
        assert set(watched_forms) == {(False, "scalar")}
        assert set(plain_forms) == {(False, "compiled" if KERNEL is not None else "scalar")}

    @given(
        network=lossy_meshes(),
        interference=st.sampled_from(("blanking", "capture", "conflict_free")),
        seed=st.integers(0, 2**16),
        mixed=st.booleans(),
    )
    @settings(deadline=None, max_examples=40)
    def test_every_node_a_runtime_on_a_lossy_mesh(self, network, interference, seed, mixed):
        # A flood: a source, a destination and a rate-mode relay on every
        # other node, fast enough that neighbours contend and overlap.
        # ``mixed``: every third relay is an object the columns do not
        # hold, which keeps the core scalar; so does capture.
        last = network.node_count - 1
        rate = network.capacity / 2

        def run():
            log = _DecodeLog()
            runtimes = {
                0: FlowSourceRuntime(0, 1, BLOCKS, rate_bps=rate, packet_bytes=PACKET_BYTES),
                last: FlowDestinationRuntime(last, 1, BLOCKS, on_decoded=log),
            }
            for node in range(1, last):
                kind = _ObjectRelay if mixed and node % 3 == 0 else FlowRelayRuntime
                runtimes[node] = kind(
                    node, 1, BLOCKS, PACKET_BYTES, mode="rate", rate_bps=rate
                )
            with ShardedSession(
                network,
                runtimes,
                PACKET_BYTES / network.capacity,
                rng_factory=RngFactory(seed),
                interference=interference,
                decode_log=log,
            ) as session:
                session.run(60)
                compiled = session._core._kernel is not None
                return compiled, stats_digest(session.finalize_stats())

        with core_form("scalar"):
            scalar = run()
        compiled, digest = run()
        assert digest == scalar[1]
        assert not scalar[0]
        objects = mixed and last > 3  # relay 3 is the first object
        assert compiled == (KERNEL is not None and not objects and interference != "capture")


class _ObjectRelay(FlowRelayRuntime):
    """A flow relay the columns do not hold: only the exact classes are
    column rows, so a core hosting this one stays scalar."""


#: Line nodes.
LINE = 384


def relay_line_across_forms(shards):
    """The 384-node line for 420 slots, traced (so scalar); its pin was
    recorded on the commit before the numpy array form existed, and held
    while it did."""
    # 420 slots: the front passes node 192, the two-strip cut.
    tracer = EventTracer(capacity=500_000)
    with line_session(line_network(LINE), shards, tracer=tracer) as session:
        session.run(420)
        stats = session.finalize_stats()
    assert max(sender for sender, _receiver in stats.delivered_links) > LINE // 2
    return stats_digest(stats), trace_digest(tracer)


class TestFormSelection:
    """Picked once per core, from what it hosts (``engine.compilable``)."""

    def test_a_unicast_session_stays_scalar(self):
        # A core hosting half the participants, as a shard's does: a coded
        # session's runs compiled where the kernel loads, a unicast
        # session's stays scalar (an attempt settles where it was fired).
        network, source, destination, coded_plan = planned_mesh()
        config = SessionConfig(max_seconds=10.0)
        plans = {False: coded_plan, True: plan_etx_route(network, source, destination)}
        for unicast, plan in plans.items():
            log = _DecodeLog()
            runtimes = build_plan_runtimes(
                network, plan, config=config, rng=RngFactory(4),
                on_decoded=log, on_delivered=log.deliver,
            )
            participants = tuple(sorted(runtimes))
            half = {node: runtimes[node] for node in participants[: len(participants) // 2]}
            slot = plan_packet_bytes(plan_coding_config(config, plan), plan) / network.capacity
            core = EngineCore(CoreInit(
                network, half, participants, slot, config.interference, 4,
                has_unicast=unicast, decode_log=log,
            ))
            assert (core._kernel is not None) == (KERNEL is not None and not unicast), plan.kind


def _line_plan(network, keep=lambda _node: True):
    """The plan ``line_runtimes`` follow, with the relays ``keep`` rejects
    dropped: the source at 10 kB/s (the offered load), the rest at 8."""
    last = network.node_count - 1
    rates = {0: 1e4, **{relay: 8e3 for relay in range(1, last) if keep(relay)}}
    forwarders = ForwarderSet(0, last, frozenset(range(last + 1)), {}, ())
    return CodedBroadcastPlan(forwarders, rates, predicted_throughput=0.0)


def _install(session, plan):
    terms = RuntimeTerms(
        kind=plan.kind,
        source=plan.source,
        destination=plan.destination,
        session_id=1,
        blocks=BLOCKS,
        packet_bytes=PACKET_BYTES,
        queue_limit=500,
        fidelity="flow",
        systematic=False,
    )
    session.install_plan(plan, terms, cbr=1e4)


class TestRefresh:
    """``set_network`` and ``install_plan`` renew the arrays of a compiled
    core, not its banks, and on a scalar core renew the lists, not the
    draw buffers."""

    @staticmethod
    def _banks(core):
        return [
            (bank, bank._values, bank._values.copy(), bank._cursor.copy(), bank._state.copy())
            for bank in (core._mac, core._loss)
        ]

    def _assert_banks_untouched(self, core, before):
        for (bank, values, content, cursor, state), now in zip(
            before, (core._mac, core._loss)
        ):
            assert now is bank and bank._values is values
            # Bit for bit: rows no node has drawn into yet hold whatever
            # ``np.empty`` left there, NaN patterns included.
            assert values.tobytes() == content.tobytes()
            assert np.array_equal(bank._cursor, cursor)
            assert np.array_equal(bank._state, state)

    @staticmethod
    def _buffers(core):
        return [
            (buffers, {node: (values, list(values)) for node, values in buffers.items()})
            for buffers in (core._mac_draws, core._loss_draws)
        ]

    def _assert_buffers_untouched(self, core, before):
        for (buffers, lists), now in zip(before, (core._mac_draws, core._loss_draws)):
            assert now is buffers and buffers.keys() == lists.keys()
            for node, (values, content) in lists.items():
                assert buffers[node] is values and values == content

    def test_structures_follow_the_network_and_buffers_stay(self):
        network = line_network(64)
        weaker = network.with_links({(i, j): 0.5 for i, j, _p in network.links()})
        with core_form("scalar"), line_session(network, 1) as session:
            core = session._core
            assert core._kernel is None
            session.run(120)
            before = self._buffers(core)
            # Mid-block: some node holds values it has not consumed yet.
            assert any(values for buffers, lists in before for values, _ in lists.values())
            assert core._rx_pairs[1] == [(0, 0.8), (2, 0.8)]
            session.set_network(weaker)
            assert core._rx_pairs[1] == [(0, 0.5), (2, 0.5)]
            self._assert_buffers_untouched(core, before)
            session.run(60)
            before, pairs = self._buffers(core), core._rx_pairs
            _install(session, _line_plan(network))
            assert core._rx_pairs is not pairs and core._rx_pairs == pairs
            self._assert_buffers_untouched(core, before)

    @needs_kernel
    def test_structures_follow_the_network_and_banks_stay(self):
        network = line_network(256)
        weaker = network.with_links({(i, j): 0.5 for i, j, _p in network.links()})

        def drive(session):
            session.run(120)
            session.set_network(weaker)
            session.run(60)
            _install(session, _line_plan(network))
            session.run(60)
            return stats_digest(session.finalize_stats())

        with core_form("scalar"), line_session(network, 1) as session:
            scalar = drive(session)
        with core_form("compiled"), line_session(network, 1) as session:
            core = session._core
            assert core._kernel is not None
            session.run(120)
            before = self._banks(core)
            assert set(np.unique(core._rx_p)) == {0.0, 0.8}
            session.set_network(weaker)
            assert set(np.unique(core._rx_p)) == {0.0, 0.5}
            self._assert_banks_untouched(core, before)
            session.run(60)
            before, ids = self._banks(core), core._rx_ids
            # Re-installing the plan the line runs: the same hosted set.
            _install(session, _line_plan(network))
            assert core._rx_ids is not ids and np.array_equal(core._rx_ids, ids)
            self._assert_banks_untouched(core, before)
            session.run(60)
            assert stats_digest(session.finalize_stats()) == scalar

    @needs_kernel
    def test_a_replaced_hosted_set_keeps_each_nodes_row(self):
        network = line_network(256)

        def run(form):
            with core_form(form), line_session(network, 1) as session:
                core = session._core
                session.run(150)
                # Each survivor's row, cursor and values; on a scalar core
                # every node's list, dropped ones included.
                snapshot, untouched = (
                    (self._banks, self._assert_banks_untouched)
                    if core._kernel is not None
                    else (self._buffers, self._assert_buffers_untouched)
                )
                before = snapshot(core)
                # Every other node beyond 100 goes: hosted positions shift.
                _install(session, _line_plan(network, keep=lambda node: node < 100 or node % 2))
                assert len(core._owned) < 256
                untouched(core, before)
                session.run(150)
                return core, stats_digest(session.finalize_stats())

        _scalar_core, scalar = run("scalar")
        core, compiled = run("compiled")
        assert compiled == scalar
        assert core._kernel is not None
        # The first hosted set was every node in order, so row = node id.
        assert core._mac_rows.tolist() == list(core._owned) == core._loss_rows.tolist()
