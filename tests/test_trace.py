"""Event tracing: the one event log, as the emulator fills it."""

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.emulator.node import CodedDestinationRuntime, CodedSourceRuntime
from repro.emulator.session import SessionConfig, run_coded_session
from repro.emulator.shard import ShardedSession, _DecodeLog
from repro.obs import EventTracer, TraceRecord, trace_digest
from repro.protocols import plan_omnc
from repro.topology import diamond_topology
from repro.topology.random_network import chain_topology
from repro.util.rng import RngFactory


class TestEventLog:
    def test_record_and_filter(self):
        tracer = EventTracer()
        tracer.emit("grant", slot=0, time=0.0, node=1)
        tracer.emit("tx", slot=0, time=0.0, node=1)
        tracer.emit("tx", slot=0, time=0.0, node=2)
        tracer.emit("delivery", slot=0, time=0.0, node=1, peer=2)
        tracer.emit("ack", slot=1, time=0.05, node=-1, detail=1)
        assert len(tracer) == 5
        assert tracer.summary() == {"grant": 1, "tx": 2, "delivery": 1, "ack": 1}
        assert [r.fields["peer"] for r in tracer.records(kind="delivery")] == [2]
        assert [r.fields["detail"] for r in tracer.records(kind="ack")] == [1]
        assert [r.seq for r in tracer.records(kind="tx", node=2)] == [2]
        assert [r.kind for r in tracer.records(node=1)] == ["grant", "tx", "delivery"]
        assert list(tracer.records(peer=3)) == []  # absent field: no match

    def test_capacity_bound_drops_oldest(self):
        capacity = 4
        tracer = EventTracer(capacity=capacity)
        for slot in range(3 * capacity):
            tracer.emit("tx", slot=slot, time=slot * 0.1, node=0)
        retained = list(tracer)
        assert len(tracer) == capacity
        assert [r.fields["slot"] for r in retained] == list(range(2 * capacity, 3 * capacity))
        assert tracer.dropped == 2 * capacity
        # Sequence numbers are global, not reset by eviction.
        assert retained[0].seq == 2 * capacity

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            EventTracer(capacity=0)

    def test_jsonl_round_trip(self, tmp_path):
        tracer = EventTracer()
        tracer.emit("tx", slot=0, time=0.0, node=0)
        tracer.emit("delivery", slot=1, time=0.1 + 0.2, node=0, peer=1)
        path = tmp_path / "trace.jsonl"
        assert tracer.to_jsonl(path) == 2
        records = EventTracer.read_jsonl(path)
        assert records == tuple(tracer)
        assert isinstance(records[0], TraceRecord)
        assert records[1].fields["time"] == 0.1 + 0.2  # floats in full
        assert trace_digest(records) == trace_digest(tracer)


class TestEngineTracing:
    def test_engine_emits_consistent_events(self):
        network = chain_topology((0.9,), capacity=2e4)
        rng = np.random.default_rng(0)
        acks = []
        source = CodedSourceRuntime(0, 1, 4, 1e4, 1048, rng)
        destination = CodedDestinationRuntime(1, 1, 4, acks.append)
        tracer = EventTracer()
        session = ShardedSession(
            network,
            {0: source, 1: destination},
            0.05,
            rng_factory=RngFactory(1),
            tracer=tracer,
        )
        session.run(100)
        summary = tracer.summary()
        assert summary["tx"] == session.finalize_stats().transmissions[0]
        assert summary["grant"] >= summary["tx"]
        assert summary.get("delivery", 0) <= summary["tx"]
        assert len(list(tracer.records(kind="tx", node=0))) == summary["tx"]

    def test_ack_event_recorded_on_generation_advance(self):
        # The core ACKs the first decode: traced with the next generation,
        # at the start of the slot after the one that decoded.
        network = chain_topology((0.9,), capacity=2e4)
        rng = np.random.default_rng(2)
        log = _DecodeLog()
        source = CodedSourceRuntime(0, 1, 4, 1e4, 1048, rng)
        destination = CodedDestinationRuntime(1, 1, 4, log)
        tracer = EventTracer()
        session = ShardedSession(
            network,
            {0: source, 1: destination},
            0.05,
            rng_factory=RngFactory(3),
            tracer=tracer,
            decode_log=log,
        )
        session.run(100, decodes=lambda: 1 - len(log.acks))
        (ack,) = tracer.records(kind="ack")
        ((generation, decoded_at),) = log.acks
        assert (generation, ack.fields["detail"], ack.fields["time"]) == (0, 1, decoded_at + 0.05)
        assert destination.rank == 0 and source._generation_id == 1


class TestTraceFiles:
    """A trace file read back reproduces the run's digest exactly."""

    def test_a_session_trace_round_trips(self, tmp_path):
        network = diamond_topology(capacity=2e4)
        config = SessionConfig(blocks=8, block_size=256, max_seconds=20.0)
        tracer = EventTracer()
        run_coded_session(
            network, plan_omnc(network, 0, 3), config=config, rng=RngFactory(7), tracer=tracer
        )
        path = tmp_path / "session.jsonl"
        assert tracer.to_jsonl(path) == len(tracer) > 0
        assert trace_digest(EventTracer.read_jsonl(path)) == trace_digest(tracer)

    def test_the_cli_trace_file_round_trips(self, tmp_path, monkeypatch, capsys):
        made = []

        class KeptTracer(EventTracer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(obs, "EventTracer", KeptTracer)
        path = tmp_path / "session.jsonl"
        argv = ["session", "omnc", "0", "7", "--nodes", "30", "--seconds", "20"]
        assert main([*argv, "--trace", str(path)]) == 0
        assert f"-> {path}" in capsys.readouterr().out
        (tracer,) = made
        records = EventTracer.read_jsonl(path)
        assert [r.seq for r in records] == list(range(len(tracer)))
        assert trace_digest(records) == trace_digest(tracer)
