"""Event tracing."""

import numpy as np
import pytest

from repro.emulator.node import CodedDestinationRuntime, CodedSourceRuntime
from repro.emulator.shard import ShardedSession, _DecodeLog
from repro.emulator.trace import SessionTracer, TraceEvent
from repro.topology.random_network import chain_topology
from repro.util.rng import RngFactory


class TestSessionTracer:
    def test_record_and_filter(self):
        tracer = SessionTracer()
        tracer.record(0, 0.0, "grant", 1)
        tracer.record(0, 0.0, "tx", 1)
        tracer.record(0, 0.0, "delivery", 1, peer=2)
        tracer.record(1, 0.05, "ack", -1, detail=1)
        assert len(tracer) == 4
        assert tracer.summary() == {
            "grant": 1, "tx": 1, "delivery": 1, "ack": 1, "replan": 0,
            "coding": 0, "arrive": 0, "depart": 0,
        }
        assert [e.peer for e in tracer.events(kind="delivery")] == [2]
        assert [e.detail for e in tracer.events(kind="ack")] == [1]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SessionTracer().record(0, 0.0, "explosion", 1)

    def test_capacity_bound_drops_oldest(self):
        tracer = SessionTracer(capacity=3)
        for slot in range(5):
            tracer.record(slot, slot * 0.1, "tx", 0)
        assert len(tracer) == 3
        assert tracer.dropped == 2
        assert [e.slot for e in tracer.events()] == [2, 3, 4]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SessionTracer(capacity=0)

    def test_delivery_ratio(self):
        tracer = SessionTracer()
        tracer.record(0, 0.0, "tx", 0)
        tracer.record(0, 0.0, "tx", 1)
        tracer.record(0, 0.0, "delivery", 0, peer=1)
        assert tracer.delivery_ratio() == pytest.approx(0.5)
        assert SessionTracer().delivery_ratio() == 0.0

    def test_per_node_transmissions(self):
        tracer = SessionTracer()
        tracer.record(0, 0.0, "tx", 0)
        tracer.record(1, 0.1, "tx", 0)
        tracer.record(1, 0.1, "tx", 2)
        assert tracer.per_node_transmissions() == {0: 2, 2: 1}

    def test_jsonl_round_trip(self, tmp_path):
        tracer = SessionTracer()
        tracer.record(0, 0.0, "tx", 0)
        tracer.record(1, 0.05, "delivery", 0, peer=1)
        path = tmp_path / "trace.jsonl"
        assert tracer.to_jsonl(path) == 2
        events = SessionTracer.read_jsonl(path)
        assert events == tuple(tracer.events())
        assert isinstance(events[0], TraceEvent)


class TestEngineTracing:
    def test_engine_emits_consistent_events(self):
        network = chain_topology((0.9,), capacity=2e4)
        rng = np.random.default_rng(0)
        acks = []
        source = CodedSourceRuntime(0, 1, 4, 1e4, 1048, rng)
        destination = CodedDestinationRuntime(1, 1, 4, acks.append)
        tracer = SessionTracer()
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
        assert summary["delivery"] <= summary["tx"]
        assert tracer.per_node_transmissions().get(0, 0) == summary["tx"]

    def test_ack_event_recorded_on_generation_advance(self):
        # The core ACKs the first decode: traced with the next generation,
        # at the start of the slot after the one that decoded.
        network = chain_topology((0.9,), capacity=2e4)
        rng = np.random.default_rng(2)
        log = _DecodeLog()
        source = CodedSourceRuntime(0, 1, 4, 1e4, 1048, rng)
        destination = CodedDestinationRuntime(1, 1, 4, log)
        tracer = SessionTracer()
        session = ShardedSession(
            network,
            {0: source, 1: destination},
            0.05,
            rng_factory=RngFactory(3),
            tracer=tracer,
            decode_log=log,
        )
        session.run(100, decodes=lambda: 1 - len(log.acks))
        (ack,) = tracer.events(kind="ack")
        ((generation, decoded_at),) = log.acks
        assert (generation, ack.detail, ack.time) == (0, 1, decoded_at + 0.05)
        assert destination.rank == 0 and source._generation_id == 1
