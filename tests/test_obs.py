"""Tests for the observability subsystem (repro.obs)."""

import numpy as np
import pytest

from repro import obs
from repro.coding.decoder import ProgressiveDecoder
from repro.coding.encoder import SourceEncoder
from repro.coding.generation import GenerationParams, random_generation
from repro.coding.gf256 import GF256
from repro.optimization.problem import session_graph_from_network
from repro.optimization.rate_control import RateControlAlgorithm
from repro.topology.random_network import fig1_sample_topology


# ---------------------------------------------------------------- instruments


def test_counter_accumulates_and_rejects_negative():
    registry = obs.MetricsRegistry()
    counter = registry.counter("pkts", "packets")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_set_and_relative_updates():
    gauge = obs.MetricsRegistry().gauge("depth")
    gauge.set(3.0)
    gauge.inc(-1.0)
    assert gauge.value == 2.0
    assert gauge.updates == 2


def test_histogram_percentiles_exact_on_known_data():
    histogram = obs.MetricsRegistry().histogram("h")
    for value in range(1, 101):  # 1..100
        histogram.observe(value)
    assert histogram.count == 100
    assert histogram.mean == pytest.approx(50.5)
    assert histogram.minimum == 1
    assert histogram.maximum == 100
    assert histogram.percentile(0) == 1
    assert histogram.percentile(100) == 100
    assert histogram.percentile(50) == pytest.approx(50.5)
    assert histogram.percentile(90) == pytest.approx(90.1)


def test_histogram_reservoir_is_bounded_but_totals_exact():
    histogram = obs.MetricsRegistry().histogram("h", max_samples=10)
    for value in range(100):
        histogram.observe(value)
    assert histogram.count == 100
    assert histogram.sum == sum(range(100))
    assert len(histogram.samples()) == 10
    # The ring retains the most recent window.
    assert sorted(histogram.samples()) == list(range(90, 100))


def test_histogram_percentile_validates_input():
    histogram = obs.MetricsRegistry().histogram("h")
    with pytest.raises(ValueError):
        histogram.percentile(50)  # empty
    histogram.observe(1.0)
    with pytest.raises(ValueError):
        histogram.percentile(101)


# ------------------------------------------------------------------- registry


def test_registry_get_or_create_shares_instruments():
    registry = obs.MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    with pytest.raises(TypeError):
        registry.gauge("a")  # name already taken by a counter


def test_registry_attach_prefixes_and_detach_removes():
    registry = obs.MetricsRegistry()
    scope = registry.attach("decoder")
    scope.counter("innovative").inc()
    scope.gauge("rank").set(3)
    registry.counter("emulator.slots").inc()
    assert "decoder.innovative" in registry
    assert registry.value("decoder.rank") == 3
    # Scoped and unscoped views resolve to the same instrument.
    assert scope.counter("innovative") is registry.counter("decoder.innovative")
    removed = registry.detach("decoder")
    assert removed == 2
    assert "decoder.innovative" not in registry
    assert "emulator.slots" in registry  # untouched


def test_disabled_registry_hands_out_shared_null_instruments():
    registry = obs.MetricsRegistry(enabled=False)
    counter = registry.counter("x")
    assert counter is obs.NULL_COUNTER
    assert not counter.enabled
    counter.inc(100)
    assert counter.value == 0
    assert registry.histogram("h") is obs.NULL_HISTOGRAM
    assert registry.gauge("g") is obs.NULL_GAUGE
    assert len(registry) == 0
    assert registry.snapshot() == {}


def test_registry_snapshot_prefix_filter_and_json(tmp_path):
    registry = obs.MetricsRegistry()
    registry.counter("a.one").inc()
    registry.counter("b.two").inc(2)
    assert list(registry.snapshot(prefix="a.")) == ["a.one"]
    path = tmp_path / "metrics.json"
    registry.to_json(path)
    assert path.exists()
    import json

    snapshot = json.loads(path.read_text())
    assert snapshot["b.two"]["value"] == 2


# ---------------------------------------------------------- global collection


def test_collecting_enables_then_restores_disabled_global():
    assert not obs.get_registry().enabled
    with obs.collecting() as registry:
        assert obs.get_registry() is registry
        assert registry.enabled
    assert not obs.get_registry().enabled


def test_collecting_meters_codec_bytes_and_unhooks():
    a = np.ones((4, 4), dtype=np.uint8)
    b = np.ones((4, 16), dtype=np.uint8)
    with obs.collecting() as registry:
        GF256.matmul(a, b)
        assert registry.value("codec.bytes_processed") == 64
    # Hook removed: further codec work does not mutate the old registry.
    GF256.matmul(a, b)
    assert registry.value("codec.bytes_processed") == 64


def test_a_nested_scope_leaves_the_enclosing_registry_as_it_was():
    a = np.ones((4, 4), dtype=np.uint8)
    b = np.ones((4, 16), dtype=np.uint8)
    with obs.collecting() as outer:
        before = outer.snapshot()
        with obs.collecting(obs.MetricsRegistry()) as inner:
            assert obs.get_registry() is inner
            GF256.matmul(a, b)
        assert obs.get_registry() is outer
        # Closing the inner scope neither re-tags the backend (a gauge
        # update) nor counts the inner scope's bytes here: a job run in
        # this process leaves what a job run on a worker leaves.
        assert outer.snapshot() == before
        GF256.matmul(a, b)
    assert inner.value("codec.bytes_processed") == 64
    assert outer.value("codec.bytes_processed") == 64


def test_opening_a_scope_meters_no_backend_self_test(monkeypatch):
    from repro.coding import backends, native

    # A fresh process: the loader has no verdict yet, and the compiled
    # field it finds is a double whose self-test pushes bytes through
    # the kernels as the real one does.
    def self_testing_loader():
        GF256.matmul(np.ones((4, 4), dtype=np.uint8), np.ones((4, 16), dtype=np.uint8))
        return native.GF256Native

    monkeypatch.setattr(native, "load_native_backend", self_testing_loader)
    backends.default_field.cache_clear()
    try:
        with obs.collecting() as registry:
            pass
    finally:
        backends.default_field.cache_clear()
    assert registry.value("codec.backend.native") == 1
    assert registry.value("codec.bytes_processed") == 0


# --------------------------------------------------------------------- tracer


def test_tracer_emit_filter_series_and_summary():
    tracer = obs.EventTracer()
    tracer.emit("iteration", t=0, theta=1.0)
    tracer.emit("iteration", t=1, theta=0.5)
    tracer.emit("ack", generation=0)
    assert len(tracer) == 3
    assert tracer.summary() == {"iteration": 2, "ack": 1}
    assert tracer.series("iteration", "theta") == [1.0, 0.5]
    assert tracer.last("ack").fields["generation"] == 0
    assert tracer.last("missing") is None


def test_tracer_bounded_capacity_counts_drops():
    tracer = obs.EventTracer(capacity=5)
    for index in range(8):
        tracer.emit("e", i=index)
    assert len(tracer) == 5
    assert tracer.dropped == 3
    retained = [record.fields["i"] for record in tracer.records()]
    assert retained == [3, 4, 5, 6, 7]
    # Sequence numbers are global, not reset by eviction.
    assert tracer.records()[0].seq == 3


def test_tracer_records_can_be_iterated_twice():
    tracer = obs.EventTracer()
    for index in range(4):
        tracer.emit("tx" if index % 2 else "grant", node=index)
    sent = tracer.records(kind="tx")
    assert [record.fields["node"] for record in sent] == [1, 3]
    assert [record.fields["node"] for record in sent] == [1, 3]


def test_tracer_jsonl_round_trip(tmp_path):
    tracer = obs.EventTracer()
    tracer.emit("rate_control.iteration", t=0, lambda_max=0.25, note="x")
    tracer.emit("ack", generation=2)
    path = tmp_path / "trace.jsonl"
    assert tracer.to_jsonl(path) == 2
    loaded = obs.EventTracer.read_jsonl(path)
    assert len(loaded) == 2
    assert loaded[0].kind == "rate_control.iteration"
    assert loaded[0].fields == {"t": 0, "lambda_max": 0.25, "note": "x"}
    assert loaded[1].seq == 1


# ------------------------------------------------------- component integration


def _decode_generation(blocks, block_size):
    rng = np.random.default_rng(42)
    params = GenerationParams(blocks=blocks, block_size=block_size)
    generation = random_generation(0, params, rng)
    encoder = SourceEncoder(1, generation, rng)
    decoder = ProgressiveDecoder(blocks, block_size)
    while not decoder.is_complete:
        decoder.add_packet(encoder.next_packet())
    return decoder


def test_decoder_rank_metric_reaches_n_exactly_on_completion():
    blocks = 12
    with obs.collecting() as registry:
        decoder = _decode_generation(blocks, 64)
    assert decoder.is_complete
    rank_gauge = registry.get("decoder.rank")
    assert rank_gauge.value == blocks  # exactly n, not more
    assert rank_gauge.updates == blocks  # one update per innovative packet
    assert registry.value("decoder.innovative") == blocks
    assert (
        registry.value("decoder.redundant")
        == decoder.received - blocks
    )
    latency = registry.get("decoder.packets_to_decode")
    assert latency.count == 1
    assert latency.minimum == decoder.received


def test_decoder_metrics_disabled_by_default_costs_nothing():
    decoder = _decode_generation(6, 32)
    assert decoder.is_complete
    # Global registry is disabled: nothing was recorded anywhere.
    assert len(obs.get_registry()) == 0


def test_rate_control_publishes_iteration_metrics_and_traces():
    network = fig1_sample_topology(capacity=1e5)
    graph = session_graph_from_network(network, 0, 5)
    tracer = obs.EventTracer()
    with obs.collecting() as registry:
        result = RateControlAlgorithm(graph, tracer=tracer).run()
    assert registry.value("optimizer.iterations") == result.iterations
    records = list(tracer.records(kind="rate_control.iteration"))
    assert len(records) == result.iterations
    lambda_series = tracer.series("rate_control.iteration", "lambda_max")
    assert len(lambda_series) == result.iterations
    assert all(value >= 0.0 for value in lambda_series)
    residuals = registry.get("optimizer.primal_residual")
    assert residuals.count == result.iterations
    # Primal recovery drives the constraint violation toward zero.
    assert residuals.samples()[-1] <= residuals.maximum


def test_engine_counters_via_global_collection():
    from repro.emulator.session import SessionConfig, run_coded_session
    from repro.protocols.more import plan_more
    from repro.routing.node_selection import NodeSelectionError
    from repro.topology.phy import lossy_phy
    from repro.topology.random_network import random_network
    from repro.util.rng import RngFactory

    rng = RngFactory(7)
    network = random_network(
        30, phy=lossy_phy(rng=rng.derive("phy")), rng=rng.derive("topology")
    )
    plan = None
    for source in range(network.node_count):
        for destination in range(network.node_count - 1, -1, -1):
            if source == destination:
                continue
            try:
                plan = plan_more(network, source, destination)
                break
            except NodeSelectionError:
                continue
        if plan is not None:
            break
    assert plan is not None, "no feasible MORE session on the test network"
    config = SessionConfig(max_seconds=10.0, target_generations=1)
    with obs.collecting() as registry:
        result = run_coded_session(network, plan, config=config, rng=rng.spawn("s"))
    slots = registry.value("emulator.slots")
    assert slots > 0
    assert registry.value("emulator.transmissions") >= registry.value(
        "emulator.deliveries"
    ) * 0  # both present
    assert registry.get("mac.granted_per_slot").count == slots
    assert registry.get("emulator.virtual_time").value == pytest.approx(
        result.duration
    )


@pytest.mark.parametrize("fidelity", ["flow", "exact"])
def test_emulator_counters_equal_the_returned_stats(fidelity):
    # What the benchmark's counting pass reads off the registry is what
    # the run itself returns, for the stats object and for the result.
    from repro.emulator.session import SessionConfig, run_coded_session
    from repro.protocols.omnc import plan_omnc
    from repro.util.rng import RngFactory
    from tests.reference import PLANNED_PAIRS, reference_mesh
    from tests.test_active_set import plan_session

    network = reference_mesh()
    plan = plan_omnc(network, *PLANNED_PAIRS[0])
    config = SessionConfig(
        blocks=8, block_size=256, max_seconds=20.0, coding_fidelity=fidelity
    )
    with obs.collecting() as registry:
        session = plan_session(network, plan, config, RngFactory(3))
        session.run(250)
        stats = session.finalize_stats()
    assert registry.value("emulator.slots") == stats.slots == 250
    assert registry.value("emulator.grants") == stats.grants > 0
    assert registry.value("emulator.transmissions") == sum(stats.transmissions.values())
    # One depth sample per runtime per slot.
    depth = registry.get("emulator.queue_depth")
    assert depth.count == stats.slots * len(stats.transmissions)
    assert registry.get("mac.granted_per_slot").count == stats.slots

    with obs.collecting() as registry:
        result = run_coded_session(network, plan, config=config, rng=RngFactory(3))
    slot = config.coded_packet_bytes() / network.capacity
    assert registry.value("emulator.slots") == round(result.duration / slot)
    assert registry.value("emulator.transmissions") == sum(result.transmissions.values())
    assert registry.get("emulator.queue_depth").count == registry.value(
        "emulator.slots"
    ) * len(result.participants)
