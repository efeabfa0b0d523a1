"""Inspect a session at packet granularity with the event tracer.

Attaches a :class:`repro.obs.EventTracer` to an OMNC session on
the two-relay diamond and mines the event log: who got airtime, how the
lossy channel treated each link, and when generations completed.  The
log round-trips through JSONL for offline analysis.

Run::

    python examples/trace_analysis.py
"""

import tempfile
from collections import Counter
from pathlib import Path

from repro.emulator.session import SessionConfig, run_coded_session
from repro.obs import EventTracer, trace_digest
from repro.protocols import plan_omnc
from repro.topology import diamond_topology
from repro.util import RngFactory


def main() -> None:
    network = diamond_topology(capacity=2e4)
    plan = plan_omnc(network, 0, 3)
    config = SessionConfig(
        blocks=16, block_size=512, max_seconds=200.0, target_generations=3
    )

    tracer = EventTracer()
    result = run_coded_session(
        network, plan, config=config, rng=RngFactory(7), tracer=tracer
    )

    print(f"session finished in {result.duration:.1f}s emulated, "
          f"{result.generations_decoded} generations decoded")
    summary = Counter(tracer.summary())
    print(f"\nevent census: {dict(summary)}")
    ratio = summary["delivery"] / summary["tx"] if summary["tx"] else 0.0
    print(f"overall delivery ratio: {ratio:.2f} "
          "(deliveries per transmission; links are lossy)")

    print("\nairtime by node (transmissions):")
    names = {0: "S", 1: "u", 2: "v", 3: "T"}
    airtime = Counter(record.fields["node"] for record in tracer.records(kind="tx"))
    for node, count in sorted(airtime.items()):
        rate = plan.rates.get(node, 0.0)
        print(f"  {names[node]}: {count:4d} tx (allocated {rate:.0f} B/s)")

    print("\nper-link delivery counts:")
    link_counts = Counter(
        (record.fields["node"], record.fields["peer"])
        for record in tracer.records(kind="delivery")
    )
    for (i, j), count in sorted(link_counts.items()):
        p = network.probability(i, j)
        print(f"  {names[i]} -> {names[j]}: {count:4d} deliveries (p = {p:.2f})")

    print("\ngeneration completions:")
    for record in tracer.records(kind="ack"):
        ack = record.fields
        print(f"  t = {ack['time']:6.1f}s -> generation {ack['detail']} begins")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "session.jsonl"
        written = tracer.to_jsonl(path)
        reloaded = EventTracer.read_jsonl(path)
        same = trace_digest(reloaded) == trace_digest(tracer)
        print(f"\nexported {written} events to JSONL and read back "
              f"{len(reloaded)}; same digest: {same}")


if __name__ == "__main__":
    main()
