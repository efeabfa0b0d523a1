"""What one ``mesh2k_shards2`` repetition puts on the pipe.

The benchmark's relay line (2 048 nodes, 1 200 slots, seed 2008, two
strips), counted at the group's send path.  It lives outside
``tests/test_shard.py`` because that module re-freezes every parked
runtime every slot (``parked_contract``), which this size cannot afford;
the small-line versions of the same checks run there, under the
monitor.
"""

import pickle

from tests.test_active_set import line_network, line_session, stats_digest

#: ``result_digest`` of ``mesh2k_serial`` and ``mesh2k_shards2`` at seed 2008.
MESH2K_DIGEST = "7021afba"


def test_mesh2k_repetition_message_and_byte_budget(barriers):
    with line_session(line_network(2048), 2) as session:
        session.run(1200)
        slot_phases = list(barriers)
        stats = session.finalize_stats()
    assert stats_digest(stats).startswith(MESH2K_DIGEST)
    # The parent commit sent 3 barriers x 2 shards x 1 200 slots = 7 200.
    # Every slot is interior (the front stays in strip 0): two messages
    # to shard 0, and shard 1 hears 8 begin_slot + 7 fire_resolve, then
    # nothing until finalize.
    sent = {0: [], 1: []}
    for method, arguments, _replies in slot_phases:
        for shard in arguments:
            sent[shard].append(method)
    assert sent[0] == ["begin_slot", "fire_resolve"] * 1200
    assert sent[1] == ["begin_slot", "fire_resolve"] * 7 + ["begin_slot"]
    # Bytes pickled to and from worker 0 (14.3 MB on the parent commit).
    crossed = sum(
        len(pickle.dumps((method, arguments[0]))) + len(pickle.dumps(("ok", replies[0])))
        for method, arguments, replies in slot_phases
    )
    assert crossed <= 4_000_000
