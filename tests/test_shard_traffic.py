"""What one ``mesh2k_shards2`` repetition puts on the pipe.

The benchmark's relay line (2 048 nodes, 1 200 slots, seed 2008, two
strips), counted at the group's send path, and the compiled-loop calls
its forked workers make.  It lives outside
``tests/test_shard.py`` because that module re-freezes every parked
runtime every slot (``parked_contract``), which this size cannot afford;
the small-line versions of the same checks run there, under the
monitor.  The repetition runs once per process: its pin
(``mesh2k.result_digest``) and its budget read the same run.
"""

import functools
import os
import pickle
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from repro.emulator import engine, native
from repro.emulator.engine import EngineCore
from tests.conftest import tap_barriers
from tests.test_active_set import line_network, line_session, stats_digest


def tap_kernel_calls(monkeypatch, directory):
    """Every compiled-loop call from here on, in this process and the
    workers it forks: a line with the call's phase, in a file per process."""
    call = EngineCore._call

    def tapped(core, phase, budget=1):
        with open(directory / str(os.getpid()), "a") as log:
            log.write(f"{phase}\n")
        return call(core, phase, budget)

    monkeypatch.setattr(EngineCore, "_call", tapped)


@functools.cache
def mesh2k_repetition():
    """The stats digest, every barrier and, per worker, the phases of its
    compiled-loop calls, of one repetition."""
    with (
        pytest.MonkeyPatch.context() as monkeypatch,
        tempfile.TemporaryDirectory() as directory,
    ):
        barriers = tap_barriers(monkeypatch)
        tap_kernel_calls(monkeypatch, Path(directory))
        with line_session(line_network(2048), 2) as session:
            session.run(1200)
            slot_phases = list(barriers)
            stats = session.finalize_stats()
        kernel_calls = [
            Counter(int(phase) for phase in log.read_text().split())
            for log in Path(directory).iterdir()
            if log.name != str(os.getpid())
        ]
    return stats_digest(stats), slot_phases, kernel_calls


def mesh2k_result_digest():
    """``result_digest`` of ``mesh2k_serial`` and ``mesh2k_shards2`` at
    seed 2008: the stats digest's first eight hex digits."""
    return mesh2k_repetition()[0][:8]


def test_mesh2k_repetition_message_and_byte_budget():
    _digest, slot_phases, _calls = mesh2k_repetition()
    # The front stays in strip 0.  Until strip 1 parks (the second park
    # check, slot 8) a slot costs each live shard two messages; from then
    # on shard 0 is the only live one and is handed the rest of the run
    # in epochs of at most ``ShardedSession.EPOCH_SLOTS`` (256) slots:
    # 21 messages where the parent commit sent 2 400.
    sent = {0: [], 1: []}
    for method, arguments, _replies in slot_phases:
        for shard in arguments:
            sent[shard].append(method)
    assert sent[0] == ["begin_slot", "fire_resolve"] * 8 + ["run_slots"] * 5
    assert sent[1] == ["begin_slot", "fire_resolve"] * 7 + ["begin_slot"]
    # Bytes pickled to and from worker 0: 11 537 (3 577 139 on the parent
    # commit) — an epoch's records carry counts, not keys or node ids.
    crossed = sum(
        len(pickle.dumps((method, arguments[0]))) + len(pickle.dumps(("ok", replies[0])))
        for method, arguments, replies in slot_phases
        if 0 in arguments
    )
    assert crossed <= 12_000


@pytest.mark.skipif(engine.compiled_kernel() is None, reason="the compiled slot loop is unavailable")
def test_mesh2k_phase_slots_call_the_kernel():
    # Every begin_slot a worker is sent is one call of the kernel's first
    # half, every fire_resolve one of its second, and each run_slots at
    # least one epoch call.
    _digest, slot_phases, kernel_calls = mesh2k_repetition()
    sent = [Counter(), Counter()]
    for method, arguments, _replies in slot_phases:
        for shard in arguments:
            sent[shard][method] += 1
    expected = sorted(
        (messages["begin_slot"], messages["fire_resolve"], messages["run_slots"] > 0)
        for messages in sent
    )
    got = sorted(
        (calls[native.CONTEND], calls[native.RESOLVE], calls[native.EPOCH] > 0)
        for calls in kernel_calls
    )
    assert got == expected
    assert sum(calls[native.EPOCH] for calls in kernel_calls) >= sent[0]["run_slots"] == 5
