"""Test-only tools for the ``NodeRuntime.dormant`` fixed-point contract.

``dormant(dt)`` promises that ticking changes nothing: every future
``on_slot(dt)`` leaves ``vars()`` bit-identical, ``backlog() == 0.0`` and
``queue_length() == 0``.  :func:`freeze` turns a runtime's state into a
comparable value (:func:`freeze_row` a column row's), :func:`assert_fixed_point`
checks the promise on one runtime, and :func:`parked_contract_monitor`
checks it on every parked runtime and column row of every slot of
whatever session a test runs (:func:`under_parked_contract`: of whatever
session a pin's producer runs).
"""

import functools
from collections import deque

import numpy as np
import pytest

from repro.emulator.awake import AwakeSet
from repro.emulator.columns import Columns


def freeze(value):
    """A hashable-ish deep snapshot that compares equal iff state is equal.

    Floats compare through ``repr`` so -0.0 vs 0.0 or a last-bit drift
    shows; RNG generators compare by bit-generator state; callables (the
    ``on_decoded`` seams) are wiring, not state, and are skipped.
    """
    if isinstance(value, float):
        return ("float", repr(value))
    if value is None or isinstance(value, (bool, int, str, bytes)):
        return value
    if isinstance(value, np.random.Generator):
        return ("rng", freeze(value.bit_generator.state))
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, np.generic):
        return freeze(value.item())
    if isinstance(value, (list, tuple, deque)):
        return (type(value).__name__, tuple(freeze(item) for item in value))
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted(map(repr, value))))
    if isinstance(value, dict):
        return ("dict", tuple((repr(key), freeze(value[key])) for key in value))
    if callable(value):
        return "callable"
    fields = {}
    if hasattr(value, "__dict__"):
        fields.update(vars(value))
    for klass in type(value).__mro__:
        for name in getattr(klass, "__slots__", ()):
            if hasattr(value, name):
                fields[name] = getattr(value, name)
    return (type(value).__name__, freeze(fields))


def assert_fixed_point(runtime, dt, slots=5):
    """If ``runtime`` claims dormancy, ticking it must be a no-op."""
    before = freeze(runtime)
    verdict = runtime.dormant(dt)
    assert freeze(runtime) == before, "dormant() itself changed state"
    if not verdict:
        return False
    for _ in range(slots):
        runtime.on_slot(dt)
        assert freeze(runtime) == before, "on_slot moved a dormant runtime"
        assert runtime.backlog() == 0.0
        assert runtime.queue_length() == 0
        assert runtime.dormant(dt)
    return True


def freeze_row(columns, position):
    """The state of one row of a :class:`Columns`: every per-row array's
    cell (a queue-level row by its non-zero entries, so widening the
    level table is not a change) and the row's upstream set."""
    count = len(columns.role)
    cells = []
    for name, value in sorted(vars(columns).items()):
        if isinstance(value, np.ndarray) and value.shape[:1] == (count,):
            row = value[position]
            if row.ndim:
                nonzero = np.flatnonzero(row)
                row = (tuple(nonzero.tolist()), tuple(row[nonzero].tolist()))
            cells.append((name, freeze(row)))
    return tuple(cells), freeze(columns.upstream[position])


def parked_contract_monitor(monkeypatch):
    """Re-check parked runtimes every slot: wraps ``AwakeSet.tick`` for
    runtime objects and ``Columns.tick`` for an array core's flow rows.

    On entry to each tick every parked runtime must still be where it
    was when it parked: same frozen state, still dormant, no backlog, no
    queue.  Anything that legitimately changes a parked runtime (a
    delivery, the control plane) must have woken it first, so a
    violation means a missing wake.  Column rows are ticked parked or
    not (a parked row sits at a fixed point of the tick), so their check
    is the same: the rows the core reports parked (``parked_nodes``)
    against the state each had when it parked.  Patching the classes
    covers the in-process engine and, under the ``fork`` start method,
    the shard workers too (a worker assertion surfaces as
    ``WorkerCallError``).
    """
    original = AwakeSet.tick
    original_columns = Columns.tick
    snapshots = {}

    def keep(tracker, parked):
        held = snapshots.setdefault(id(tracker), {})
        for position in list(held):
            if position not in parked:
                del held[position]
        return held

    def checked_tick(self, runtimes, dt):
        parked = set(self.parked_positions())
        held = keep(self, parked)
        for position in parked:
            runtime = runtimes[position]
            assert runtime.dormant(dt), f"parked runtime {position} not dormant"
            assert runtime.backlog() == 0.0
            assert runtime.queue_length() == 0
            state = freeze(runtime)
            assert held.setdefault(position, state) == state, (
                f"parked runtime {position} changed without being woken"
            )
        return original(self, runtimes, dt)

    def checked_columns_tick(self):
        parked = self.parked().tolist()
        held = keep(self, set(parked))
        dormant = self.dormant()
        for position in parked:
            assert dormant[position], f"parked row {position} not dormant"
            assert self.queue[position] == 0
            state = freeze_row(self, position)
            assert held.setdefault(position, state) == state, (
                f"parked row {position} changed without being woken"
            )
        return original_columns(self)

    monkeypatch.setattr(AwakeSet, "tick", checked_tick)
    monkeypatch.setattr(Columns, "tick", checked_columns_tick)


def under_parked_contract(producer):
    """``producer`` with :func:`parked_contract_monitor` on for each call."""

    @functools.wraps(producer)
    def monitored(*args, **kwargs):
        with pytest.MonkeyPatch.context() as monkeypatch:
            parked_contract_monitor(monkeypatch)
            return producer(*args, **kwargs)

    return monitored
