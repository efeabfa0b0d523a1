"""Test-only tools for the ``NodeRuntime.dormant`` fixed-point contract.

``dormant(dt)`` promises that ticking changes nothing: every future
``on_slot(dt)`` leaves ``vars()`` bit-identical, ``backlog() == 0.0`` and
``queue_length() == 0``.  :func:`freeze` turns a runtime's state into a
comparable value, :func:`assert_fixed_point` checks the promise on one
runtime, and :func:`parked_contract_monitor` checks it on every parked
runtime and compiled row of every slot of whatever session a test runs
(:func:`under_parked_contract`: of whatever session a pin's producer runs).
"""

import functools
import weakref
from collections import Counter, deque

import numpy as np
import pytest

from repro.emulator.awake import AwakeSet
from repro.emulator.engine import EngineCore


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


def parked_contract_monitor(monkeypatch):
    """Re-check parked runtimes every slot: before each ``AwakeSet.tick``
    for a scalar core's runtime objects, and after each compiled-loop call
    (``EngineCore._call``) for a compiled core's rows.

    Every parked runtime object must still be where it was when it
    parked: same frozen state, still dormant, no backlog, no queue.
    Anything that legitimately changes a parked runtime (a delivery, the
    control plane) must have woken it first, so a violation means a
    missing wake.  The kernel ticks rows parked or not, and may wake and
    park a row again within one call, so every row it leaves with
    ``awake == 0`` is stored into its object and must be at the fixed
    point there (:func:`assert_fixed_point`).  Patching the classes covers
    the in-process engine and, under the ``fork`` start method, the shard
    workers too (a worker assertion surfaces as ``WorkerCallError``).
    Returns the count of checks made in this process, by ``"runtime"``
    and ``"row"``.
    """
    original_tick = AwakeSet.tick
    original_call = EngineCore._call
    snapshots = weakref.WeakKeyDictionary()
    checked = Counter()

    def checked_tick(self, runtimes, dt):
        parked = self.parked_positions()
        held = snapshots.setdefault(self, {})
        for position in set(held) - set(parked):
            del held[position]
        for position in parked:
            runtime = runtimes[position]
            assert runtime.dormant(dt), f"parked runtime {position} not dormant"
            assert runtime.backlog() == 0.0
            assert runtime.queue_length() == 0
            state = freeze(runtime)
            assert held.setdefault(position, state) == state, (
                f"parked runtime {position} changed without being woken"
            )
            checked["runtime"] += 1
        return original_tick(self, runtimes, dt)

    def checked_call(core, phase, budget=1):
        status = original_call(core, phase, budget)
        parked = core._columns.parked()
        core._columns.store(parked)
        for position in parked.tolist():
            assert assert_fixed_point(core._runtime_list[position], core._dt), (
                f"parked row {position} not dormant"
            )
            checked["row"] += 1
        return status

    monkeypatch.setattr(AwakeSet, "tick", checked_tick)
    monkeypatch.setattr(EngineCore, "_call", checked_call)
    return checked


def under_parked_contract(producer):
    """``producer`` with :func:`parked_contract_monitor` on for each call."""

    @functools.wraps(producer)
    def monitored(*args, **kwargs):
        with pytest.MonkeyPatch.context() as monkeypatch:
            parked_contract_monitor(monkeypatch)
            return producer(*args, **kwargs)

    return monitored
