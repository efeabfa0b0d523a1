"""The Table 1 loop compiled: one foreign call per solve.

:meth:`RateControlLoop._converge <repro.optimization.rate_control.RateControlLoop>`
hands the whole subgradient loop to ``repro/kernels/table1.c``
(:data:`SOURCE`) — SUB1 (Dijkstra, or the census's distance-vector
exchange with its message counters), SUB2, the beta / lambda / mu
updates, prefix-sum primal recovery, the per-iteration histories and
the stopping rule — over N >= 1 sessions.
It is exact, not close: every double operation is the Python loop's, in
its order, compiled with ``-ffp-contract=off`` (no FMA contraction, no
``-ffast-math``, no ``-march``), and the Dijkstra heap orders by
(distance, node id), a total order, so it pops what ``heapq`` pops.

:func:`load` compiles that file on first use (:mod:`repro.util.clib`)
and opens it; :func:`~repro.optimization.rate_control.compiled_kernel`
self-tests it before anything runs on it.  The C structs mirror
:class:`Session` and :class:`Loop` field for field (every field 8 bytes,
so no padding).

The same file also prices a re-plan's node-selection flood:
``pseudo_broadcast`` runs
:func:`~repro.routing.pseudo_broadcast.neighborhood_broadcast_cost`'s
greedy for every sender of a network in one call
(:func:`broadcast_costs`), with the Python loop's double operations in
its order and libm's ``pow`` for ``**`` (which is what CPython calls).
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional

import numpy as np

from repro.routing.pseudo_broadcast import RESIDUAL_THRESHOLD, PseudoBroadcastCost
from repro.topology.graph import WirelessNetwork
from repro.util import clib

SOURCE = Path(__file__).parents[1] / "kernels" / "table1.c"

EXHAUSTED, CONVERGED, MORE, FAILED = 0, 1, 2, -1


class Session(ctypes.Structure):
    """One session of the loop: its index tables, its state and buffers."""

    _fields_ = clib.fields(
        "nodes links source destination distance_vector tx_count src_in_count"
        " rate_count flow_count path_len advertisements tokens flow_recovery",
        "path_cost gamma gamma_cap flow_tail",
        "tail head out_ptr out nbr_ptr nbr slot node_id tx src_in p q"
        " prices mus rates prev rate_prefix flow_prefix gamma_prefix"
        " hist_rates hist_gamma path",
    )


class Loop(ctypes.Structure):
    """The loop: its config, the shared beta and the constrained nodes."""

    _fields_ = clib.fields(
        "sessions constrained max_iterations min_iterations patience recovery"
        " iteration stable has_previous done",
        "scale tolerance tail",
        "session con_slot con_ptr con_session con_node beta",
    )


class Kernel(NamedTuple):
    """The kernel's two entry points."""

    #: ``table1_run(loop, theta, count) -> status``
    run: Callable[..., int]
    #: ``pseudo_broadcast(n, ptr, head, p, threshold, missed, tx, covered, count)``
    flood: Callable[..., None]


def load() -> Optional[Kernel]:
    """Build (or find) and dlopen the kernel; ``None`` if either fails.

    Unchecked: :func:`repro.optimization.rate_control.compiled_kernel`
    self-tests it against the Python loop and flood before anything runs
    on it.
    """
    i64, double, pointer = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    signatures = {
        "table1_run": ([pointer, pointer, i64], ctypes.c_int),
        "pseudo_broadcast": ([i64, pointer, pointer, pointer, double, *[pointer] * 4], None),
    }
    lib = clib.load("table1", SOURCE, ["-O2", "-ffp-contract=off"], signatures)
    return None if lib is None else Kernel(lib.table1_run, lib.pseudo_broadcast)


def broadcast_costs(kernel: Kernel, network: WirelessNetwork) -> List[PseudoBroadcastCost]:
    """Every node's :func:`~repro.routing.pseudo_broadcast.neighborhood_broadcast_cost`
    at the default threshold, from one call of ``kernel.flood``; each
    ``covered`` is built as the Python function builds it, so it iterates
    in the same order."""
    n = network.node_count
    ptr, heads, probs = [0], [], []
    for i in range(n):
        out = network.out_neighbors(i)
        heads.extend(out)
        probs.extend([network.probability(i, j) for j in out])
        ptr.append(len(heads))
    tables = [np.array(ptr, dtype=np.int64), np.array(heads, dtype=np.int64), np.array(probs)]
    tx, count = np.empty(n), np.empty(n, dtype=np.int64)
    covered, missed = np.empty(len(heads) + 1, dtype=np.int64), np.empty(len(heads) + 1)
    kernel.flood(
        n, *(table.ctypes.data for table in tables), RESIDUAL_THRESHOLD,
        *(array.ctypes.data for array in (missed, tx, covered, count)),
    )
    ids = covered.tolist()
    return [
        PseudoBroadcastCost(transmissions, frozenset(set(ids[start : start + size])))
        for transmissions, start, size in zip(tx.tolist(), ptr, count.tolist())
    ]
