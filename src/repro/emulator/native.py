"""The slot loop compiled: one foreign call per epoch.

:meth:`EngineCore.run_slots <repro.emulator.engine.EngineCore.run_slots>`
hands an array core's epoch to :data:`_C_SOURCE` while the core holds no
object row.  Per slot it runs what the numpy phases run, on the arrays
they own, in place: :meth:`Columns.tick <repro.emulator.columns.Columns.tick>`
(credit, cap, drain, drops, the credit-mode EWMA, contenders and
weights, the park check), the lottery keys, the stable (key, position)
order and the greedy grant, ``_fire_arrays`` (pop, transmitting and
blanking coverage, one loss run per transmitter in grant order),
:meth:`Columns.absorb` taken row-major, and :meth:`Columns.sample`.  It is
exact, not close: every double operation is the numpy form's, in its
order, compiled with ``-ffp-contract=off`` (no FMA contraction, no
``-ffast-math``, no ``-march``).

Unicast rows (:class:`~repro.emulator.node.UnicastRuntime`, ETX) have
no numpy phases: for them the loop runs the scalar form, in its order —
``on_slot``'s one-credit-at-a-time tick, contention on a queue and a
next hop, the attempt (one uniform of the row's loss stream, drawn only
past the half-duplex and blanking checks and at ``p > 0``), the
append or drop at the hop, and ``complete_transmission``'s verdicts
before the queues are sampled.  A delivery to a sink is handed back as
``(slot, rank, position, sequence)`` for Python to call its
``on_delivered``.

A call returns on any of five exits, each at a slot boundary the numpy
form also stops at, or before ``_settle`` of a slot Python finishes:
the budget is spent (or the named-grant buffer is full), nothing is
left awake, a hosted node on the cut contends (:data:`CUT`: the keys and
contenders are handed back), or an arrival takes the object path —
a relay hearing a newer generation, a destination completing its own
(:data:`FALLBACK`: the arrivals are handed back, the slot is not
sampled yet).  A bank row that runs short is refilled through a
callback into :meth:`StreamBank._refill <repro.util.rng.StreamBank>`,
and a loss take wider than a block is served whole by
``StreamBank._take_unbanked``, so the banks end where the numpy form
leaves them.

:func:`load` compiles the source on first use (:mod:`repro.util.clib`)
and opens it; :func:`~repro.emulator.engine.compiled_kernel` self-tests
it before any core runs on it.  :class:`Core` mirrors the C struct
field for field (every field 8 bytes, so no padding).
"""

from __future__ import annotations

import ctypes
from typing import Callable, Optional, Tuple

import numpy as np

from repro.util import clib

_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;
typedef uint8_t u8;

enum { BUDGET = 0, ASLEEP = 1, CUT = 2, FALLBACK = 3, FAILED = -1 };
enum { SOURCE = 1, RELAY = 2, DESTINATION = 3, UNICAST = 4 };

typedef int (*Refill)(i64 bank, i64 row);
typedef int (*Unbanked)(i64 count, const i64 *rows, const i64 *counts, double *out);

typedef struct {
    i64 rows, width, rx_width, cov_width, pad, mac_block, loss_block, credit_count, unicasts;
    i64 blanking, cut, ticks, park_interval, named, id_capacity, sink_capacity;
    i64 slots, ids, contenders, fallbacks, sunk;
    double floor, smoothing;
    /* Columns */
    const int8_t *role;
    const u8 *credit_mode, *source, *destination, *rate_relay, *upstream;
    const double *increment, *tx_credit, *cap, *accrual;
    double *credit, *demand, *enqueued, *information;
    const i64 *blocks, *generation, *session, *limit, *credit_rows;
    i64 *queue, *levels, *generated, *sent, *dropped, *heard, *accepted;
    u8 *awake;
    /* Columns: the unicast rows' own */
    const i64 *unicast_rows, *next_hop, *hop_cell, *ring_ptr;
    const double *arrival, *hop_p;
    const u8 *offered;
    i64 *next_seq, *head, *ring;
    /* EngineCore */
    const i64 *rx_ids, *cov, *cov_row, *position_of, *node_of, *conflict_ptr, *conflict;
    const double *rx_p;
    const u8 *cut_mask;
    double *queue_time;
    i64 *fired;
    u8 *delivered;
    /* the two StreamBanks */
    double *mac_values, *loss_values;
    i64 *mac_cursor, *loss_cursor;
    const i64 *mac_rows, *loss_rows;
    Refill refill;
    Unbanked unbanked;
    /* what a call hands back */
    i64 *slot_granted, *slot_contenders, *granted_ids, *contender_out, *fallback_out, *sink_out;
    double *key_out;
} Core;

typedef struct { double key; i64 position; } Keyed;

typedef struct {
    i64 *contenders, *granted, *tx_row, *tx_rank, *tx_level, *tx_loss_row, *counts, *covered;
    double *weights, *uniforms;
    Keyed *order;
    u8 *blocked, *transmitting, *candidate, *hit, *reached;
} Scratch;

/* numpy's minimum / maximum: NaN-propagating. */
static double minimum(double a, double b) { return (a <= b || a != a) ? a : b; }
static double maximum(double a, double b) { return (a >= b || a != a) ? a : b; }

static int by_key(const void *x, const void *y) {
    const Keyed *a = x, *b = y;
    if (a->key < b->key) return -1;
    if (b->key < a->key) return 1;
    return (a->position > b->position) - (a->position < b->position);
}

/* Columns._drain on one row. */
static int drain(Core *c, i64 r) {
    double make = trunc(c->credit[r]);
    c->credit[r] -= make;
    i64 room = c->limit[r] - c->queue[r];
    if (make > (double)room) {
        c->dropped[r] += (i64)(make - (double)room);
        make = (double)room;
    }
    i64 made = (i64)make;
    int source = c->role[r] == SOURCE;
    i64 level = source ? c->blocks[r] : (i64)c->information[r];
    if (level < 0 || level >= c->width) return -1;
    c->levels[r * c->width + level] += made;
    c->queue[r] += made;
    c->generated[r] += made;
    c->enqueued[r] += source ? 0.0 : make;
    return 0;
}

static int dormant(const Core *c, i64 r) {
    if (c->unicasts && c->role[r] == UNICAST) return !c->offered[r];
    double credit = c->credit[r];
    int pinned = minimum(credit + c->accrual[r], c->cap[r]) == credit;
    int spent = credit < 1.0 || c->information[r] < 1.0;
    return c->destination[r] || (c->rate_relay[r] && c->queue[r] == 0 && pinned && spent);
}

/* Append ``seq`` to unicast row r's FIFO, which has room. */
static void push(Core *c, i64 r, i64 seq) {
    i64 size = c->ring_ptr[r + 1] - c->ring_ptr[r];
    c->ring[c->ring_ptr[r] + (c->head[r] + c->queue[r]) % size] = seq;
    c->queue[r] += 1;
}

/* UnicastRuntime.on_slot of every unicast row: one credit at a time. */
static void tick_unicast(Core *c) {
    for (i64 i = 0; i < c->unicasts; i++) {
        i64 r = c->unicast_rows[i];
        if (!c->offered[r]) continue;
        double credit = c->credit[r] + c->arrival[r];
        while (credit >= 1.0) {
            credit -= 1.0;
            if (c->queue[r] >= c->limit[r]) {
                c->dropped[r] += 1;
                continue;
            }
            push(c, r, c->next_seq[r]++);
            c->generated[r] += 1;
        }
        c->credit[r] = credit;
    }
}

/* Columns.tick: the contenders (ascending) and their weights; -1 on failure. */
static i64 tick(Core *c, Scratch *w) {
    i64 n = c->rows, k = 0;
    for (i64 r = 0; r < n; r++) c->credit[r] = minimum(c->credit[r] + c->accrual[r], c->cap[r]);
    for (i64 r = 0; r < n; r++)
        if (c->credit[r] >= 1.0 && (c->information[r] >= 1.0 || c->source[r]))
            if (drain(c, r)) return -1;
    for (i64 i = 0; i < c->credit_count; i++) {
        i64 r = c->credit_rows[i];
        double demand = c->demand[r];
        demand += c->smoothing * (c->enqueued[r] - demand);
        c->demand[r] = demand;
        c->enqueued[r] = 0.0;
    }
    int unicast = c->unicasts > 0;
    if (unicast) tick_unicast(c);
    for (i64 r = 0; r < n; r++) {
        if (!c->queue[r]) continue;
        if (unicast && c->role[r] == UNICAST && c->next_hop[r] < 0) continue;  /* a sink */
        w->contenders[k] = r;
        w->weights[k++] = c->credit_count && c->credit_mode[r] ? c->demand[r] : c->increment[r];
    }
    if (++c->ticks % c->park_interval == 0)
        for (i64 r = 0; r < n; r++)
            if (c->awake[r] && c->queue[r] == 0 && dormant(c, r)) c->awake[r] = 0;
    return k;
}

/* StreamBank.take of one value per row (the lottery). */
static int draw_keys(Core *c, Scratch *w, i64 k) {
    i64 block = c->mac_block;
    for (i64 i = 0; i < k; i++) {
        i64 row = c->mac_rows[w->contenders[i]];
        if (c->mac_cursor[row] + 1 > block && c->refill(0, row)) return -1;
        double draw = c->mac_values[row * block + c->mac_cursor[row]++];
        w->order[i].key = draw / maximum(w->weights[i], c->floor);
        w->order[i].position = w->contenders[i];
    }
    return 0;
}

/* StreamBank.take with counts (the loss runs), into w->uniforms. */
static int draw_uniforms(Core *c, Scratch *w, i64 fired) {
    i64 block = c->loss_block, wide = 0, at = 0;
    for (i64 t = 0; t < fired; t++) {
        w->tx_loss_row[t] = c->loss_rows[w->tx_row[t]];
        wide |= w->counts[t] > block;
    }
    if (wide) return c->unbanked(fired, w->tx_loss_row, w->counts, w->uniforms) ? -1 : 0;
    for (i64 t = 0; t < fired; t++) {
        i64 row = w->tx_loss_row[t], count = w->counts[t];
        if (c->loss_cursor[row] + count > block && c->refill(1, row)) return -1;
        memcpy(w->uniforms + at, c->loss_values + row * block + c->loss_cursor[row],
               (size_t)count * sizeof(double));
        c->loss_cursor[row] += count;
        at += count;
    }
    return 0;
}

/* Columns.absorb of one arrival; 1 if it is left to the object path. */
static int absorb(Core *c, i64 pos, i64 t, i64 cell, const Scratch *w) {
    i64 sender = w->tx_row[t], generation = c->generation[sender];
    int relay = c->role[pos] == RELAY;
    i64 ours = c->generation[pos], blocks = c->blocks[pos];
    int current = generation == ours;
    double held = c->information[pos];
    int innovative = (double)w->tx_level[t] > held && held < (double)blocks;
    int heard = relay || (c->role[pos] == DESTINATION && current
                          && c->session[sender] == c->session[pos]);
    if ((relay && generation > ours)
        || (heard && !relay && innovative && held + 1.0 >= (double)blocks))
        return 1;
    if (heard) c->heard[pos] += 1;
    if (heard && current && innovative) {
        c->information[pos] = minimum((double)blocks, held + 1.0);
        c->accepted[pos] += 1;
    }
    if (c->credit_count && c->upstream[sender * c->rx_width + cell]) {
        c->credit[pos] += c->tx_credit[pos];
        if (c->credit[pos] >= 1.0 && c->information[pos] >= 1.0 && drain(c, pos)) return -1;
    }
    c->delivered[sender * c->rx_width + cell] = 1;
    return 0;
}

/* UnicastRuntime.receive_sequence at the next hop of fired unicast row t,
   whose head got through; -1 if the hop is not a hosted unicast neighbour. */
static int deliver(Core *c, const Scratch *w, i64 t) {
    i64 sender = w->tx_row[t], cell = c->hop_cell[sender];
    i64 pos = c->position_of[c->next_hop[sender]];
    if (cell < 0 || pos < 0 || c->role[pos] != UNICAST) return -1;
    i64 sequence = c->ring[c->ring_ptr[sender] + c->head[sender]];
    c->awake[pos] = 1;
    c->delivered[sender * c->rx_width + cell] = 1;
    if (c->next_hop[pos] < 0) {
        c->accepted[pos] += 1;
        i64 *out = c->sink_out + 4 * c->sunk++;
        out[0] = c->slots;
        out[1] = w->tx_rank[t];
        out[2] = pos;
        out[3] = sequence;
    } else if (c->queue[pos] >= c->limit[pos]) {
        c->dropped[pos] += 1;
    } else {
        push(c, pos, sequence);
    }
    return 0;
}

/* _fire_arrays then _absorb of the granted positions, and for unicast rows
   _fire, _resolve and _settle's verdicts in the scalar form's order; -1 on
   failure.  A fired unicast row has tx_level -1. */
static int broadcast(Core *c, Scratch *w, i64 granted) {
    i64 width = c->width, rw = c->rx_width, fired = 0, at = 0;
    int unicast = c->unicasts > 0;  /* else none of the unicast branches below is taken */
    for (i64 i = 0; i < granted; i++) {
        i64 r = w->granted[i];
        if (c->queue[r] <= 0) continue;
        if (unicast && c->role[r] == UNICAST) {
            if (c->next_hop[r] < 0) continue;
            w->tx_row[fired] = r;
            w->tx_rank[fired] = i;
            w->tx_level[fired++] = -1;
            continue;
        }
        i64 head = 0;
        for (i64 l = 0; l < width; l++)
            if (c->levels[r * width + l] > 0) { head = l; break; }
        c->levels[r * width + head] -= 1;
        c->queue[r] -= 1;
        c->sent[r] += 1;
        w->tx_row[fired] = r;
        w->tx_rank[fired] = i;
        w->tx_level[fired++] = head;
    }
    if (!fired) return 0;
    for (i64 t = 0; t < fired; t++) c->fired[w->tx_row[t]] += 1;
    for (i64 i = 0; i < granted; i++) w->transmitting[c->node_of[w->granted[i]]] = 1;
    if (c->blanking) {
        for (i64 i = 0; i < granted; i++) {
            const i64 *cov = c->cov + c->cov_row[c->node_of[w->granted[i]]] * c->cov_width;
            for (i64 j = 0; j < c->cov_width; j++) w->covered[cov[j]] += 1;
        }
        w->covered[c->pad] = 0;
    }
    for (i64 t = 0; t < fired; t++) {
        if (unicast && w->tx_level[t] < 0) {  /* half-duplex, blanking, a usable link */
            i64 r = w->tx_row[t], hop = c->next_hop[r];
            w->reached[t] = !w->transmitting[hop] && (!c->blanking || w->covered[hop] <= 1)
                            && c->hop_p[r] > 0.0;
            w->counts[t] = w->reached[t];
            continue;
        }
        i64 count = 0;
        for (i64 j = 0; j < rw; j++) {
            i64 cell = w->tx_row[t] * rw + j, id = c->rx_ids[cell];
            u8 candidate = !w->transmitting[id] && (!c->blanking || w->covered[id] <= 1)
                           && c->rx_p[cell] > 0.0;
            w->candidate[t * rw + j] = candidate;
            count += candidate;
        }
        w->counts[t] = count;
    }
    for (i64 i = 0; i < granted; i++) w->transmitting[c->node_of[w->granted[i]]] = 0;
    if (c->blanking)
        for (i64 i = 0; i < granted; i++) {
            const i64 *cov = c->cov + c->cov_row[c->node_of[w->granted[i]]] * c->cov_width;
            for (i64 j = 0; j < c->cov_width; j++) w->covered[cov[j]] = 0;
        }
    if (draw_uniforms(c, w, fired)) return -1;
    for (i64 t = 0; t < fired; t++) {
        if (unicast && w->tx_level[t] < 0) {
            w->reached[t] = w->reached[t] && w->uniforms[at++] < c->hop_p[w->tx_row[t]];
            continue;
        }
        for (i64 j = 0; j < rw; j++) {
            i64 cell = t * rw + j;
            w->hit[cell] = w->candidate[cell]
                           && w->uniforms[at++] < c->rx_p[w->tx_row[t] * rw + j];
        }
    }
    for (i64 t = 0; t < fired; t++) {
        if (unicast && w->tx_level[t] < 0) {
            if (w->reached[t] && deliver(c, w, t)) return -1;
            continue;
        }
        i64 place = 0;
        for (i64 j = 0; j < rw; j++) {
            if (!w->hit[t * rw + j]) continue;
            i64 receiver = c->rx_ids[w->tx_row[t] * rw + j], pos = c->position_of[receiver];
            c->awake[pos] = 1;
            int back = absorb(c, pos, t, j, w);
            if (back < 0) return -1;
            if (back) {
                i64 *out = c->fallback_out + 7 * c->fallbacks++, sender = w->tx_row[t];
                out[0] = receiver;
                out[1] = w->tx_rank[t];
                out[2] = place;
                out[3] = c->node_of[sender];
                out[4] = c->session[sender];
                out[5] = c->generation[sender];
                out[6] = w->tx_level[t];
            }
            place++;
        }
    }
    for (i64 t = 0; unicast && t < fired; t++) {  /* UnicastRuntime.complete_transmission */
        if (w->tx_level[t] >= 0) continue;
        i64 r = w->tx_row[t];
        c->sent[r] += 1;
        if (w->reached[t]) {
            c->head[r] = (c->head[r] + 1) % (c->ring_ptr[r + 1] - c->ring_ptr[r]);
            c->queue[r] -= 1;
        }
    }
    return 0;
}

static int slot(Core *c, Scratch *w) {
    i64 n = c->rows, k = tick(c, w), granted = 0;
    if (k < 0 || draw_keys(c, w, k)) return FAILED;
    if (c->cut)
        for (i64 i = 0; i < k; i++)
            if (c->cut_mask[w->contenders[i]]) {
                for (i64 j = 0; j < k; j++) {
                    c->key_out[j] = w->order[j].key;
                    c->contender_out[j] = w->contenders[j];
                }
                c->contenders = k;
                return CUT;
            }
    qsort(w->order, (size_t)k, sizeof(Keyed), by_key);
    memset(w->blocked, 0, (size_t)n);
    for (i64 i = 0; i < k; i++) {
        i64 r = w->order[i].position;
        if (w->blocked[r]) continue;
        w->granted[granted++] = r;
        for (i64 j = c->conflict_ptr[r]; j < c->conflict_ptr[r + 1]; j++)
            w->blocked[c->conflict[j]] = 1;
    }
    c->slot_contenders[c->slots] = k;
    c->slot_granted[c->slots] = granted;
    if (c->named)
        for (i64 i = 0; i < granted; i++) c->granted_ids[c->ids++] = c->node_of[w->granted[i]];
    if (granted && broadcast(c, w, granted)) return FAILED;
    if (c->fallbacks) return FALLBACK;
    for (i64 r = 0; r < n; r++) c->queue_time[r] += (double)c->queue[r];
    c->slots++;
    for (i64 r = 0; r < n; r++)
        if (c->awake[r]) return BUDGET;
    return ASLEEP;
}

int slots_run(Core *c, i64 budget) {
    i64 n = c->rows + 1, cells = n * (c->rx_width + 1), nodes = c->pad + 1;
    Scratch w;
    w.contenders = malloc(sizeof(i64) * (size_t)n);
    w.granted = malloc(sizeof(i64) * (size_t)n);
    w.tx_row = malloc(sizeof(i64) * (size_t)n);
    w.tx_rank = malloc(sizeof(i64) * (size_t)n);
    w.tx_level = malloc(sizeof(i64) * (size_t)n);
    w.tx_loss_row = malloc(sizeof(i64) * (size_t)n);
    w.counts = malloc(sizeof(i64) * (size_t)n);
    w.covered = calloc((size_t)nodes, sizeof(i64));
    w.weights = malloc(sizeof(double) * (size_t)n);
    w.uniforms = malloc(sizeof(double) * (size_t)cells);
    w.order = malloc(sizeof(Keyed) * (size_t)n);
    w.blocked = malloc((size_t)n);
    w.transmitting = calloc((size_t)nodes, 1);
    w.candidate = malloc((size_t)cells);
    w.hit = malloc((size_t)cells);
    w.reached = malloc((size_t)n);
    int status = BUDGET;
    c->slots = c->ids = c->contenders = c->fallbacks = c->sunk = 0;
    if (!w.contenders || !w.granted || !w.tx_row || !w.tx_rank || !w.tx_level || !w.tx_loss_row
        || !w.counts || !w.covered || !w.weights || !w.uniforms || !w.order || !w.blocked
        || !w.transmitting || !w.candidate || !w.hit || !w.reached) {
        status = FAILED;
    } else {
        while (c->slots < budget && status == BUDGET) {
            if (c->named && c->ids + c->rows > c->id_capacity) break;
            if (c->unicasts && c->sunk + c->unicasts > c->sink_capacity) break;
            status = slot(c, &w);
        }
    }
    free(w.contenders); free(w.granted); free(w.tx_row); free(w.tx_rank); free(w.tx_level);
    free(w.tx_loss_row); free(w.counts); free(w.covered); free(w.weights); free(w.uniforms);
    free(w.order); free(w.blocked); free(w.transmitting); free(w.candidate); free(w.hit);
    free(w.reached);
    return status;
}
"""

#: What :func:`load`'s kernel returns: the budget (or the named-grant
#: buffer) ran out, nothing is awake, a cut node contends, an arrival
#: takes the object path, or a callback or a level index failed.
BUDGET, ASLEEP, CUT, FALLBACK, FAILED = 0, 1, 2, 3, -1

#: ``refill(bank, row)``: 0 = mac, 1 = channel; non-zero return = failed.
Refill = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_int64, ctypes.c_int64)
#: ``unbanked(count, rows, counts, out)`` for the channel bank.
Unbanked = ctypes.CFUNCTYPE(
    ctypes.c_int, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p
)


def _fields(ints: str, doubles: str, pointers: str) -> list:
    """ctypes fields: the int64s, then the doubles, then the pointers."""
    return [
        *((name, ctypes.c_int64) for name in ints.split()),
        *((name, ctypes.c_double) for name in doubles.split()),
        *((name, ctypes.c_void_p) for name in pointers.split()),
    ]


#: ``(field, attribute, dtype)`` of every :class:`~repro.emulator.columns.Columns`
#: array the kernel reads or writes, those ``Columns._classify`` and
#: ``_align_upstream`` derive included: what the core repoints whenever
#: the columns reallocate.
COLUMNS: Tuple[Tuple[str, str, type], ...] = (
    ("role", "role", np.int8),
    *((name, name, np.bool_) for name in ("credit_mode", "awake")),
    *((name, "_" + name, np.bool_) for name in ("source", "destination", "rate_relay", "upstream")),
    *((name, name, np.float64) for name in (
        "increment", "tx_credit", "credit", "demand", "enqueued", "information"
    )),
    *((name, "_" + name, np.float64) for name in ("cap", "accrual")),
    *((name, name, np.int64) for name in (
        "blocks", "generation", "session", "limit", "queue", "levels",
        "generated", "sent", "dropped", "heard", "accepted",
    )),
    ("credit_rows", "_credit_rows", np.int64),
    ("unicast_rows", "_unicast_rows", np.int64),
    *((name, name, np.int64) for name in ("next_hop", "ring_ptr", "next_seq", "head", "ring")),
    ("hop_cell", "_hop_cell", np.int64),
    *((name, name, np.float64) for name in ("arrival", "hop_p")),
    ("offered", "offered", np.bool_),
)


class Core(ctypes.Structure):
    """One core's arrays and an epoch's outputs, as the kernel sees them."""

    _fields_ = _fields(
        "rows width rx_width cov_width pad mac_block loss_block credit_count unicasts"
        " blanking cut ticks park_interval named id_capacity sink_capacity"
        " slots ids contenders fallbacks sunk",
        "floor smoothing",
        "role credit_mode source destination rate_relay upstream"
        " increment tx_credit cap accrual credit demand enqueued information"
        " blocks generation session limit credit_rows"
        " queue levels generated sent dropped heard accepted awake"
        " unicast_rows next_hop hop_cell ring_ptr arrival hop_p offered next_seq head ring"
        " rx_ids cov cov_row position_of node_of conflict_ptr conflict rx_p cut_mask"
        " queue_time fired delivered"
        " mac_values loss_values mac_cursor loss_cursor mac_rows loss_rows refill unbanked"
        " slot_granted slot_contenders granted_ids contender_out fallback_out sink_out key_out",
    )


def address(array: np.ndarray, dtype: type, shape: Tuple[int, ...]) -> int:
    """``array``'s data pointer, once it is checked to be what the kernel
    reads: ``dtype``, ``shape`` and C-contiguous."""
    assert array.dtype == dtype, (array.dtype, dtype)
    assert array.shape == shape, (array.shape, shape)
    assert array.flags.c_contiguous
    return int(array.ctypes.data)


#: ``slots_run(core, budget) -> status``
Kernel = Callable[..., int]


def load() -> Optional[Kernel]:
    """Build (or find) and dlopen the kernel; ``None`` if either fails.

    Unchecked: :func:`repro.emulator.engine.compiled_kernel` self-tests
    it against the numpy form before any core runs on it.
    """
    so_path = clib.build("slots", _C_SOURCE, ["-O2", "-ffp-contract=off"])
    signature = ([ctypes.c_void_p, ctypes.c_int64], ctypes.c_int)
    lib = None if so_path is None else clib.load(so_path, {"slots_run": signature})
    return None if lib is None else lib.slots_run
