
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;
typedef uint8_t u8;
typedef unsigned __int128 u128;

enum { BUDGET = 0, ASLEEP = 1, CUT = 2, FALLBACK = 3, ACK = 4, FAILED = -1 };
enum { EPOCH = 0, CONTEND = 1, RESOLVE = 2, FIRE = 3 };
enum { SOURCE = 1, RELAY = 2, DESTINATION = 3, UNICAST = 4 };

/* -- Every node's streams: numpy's SeedSequence, PCG64 and Generator draws -- */

/* numpy's bitgen_t (numpy/random/bitgen.h), declared here so that no numpy
   or Python header is needed: libnpyrandom.a's distributions take one. */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* Generator.standard_exponential's draw, from libnpyrandom.a. */
double random_standard_exponential(bitgen_t *bitgen_state);

typedef struct { u128 state, inc; } Pcg;

/* PCG64's next 64 bits (numpy's pcg64_next64): an LCG step, then XSL-RR. */
static uint64_t pcg_next(void *st) {
    Pcg *g = st;
    g->state = g->state * ((u128)2549297995355413924ULL << 64 | 4865540595714422341ULL) + g->inc;
    uint64_t word = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    unsigned rot = (unsigned)(g->state >> 122);
    return word >> rot | word << (-rot & 63u);
}

/* PCG64's next_double: Generator.random's draw. */
static double pcg_double(void *st) {
    return (double)(pcg_next(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* zlib's crc32 of a string. */
static uint32_t crc32_of(const char *text) {
    uint32_t crc = 0xFFFFFFFFu;
    for (; *text; text++) {
        crc ^= (u8)*text;
        for (int bit = 0; bit < 8; bit++) crc = crc >> 1 ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
    return ~crc;
}

/* SeedSequence's hashmix and mix (numpy/random/bit_generator.pyx). */
static uint32_t hashmix(uint32_t value, uint32_t *hash) {
    value ^= *hash;
    *hash *= 0x931e8875u;
    value *= *hash;
    return value ^ value >> 16;
}

static uint32_t mix(uint32_t x, uint32_t y) {
    uint32_t result = 0xca01f9ddu * x - 0x4973f715u * y;
    return result ^ result >> 16;
}

/* One StreamBank: per row a block of values its node's generator has
   drawn, a cursor (at ``block``: nothing held) and the generator's PCG64
   state as four words (state high, low; inc high, low; inc 0: not seeded
   yet, as a seeded inc is odd).  ``entropy`` is the master seed's
   SeedSequence entropy, padded to the pool, without the spawn key;
   ``unbanked`` counts the takes whose rest was wider than a block. */
typedef struct {
    i64 block, exponential, words, unbanked;
    const uint32_t *entropy;
    const char *name;
    double *values;
    i64 *cursor;
    uint64_t *state;
    const i64 *nodes;
} Bank;

/* RngFactory(seed).derive(name, node): PCG64 seeded from
   SeedSequence(entropy=seed, spawn_key=(crc32("<name>#<node>"),)). */
static Pcg seeded(const Bank *b, i64 node) {
    char key[64];
    snprintf(key, sizeof key, "%s#%lld", b->name, (long long)node);
    uint32_t spawn = crc32_of(key), pool[4], hash = 0x43b0d7e5u, words[8];
    i64 count = b->words + 1;  /* the entropy, then the spawn key */
#define WORD(i) ((i) < b->words ? b->entropy[i] : spawn)
    for (i64 i = 0; i < 4; i++) pool[i] = hashmix(i < count ? WORD(i) : 0u, &hash);
    for (int src = 0; src < 4; src++)
        for (int dst = 0; dst < 4; dst++)
            if (src != dst) pool[dst] = mix(pool[dst], hashmix(pool[src], &hash));
    for (i64 src = 4; src < count; src++)
        for (int dst = 0; dst < 4; dst++) pool[dst] = mix(pool[dst], hashmix(WORD(src), &hash));
#undef WORD
    hash = 0x8b51f9ddu;  /* generate_state(4, uint64) */
    for (int i = 0; i < 8; i++) {
        uint32_t value = pool[i % 4] ^ hash;
        hash *= 0x58f38dedu;
        value *= hash;
        words[i] = value ^ value >> 16;
    }
    u128 seed = (u128)words[1] << 96 | (u128)words[0] << 64 | (u128)words[3] << 32 | words[2];
    u128 stream = (u128)words[5] << 96 | (u128)words[4] << 64 | (u128)words[7] << 32 | words[6];
    Pcg g = {0, stream << 1 | 1u};  /* pcg64_set_seed */
    pcg_next(&g);
    g.state += seed;
    pcg_next(&g);
    return g;
}

/* The next ``count`` values of ``row``'s generator into ``out``, by the
   call the scalar consumer makes: standard_exponential ("mac") or random
   ("channel").  A row's first draw seeds its generator. */
static void draw(Bank *b, i64 row, double *out, i64 count) {
    uint64_t *word = b->state + 4 * row;
    Pcg g = {(u128)word[0] << 64 | word[1], (u128)word[2] << 64 | word[3]};
    if (!word[3]) g = seeded(b, b->nodes[row]);
    bitgen_t bitgen = {&g, pcg_next, NULL, pcg_double, pcg_next};  /* no 32-bit draws */
    for (i64 i = 0; i < count; i++)
        out[i] = b->exponential ? random_standard_exponential(&bitgen) : pcg_double(&g);
    word[0] = (uint64_t)(g.state >> 64);
    word[1] = (uint64_t)g.state;
    word[2] = (uint64_t)(g.inc >> 64);
    word[3] = (uint64_t)g.inc;
}

/* StreamBank.take of one row: the next ``count`` values into ``out`` --
   what the row holds, then a fresh block; the rest of a take wider than
   a block comes straight from the generator and leaves the row empty. */
static void take(Bank *b, i64 row, i64 count, double *out) {
    i64 block = b->block, *cursor = b->cursor + row;
    double *values = b->values + row * block;
    i64 held = block - *cursor < count ? block - *cursor : count;
    if (held) memcpy(out, values + *cursor, (size_t)held * sizeof(double));
    *cursor += held;
    count -= held;
    out += held;
    if (!count) return;
    if (count > block) {
        b->unbanked++;
        draw(b, row, out, count);
        return;
    }
    draw(b, row, values, block);
    memcpy(out, values, (size_t)count * sizeof(double));
    *cursor = count;
}

/* StreamBank.take: counts[i] values of rows[i] (one each without counts),
   concatenated into ``out``. */
void bank_take(Bank *b, i64 n, const i64 *rows, const i64 *counts, double *out) {
    for (i64 i = 0; i < n; i++) {
        i64 count = counts ? counts[i] : 1;
        take(b, rows[i], count, out);
        out += count;
    }
}

/* -- The slot loop -- */

typedef struct {
    i64 rows, width, rx_width, cov_width, pad, credit_count, unicasts;
    i64 blanking, cut, ticks, park_interval, named, id_capacity, sink_capacity, decode_limit;
    i64 slots, ids, contenders, fallbacks, sunk, decodes, phase, grants;
    double floor, smoothing;
    /* Columns */
    const int8_t *role;
    const u8 *credit_mode, *source, *destination, *rate_relay, *upstream, *pending;
    const double *increment, *tx_credit, *cap, *accrual;
    double *credit, *demand, *enqueued, *information;
    const i64 *blocks, *session, *limit, *credit_rows;
    i64 *generation, *queue, *levels, *generated, *sent, *dropped, *heard, *accepted;
    i64 *decoded, *decoded_blocks;
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
    /* the two StreamBanks, and each hosted position's row in them */
    Bank *mac, *loss;
    const i64 *mac_rows, *loss_rows;
    /* what a call hands back */
    i64 *slot_granted, *slot_contenders, *granted_ids, *contender_out, *fallback_out, *sink_out;
    double *key_out;
    /* what a finish is given: the slot's granted node ids */
    const i64 *grant_in;
} Core;

typedef struct { double key; i64 position; } Keyed;

typedef struct {
    i64 *contenders, *granted, *ids, *tx_row, *tx_rank, *tx_level, *counts, *covered;
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

/* _SenderRuntime._drain on one row. */
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

/* UnicastRuntime.on_slot of every unicast row: a packet per whole credit,
   what does not fit dropped. */
static void tick_unicast(Core *c) {
    for (i64 i = 0; i < c->unicasts; i++) {
        i64 r = c->unicast_rows[i];
        if (!c->offered[r]) continue;
        double credit = c->credit[r] + c->arrival[r];
        if (credit >= 1.0) {
            double make = trunc(credit);
            credit -= make;
            i64 room = c->limit[r] - c->queue[r];
            i64 queued = room <= 0 ? 0 : make < (double)room ? (i64)make : room;
            c->dropped[r] += (i64)(make - (double)queued);
            for (i64 q = 0; q < queued; q++) push(c, r, c->next_seq[r]++);
            c->generated[r] += queued;
        }
        c->credit[r] = credit;
    }
}

/* Every row's on_slot: the contenders (ascending) and their weights; -1 on failure. */
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

/* One lottery key per contender, from its "mac" row. */
static void draw_keys(Core *c, Scratch *w, i64 k) {
    for (i64 i = 0; i < k; i++) {
        double draw;
        take(c->mac, c->mac_rows[w->contenders[i]], 1, &draw);
        w->order[i].key = draw / maximum(w->weights[i], c->floor);
        w->order[i].position = w->contenders[i];
    }
}

/* The loss runs, one per fired row from its "channel" row, into w->uniforms. */
static void draw_uniforms(Core *c, Scratch *w, i64 fired) {
    for (i64 t = 0, at = 0; t < fired; at += w->counts[t++])
        take(c->loss, c->loss_rows[w->tx_row[t]], w->counts[t], w->uniforms + at);
}

/* Hand a sink's delivery or a destination's decode back for Python's
   callback: (slot, rank, place, position, sequence or generation). */
static void sink(Core *c, i64 rank, i64 place, i64 pos, i64 value) {
    i64 *out = c->sink_out + 5 * c->sunk++;
    out[0] = c->slots;
    out[1] = rank;
    out[2] = place;
    out[3] = pos;
    out[4] = value;
}

/* on_receive of one arrival; 1 if it is left to the object path, 2 if it
   completes a destination's generation. */
static int absorb(Core *c, i64 pos, i64 t, i64 cell, const Scratch *w) {
    i64 sender = w->tx_row[t], generation = c->generation[sender];
    int relay = c->role[pos] == RELAY, destination = c->role[pos] == DESTINATION, decoded = 0;
    i64 ours = c->generation[pos], blocks = c->blocks[pos];
    int current = generation == ours;
    double held = c->information[pos];
    int innovative = (double)w->tx_level[t] > held && held < (double)blocks;
    int heard = relay || (destination && current && c->session[sender] == c->session[pos]);
    if (relay && generation > ours) return 1;
    if (heard) c->heard[pos] += 1;
    if (heard && current && innovative) {
        c->information[pos] = minimum((double)blocks, held + 1.0);
        c->accepted[pos] += 1;
        decoded = destination && c->information[pos] >= (double)blocks;
    }
    if (decoded) {
        c->decoded[pos] += 1;
        c->decoded_blocks[pos] += blocks;
    }
    if (c->credit_count && c->upstream[sender * c->rx_width + cell]) {
        c->credit[pos] += c->tx_credit[pos];
        if (c->credit[pos] >= 1.0 && c->information[pos] >= 1.0 && drain(c, pos)) return -1;
    }
    c->delivered[sender * c->rx_width + cell] = 1;
    return decoded ? 2 : 0;
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
        sink(c, w->tx_rank[t], 0, pos, sequence);
    } else if (c->queue[pos] >= c->limit[pos]) {
        c->dropped[pos] += 1;
    } else {
        push(c, pos, sequence);
    }
    return 0;
}

/* _fire of the hosted ones among the granted node ``ids`` (rank = index),
   half-duplex and blanking coverage counted over all of them.  Then, where
   the slot is this core's (``local``), _resolve at the receivers and for
   unicast rows _settle's verdicts, in the scalar form's order; else every
   arrival handed back, no row touched.  -1 on failure.  A fired unicast
   row has tx_level -1. */
static int broadcast(Core *c, Scratch *w, const i64 *ids, i64 granted, int local) {
    i64 width = c->width, rw = c->rx_width, fired = 0, at = 0;
    int unicast = c->unicasts > 0;  /* else none of the unicast branches below is taken */
    for (i64 i = 0; i < granted; i++) {
        i64 r = c->position_of[ids[i]];
        if (r < 0 || c->queue[r] <= 0) continue;  /* another core's, or nothing queued */
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
    for (i64 i = 0; i < granted; i++) w->transmitting[ids[i]] = 1;
    if (c->blanking) {
        for (i64 i = 0; i < granted; i++) {
            const i64 *cov = c->cov + c->cov_row[ids[i]] * c->cov_width;
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
    for (i64 i = 0; i < granted; i++) w->transmitting[ids[i]] = 0;
    if (c->blanking)
        for (i64 i = 0; i < granted; i++) {
            const i64 *cov = c->cov + c->cov_row[ids[i]] * c->cov_width;
            for (i64 j = 0; j < c->cov_width; j++) w->covered[cov[j]] = 0;
        }
    draw_uniforms(c, w, fired);
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
            int back = 1;
            if (local) {
                if (pos < 0) return -1;  /* another core's receiver */
                c->awake[pos] = 1;
                back = absorb(c, pos, t, j, w);
                if (back < 0) return -1;
                if (back == 2) {
                    sink(c, w->tx_rank[t], place, pos, c->generation[pos]);
                    c->decodes++;
                    back = 0;
                }
            }
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

/* The slot's first half: the tick and the lottery keys; the contender
   count, or -1 on failure. */
static i64 contend(Core *c, Scratch *w) {
    i64 k = tick(c, w);
    if (k > 0) draw_keys(c, w, k);
    return k;
}

/* Hand the k contenders' keys and positions back, in position order. */
static int hand_back(Core *c, const Scratch *w, i64 k) {
    for (i64 j = 0; j < k; j++) {
        c->key_out[j] = w->order[j].key;
        c->contender_out[j] = w->contenders[j];
    }
    c->contenders = k;
    return CUT;
}

/* advance_generation(generation) on every row: a coded row behind it
   takes it up and empties its queue, a relay or destination its
   information, a credit-mode relay its credit; every row wakes. */
static void advance(Core *c, i64 generation) {
    for (i64 r = 0; r < c->rows; r++) {
        c->awake[r] = 1;
        if (c->role[r] == UNICAST || c->generation[r] >= generation) continue;
        c->generation[r] = generation;
        if (c->role[r] != DESTINATION) {
            memset(c->levels + r * c->width, 0, sizeof(i64) * (size_t)c->width);
            c->queue[r] = 0;
        }
        if (c->role[r] != SOURCE) c->information[r] = 0.0;
        if (c->role[r] == RELAY && c->credit_mode[r]) c->credit[r] = 0.0;
    }
}

/* The ACK of each generation decoded since hand-back ``from``: every row
   advanced past it, in decode order; 1 (nothing advanced) if a row holds a
   deferred coding decision, which only its object takes up. */
static int acknowledge(Core *c, i64 from) {
    for (i64 r = 0; r < c->rows; r++)
        if (c->pending[r]) return 1;
    for (i64 i = from; i < c->sunk; i++) {
        const i64 *out = c->sink_out + 5 * i;
        if (c->role[out[3]] == DESTINATION) advance(c, out[4] + 1);
    }
    return 0;
}

/* The slot's second half, given its granted node ids: broadcast, then the
   queue samples unless the slot is not this core's alone (FIRE) or an
   arrival is left to the object path (FALLBACK: not sampled yet), then the
   ACKs of what it decoded (ACK: left to Python). */
static int finish(Core *c, Scratch *w, const i64 *ids, i64 granted, int local) {
    i64 sunk = c->sunk, decodes = c->decodes;
    if (granted && broadcast(c, w, ids, granted, local)) return FAILED;
    if (!local || c->fallbacks) return FALLBACK;
    for (i64 r = 0; r < c->rows; r++) c->queue_time[r] += (double)c->queue[r];
    if (c->decodes > decodes && acknowledge(c, sunk)) return ACK;
    for (i64 r = 0; r < c->rows; r++)
        if (c->awake[r]) return BUDGET;
    return ASLEEP;
}

/* One slot of an epoch: contend, grant over the local keys, finish. */
static int slot(Core *c, Scratch *w) {
    i64 k = contend(c, w), granted = 0;
    if (k < 0) return FAILED;
    if (c->cut)
        for (i64 i = 0; i < k; i++)
            if (c->cut_mask[w->contenders[i]]) return hand_back(c, w, k);
    qsort(w->order, (size_t)k, sizeof(Keyed), by_key);
    memset(w->blocked, 0, (size_t)c->rows);
    for (i64 i = 0; i < k; i++) {
        i64 r = w->order[i].position;
        if (w->blocked[r]) continue;
        w->granted[granted++] = r;
        for (i64 j = c->conflict_ptr[r]; j < c->conflict_ptr[r + 1]; j++)
            w->blocked[c->conflict[j]] = 1;
    }
    c->slot_contenders[c->slots] = k;
    c->slot_granted[c->slots] = granted;
    for (i64 i = 0; i < granted; i++) {
        w->ids[i] = c->node_of[w->granted[i]];
        if (c->named) c->granted_ids[c->ids++] = w->ids[i];
    }
    int status = finish(c, w, w->ids, granted, 1);
    if (status == BUDGET || status == ASLEEP || status == ACK) c->slots++;
    return status;
}

/* By c->phase: an epoch of up to ``budget`` slots and ``decode_limit``
   decodes (-1: any number), or one half of a slot whose grant is made
   elsewhere (a FIRE takes no unicast row). */
int slots_run(Core *c, i64 budget) {
    i64 n = c->rows + 1, cells = n * (c->rx_width + 1), nodes = c->pad + 1;
    Scratch w;
    w.contenders = malloc(sizeof(i64) * (size_t)n);
    w.granted = malloc(sizeof(i64) * (size_t)n);
    w.ids = malloc(sizeof(i64) * (size_t)n);
    w.tx_row = malloc(sizeof(i64) * (size_t)n);
    w.tx_rank = malloc(sizeof(i64) * (size_t)n);
    w.tx_level = malloc(sizeof(i64) * (size_t)n);
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
    c->slots = c->ids = c->contenders = c->fallbacks = c->sunk = c->decodes = 0;
    if (!w.contenders || !w.granted || !w.ids || !w.tx_row || !w.tx_rank || !w.tx_level
        || !w.counts || !w.covered || !w.weights || !w.uniforms || !w.order
        || !w.blocked || !w.transmitting || !w.candidate || !w.hit || !w.reached
        || (c->phase == FIRE && c->unicasts)) {
        status = FAILED;
    } else if (c->phase == CONTEND) {
        i64 k = contend(c, &w);
        status = k < 0 ? FAILED : hand_back(c, &w, k);
    } else if (c->phase != EPOCH) {
        status = finish(c, &w, c->grant_in, c->grants, c->phase == RESOLVE);
    } else {
        while (c->slots < budget && status == BUDGET) {
            if (c->decode_limit >= 0 && c->decodes >= c->decode_limit) break;
            if (c->named && c->ids + c->rows > c->id_capacity) break;
            if (c->sunk + c->rows > c->sink_capacity) break;  /* a hand-back a row a slot */
            status = slot(c, &w);
        }
    }
    free(w.contenders); free(w.granted); free(w.ids); free(w.tx_row); free(w.tx_rank);
    free(w.tx_level); free(w.counts); free(w.covered); free(w.weights);
    free(w.uniforms); free(w.order); free(w.blocked); free(w.transmitting); free(w.candidate);
    free(w.hit); free(w.reached);
    return status;
}
