
#include <math.h>
#include <stdbool.h>
#include <stdio.h>
#include <stdlib.h>

#include "gf256.h"

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

/* Generator.integers(low, high, size=cnt, dtype=np.uint8)'s fill, from
   libnpyrandom.a: rng = high - 1 - low, off = low. */
void random_bounded_uint8_fill(bitgen_t *bitgen_state, uint8_t off, uint8_t rng, intptr_t cnt,
                               bool use_masked, uint8_t *out);

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

/* PCG64 with numpy's buffered half word (has_uint32, uinteger): what
   next_uint32 hands out, and keeps, across calls. */
typedef struct { Pcg g; uint64_t has32, word; } Pcg32;

static uint64_t pcg32_next64(void *st) { return pcg_next(&((Pcg32 *)st)->g); }

static double pcg32_double(void *st) { return pcg_double(&((Pcg32 *)st)->g); }

static uint32_t pcg32_next32(void *st) {
    Pcg32 *s = st;
    if (s->has32) {
        s->has32 = 0;
        return (uint32_t)s->word;
    }
    uint64_t next = pcg_next(&s->g);
    s->has32 = 1;
    s->word = next >> 32;
    return (uint32_t)next;
}

/* ``count`` bytes of Generator.integers(0, 256, size=count, dtype=np.uint8)
   from the generator whose bit_generator.state is ``word``: state high,
   low; inc high, low; has_uint32, uinteger -- read, then written back. */
void coding_draw(uint64_t *word, uint8_t *out, i64 count) {
    Pcg32 s = {{(u128)word[0] << 64 | word[1], (u128)word[2] << 64 | word[3]}, word[4], word[5]};
    bitgen_t bitgen = {&s, pcg32_next64, pcg32_next32, pcg32_double, pcg32_next64};
    random_bounded_uint8_fill(&bitgen, 0, 255, (intptr_t)count, false, out);
    word[0] = (uint64_t)(s.g.state >> 64);
    word[1] = (uint64_t)s.g.state;
    word[2] = (uint64_t)(s.g.inc >> 64);
    word[3] = (uint64_t)s.g.inc;
    word[4] = s.has32;
    word[5] = s.word;
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

/* Rows and positions.  A row is one runtime; a position is one hosted
   node, whose rows are group_ptr[p] .. group_ptr[p + 1] - 1: its runtime,
   or a composite's per-session runtimes in ascending session order
   (``grouped``: some position is a composite).  Without a composite rows
   are positions and group_ptr is the identity.  Per row: the runtime's
   state; per position: the MAC's, the channel's and the awake flag. */
typedef struct {
    i64 rows, positions, width, rx_width, cov_width, pad, credit_count, unicasts, grouped, vwidth;
    i64 blanking, cut, ticks, park_interval, named, id_capacity, sink_capacity, decode_limit;
    i64 slots, ids, contenders, fallbacks, sunk, decodes, phase, grants;
    double floor, smoothing;
    /* Columns */
    const int8_t *role;
    const u8 *credit_mode, *source, *destination, *rate_relay, *upstream, *pending, *exact;
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
    /* Columns: the composites' own */
    const i64 *group_ptr, *row_position;
    const u8 *active, *composite;
    i64 *cursor;
    const i64 *pair_ptr, *pair_rows;
    i64 *xor_sent, *session_tx;
    double *row_queue_time;
    u8 *heard_from;
    const u8 *row_upstream;
    /* Columns: the exact rows' own */
    const u8 *systematic;
    i64 *emitted, *received;
    const i64 *coded_ptr, *coded_cap;
    u8 *coded_ring, *basis;
    i64 *pivots;
    u8 *vectors;
    uint64_t *coding;
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
    u8 *fallback_vectors;
    /* what a finish is given: the slot's granted node ids */
    const i64 *grant_in;
} Core;

/* Hand-back of an arrival: receiver, rank, place, sender, exact, then
   (session, generation, level) per component -- a flow packet's content,
   an exact one's length -- (-1, -1, -1) for a second one it lacks. */
enum { HANDED = 11 };

typedef struct { double key; i64 position; } Keyed;

/* One component of a fired packet: the row it was popped from, that
   row's generation, its level (flow) or length (exact), its vector. */
typedef struct { i64 row, generation, level; const u8 *vector; } Comp;

typedef struct {
    i64 *contenders, *granted, *ids, *tx_pos, *tx_rank, *tx_level, *counts, *covered, *parts;
    double *weights, *uniforms;
    Keyed *order;
    Comp *comps;
    u8 *blocked, *transmitting, *candidate, *hit, *reached, *vectors;
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

static int all_zero(const u8 *v, i64 n) {
    for (i64 i = 0; i < n; i++)
        if (v[i]) return 0;
    return 1;
}

/* Exact row r's ring slot ``at`` packets past its head. */
static u8 *ring_slot(const Core *c, i64 r, i64 at) {
    return c->coded_ring + c->coded_ptr[r] + (c->head[r] + at) % c->coded_cap[r] * c->blocks[r];
}

/* ``count`` vectors of ``k`` bytes from row r's generator, none all zero:
   one draw of count * k, then one of z * k for the z zero ones, in order,
   until none is -- the encoders' draws (count 1: their next_packet); -1
   if the scratch is not there. */
static int draw_nonzero(Core *c, i64 r, u8 *out, i64 count, i64 k) {
    coding_draw(c->coding + 6 * r, out, count * k);
    for (;;) {
        i64 zero = 0;
        for (i64 i = 0; i < count; i++) zero += all_zero(out + i * k, k);
        if (!zero) return 0;
        u8 *redrawn = malloc((size_t)(zero * k));
        if (!redrawn) return -1;
        coding_draw(c->coding + 6 * r, redrawn, zero * k);
        for (i64 i = 0, z = 0; i < count; i++)
            if (all_zero(out + i * k, k)) memcpy(out + i * k, redrawn + k * z++, (size_t)k);
        free(redrawn);
    }
}

/* _emit(count) of exact sender row r: SourceEncoder or RelayReEncoder
   next_packet (count 1) or next_packets(count), each vector appended to
   its ring; -1 if the scratch is not there. */
static int emit(Core *c, i64 r, i64 count) {
    i64 n = c->blocks[r], k = c->role[r] == SOURCE ? n : (i64)c->information[r];
    if (c->role[r] == SOURCE && c->systematic[r] && c->emitted[r] < n) {
        i64 take = count < n - c->emitted[r] ? count : n - c->emitted[r];
        for (i64 i = 0; i < take; i++) {
            u8 *slot = ring_slot(c, r, c->queue[r]++);
            memset(slot, 0, (size_t)n);
            slot[c->emitted[r]++] = 1;
        }
        count -= take;
        if (!count) return 0;
    }
    u8 *drawn = malloc((size_t)(count * k));
    if (!drawn || draw_nonzero(c, r, drawn, count, k)) {
        free(drawn);
        return -1;
    }
    for (i64 i = 0; i < count; i++) {
        u8 *slot = ring_slot(c, r, c->queue[r]++);
        if (c->role[r] == SOURCE) {
            memcpy(slot, drawn + i * n, (size_t)n);
            continue;
        }
        memset(slot, 0, (size_t)n);
        for (i64 j = 0; j < k; j++) addmul(slot, c->vectors + r * c->vwidth * c->vwidth + j * n,
                                           drawn[i * k + j], (size_t)n);
    }
    if (c->role[r] == SOURCE) c->emitted[r] += count;
    free(drawn);
    return 0;
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
    if (c->exact[r]) {
        if (made > 0 && emit(c, r, made)) return -1;
    } else {
        i64 level = source ? c->blocks[r] : (i64)c->information[r];
        if (level < 0 || level >= c->width) return -1;
        c->levels[r * c->width + level] += made;
        c->queue[r] += made;
    }
    c->generated[r] += made;
    c->enqueued[r] += source ? 0.0 : make;
    return 0;
}

static inline int dormant(const Core *c, i64 r) {
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

static inline double weight(const Core *c, i64 r) {
    return c->credit_count && c->credit_mode[r] ? c->demand[r] : c->increment[r];
}

/* The contenders and weights of positions that hold composites: a
   position contends while an active row holds a queue, with the sum of
   its active rows' weights in ascending session order from 0; it parks
   when every active row is idle and dormant. */
static i64 contend_grouped(Core *c, Scratch *w, int check) {
    i64 k = 0;
    for (i64 p = 0; p < c->positions; p++) {
        double total = 0.0;
        int queued = 0, still = 1;
        for (i64 r = c->group_ptr[p]; r < c->group_ptr[p + 1]; r++) {
            if (!c->active[r]) continue;
            total += weight(c, r);
            queued |= c->queue[r] > 0;
            still = still && dormant(c, r);
        }
        if (queued) {
            w->contenders[k] = p;
            w->weights[k++] = total;
        } else if (check && c->awake[p] && still) {
            c->awake[p] = 0;
        }
    }
    return k;
}

/* Every row's on_slot (a composite's active ones): the contenders
   (positions, ascending) and their weights; -1 on failure. */
static i64 tick(Core *c, Scratch *w) {
    i64 n = c->rows, k = 0;
    const u8 *on = c->grouped ? c->active : NULL;
    if (on) {  /* a composite's inactive rows are not ticked */
        for (i64 r = 0; r < n; r++)
            if (on[r]) c->credit[r] = minimum(c->credit[r] + c->accrual[r], c->cap[r]);
        for (i64 r = 0; r < n; r++)
            if (on[r] && c->credit[r] >= 1.0 && (c->information[r] >= 1.0 || c->source[r]))
                if (drain(c, r)) return -1;
    } else {  /* the same loops without the test, as tight as they were */
        for (i64 r = 0; r < n; r++) c->credit[r] = minimum(c->credit[r] + c->accrual[r], c->cap[r]);
        for (i64 r = 0; r < n; r++)
            if (c->credit[r] >= 1.0 && (c->information[r] >= 1.0 || c->source[r]))
                if (drain(c, r)) return -1;
    }
    for (i64 i = 0; i < c->credit_count; i++) {
        i64 r = c->credit_rows[i];
        if (on && !on[r]) continue;
        double demand = c->demand[r];
        demand += c->smoothing * (c->enqueued[r] - demand);
        c->demand[r] = demand;
        c->enqueued[r] = 0.0;
    }
    int check = ++c->ticks % c->park_interval == 0;
    if (c->grouped) return contend_grouped(c, w, check);
    int unicast = c->unicasts > 0;
    if (unicast) tick_unicast(c);
    for (i64 r = 0; r < n; r++) {
        if (!c->queue[r]) continue;
        if (unicast && c->role[r] == UNICAST && c->next_hop[r] < 0) continue;  /* a sink */
        w->contenders[k] = r;
        w->weights[k++] = weight(c, r);
    }
    if (check)
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

/* The loss runs, one per fired position from its "channel" row, into w->uniforms. */
static void draw_uniforms(Core *c, Scratch *w, i64 fired) {
    for (i64 t = 0, at = 0; t < fired; at += w->counts[t++])
        take(c->loss, c->loss_rows[w->tx_pos[t]], w->counts[t], w->uniforms + at);
}

/* Hand a sink's delivery or a destination's decode back for Python's
   callback: (slot, rank, place, row, sequence or generation). */
static void sink(Core *c, i64 rank, i64 place, i64 row, i64 value) {
    i64 *out = c->sink_out + 5 * c->sunk++;
    out[0] = c->slots;
    out[1] = rank;
    out[2] = place;
    out[3] = row;
    out[4] = value;
}

/* pop_transmission's dequeue of row r into component k. */
static inline __attribute__((always_inline)) void dequeue(Core *c, Scratch *w, i64 r, Comp *k) {
    k->row = r;
    k->generation = c->generation[r];
    if (c->exact[r]) {
        u8 *vector = w->vectors + (k - w->comps) * c->vwidth;
        memcpy(vector, ring_slot(c, r, 0), (size_t)c->blocks[r]);
        /* An emptied ring starts over at its first slot: a short queue
           touches only the first pages of a ring sized for a full one. */
        c->head[r] = c->queue[r] > 1 ? (c->head[r] + 1) % c->coded_cap[r] : 0;
        k->level = c->blocks[r];
        k->vector = vector;
    } else {
        i64 head = 0;
        for (i64 l = 0; l < c->width; l++)
            if (c->levels[r * c->width + l] > 0) { head = l; break; }
        c->levels[r * c->width + head] -= 1;
        k->level = head;
    }
    c->queue[r] -= 1;
    c->sent[r] += 1;
}

/* The ``index``-th active row of position p. */
static i64 active_row(const Core *c, i64 p, i64 index) {
    for (i64 r = c->group_ptr[p]; r < c->group_ptr[p + 1]; r++)
        if (c->active[r] && !index--) return r;
    return -1;
}

/* pop_transmission of position p into fired slot t: its runtime's head,
   or a composite's canonical XOR pair whose sessions both hold a queue,
   else its round robin over the active rows; the component count. */
static inline i64 pop(Core *c, Scratch *w, i64 p, i64 t) {
    Comp *k = w->comps + 2 * t;
    if (!c->grouped || !c->composite[p]) {
        i64 r = c->grouped ? c->group_ptr[p] : p;
        if (c->queue[r] <= 0) return 0;
        dequeue(c, w, r, k);
        return 1;
    }
    for (i64 i = c->pair_ptr[p]; i < c->pair_ptr[p + 1]; i++) {
        i64 a = c->pair_rows[2 * i], b = c->pair_rows[2 * i + 1];
        if (!c->active[a] || !c->active[b] || c->queue[a] <= 0 || c->queue[b] <= 0) continue;
        dequeue(c, w, a, k);
        dequeue(c, w, b, k + 1);
        c->session_tx[a] += 1;
        c->session_tx[b] += 1;
        c->xor_sent[p] += 1;
        return 2;
    }
    i64 count = 0;
    for (i64 r = c->group_ptr[p]; r < c->group_ptr[p + 1]; r++) count += c->active[r];
    for (i64 offset = 0; offset < count; offset++) {
        i64 index = (c->cursor[p] + offset) % count, r = active_row(c, p, index);
        if (c->queue[r] <= 0) continue;
        dequeue(c, w, r, k);
        c->cursor[p] = (index + 1) % count;
        c->session_tx[r] += 1;
        return 1;
    }
    return 0;
}

/* The exact half of on_receive at row r: a relay's accept, a
   destination's decoder; 1 if it completes the generation. */
static int take_exact(Core *c, i64 r, const Comp *k) {
    i64 blocks = c->blocks[r], rank = (i64)c->information[r];
    int relay = c->role[r] == RELAY, current = k->generation == c->generation[r];
    int fits = k->level == blocks;  /* a stale-sized packet is not taken */
    if (c->role[r] == SOURCE) return 0;
    if (relay) {  /* packets_heard, then RelayReEncoder.accept */
        c->heard[r] += 1;
        if (!current || !fits || rank >= blocks) return 0;
    } else {  /* CodedDestinationRuntime.on_receive */
        if (!fits || c->session[k->row] != c->session[r] || !current) return 0;
        c->heard[r] += 1;
        if (rank >= blocks) return 0;  /* complete: add_packet is not called */
        c->received[r] += 1;
    }
    u8 row[256];
    size_t counts[2];
    u8 *basis = c->basis + r * c->vwidth * c->vwidth;
    memcpy(row, k->vector, (size_t)blocks);
    if (basis_insert(basis, (ptrdiff_t *)(c->pivots + r * c->vwidth), row, counts,
                     (size_t)blocks, (size_t)blocks, (size_t)rank) < 0)
        return 0;
    if (relay) memcpy(c->vectors + r * c->vwidth * c->vwidth + rank * blocks, k->vector,
                      (size_t)blocks);
    c->information[r] = (double)(rank + 1);
    c->accepted[r] += 1;
    return !relay && rank + 1 >= blocks;
}

/* Whether credit row r counts a packet from sender position sp (node
   ``sender``), heard over the sender's receiver cell ``cell``. */
static inline int counts_upstream(const Core *c, i64 r, i64 sp, i64 cell, i64 sender) {
    if (!c->credit_count) return 0;
    if (c->grouped) return c->row_upstream[r * (c->pad + 1) + sender];
    return c->upstream[sp * c->rx_width + cell];
}

/* on_receive of component k of fired packet t at row r, the place-th
   arrival of t; -1 on failure. */
static inline __attribute__((always_inline)) int absorb(Core *c, const Scratch *w, i64 r, const Comp *k, i64 t, i64 cell, i64 place) {
    i64 generation = k->generation, sp = w->tx_pos[t];
    int decoded = 0;
    if (c->exact[r]) {
        decoded = take_exact(c, r, k);
    } else {
        int relay = c->role[r] == RELAY, destination = c->role[r] == DESTINATION;
        i64 blocks = c->blocks[r];
        int current = generation == c->generation[r];
        double held = c->information[r];
        int innovative = (double)k->level > held && held < (double)blocks;
        int heard = relay || (destination && current && c->session[k->row] == c->session[r]);
        if (heard) c->heard[r] += 1;
        if (heard && current && innovative) {
            c->information[r] = minimum((double)blocks, held + 1.0);
            c->accepted[r] += 1;
            decoded = destination && c->information[r] >= (double)blocks;
        }
    }
    if (decoded) {
        c->decoded[r] += 1;
        c->decoded_blocks[r] += c->blocks[r];
        sink(c, w->tx_rank[t], place, r, c->generation[r]);
        c->decodes++;
    }
    if (counts_upstream(c, r, sp, cell, c->node_of[sp])) {
        c->credit[r] += c->tx_credit[r];
        if (c->credit[r] >= 1.0 && c->information[r] >= 1.0 && drain(c, r)) return -1;
    }
    return 0;
}

/* A relay row hearing a newer generation than its own: the object's. */
static inline int newer(const Core *c, i64 r, const Comp *k) {
    return c->role[r] == RELAY && k->generation > c->generation[r];
}

/* Composite q's active row of ``session``, -1 if none. */
static i64 session_row(const Core *c, i64 q, i64 session) {
    for (i64 r = c->group_ptr[q]; r < c->group_ptr[q + 1]; r++)
        if (c->session[r] == session) return c->active[r] ? r : -1;
    return -1;
}

/* Whether composite q hosts the source of ``session``, active or not:
   COPE's rule for peeling the other component of an XOR. */
static int knows(const Core *c, i64 q, i64 session) {
    for (i64 r = c->group_ptr[q]; r < c->group_ptr[q + 1]; r++)
        if (c->session[r] == session) return c->role[r] == SOURCE;
    return 0;
}

/* on_receive of fired packet t, the place-th arrival of t, at hosted
   position q over cell ``cell``: 0 taken, 1 left to the object path (no
   row touched), -1 on failure.  A composite routes each component to its
   session's active row, an XOR's only where q knows the other one. */
static inline int receive(Core *c, Scratch *w, i64 q, i64 t, i64 cell, i64 place) {
    const Comp *k = w->comps + 2 * t;
    i64 parts = w->parts[t], rows[2] = {-1, -1};
    if (!c->grouped || !c->composite[q]) {  /* an XOR is a composite's to peel */
        i64 r = c->grouped ? c->group_ptr[q] : q;
        if (parts != 1 || newer(c, r, k)) return 1;
        return absorb(c, w, r, k, t, cell, place);
    }
    for (i64 i = 0; i < parts; i++) {
        rows[i] = session_row(c, q, c->session[k[i].row]);
        if (parts == 2 && !knows(c, q, c->session[k[1 - i].row])) rows[i] = -1;
        if (rows[i] >= 0 && newer(c, rows[i], k + i)) return 1;
    }
    i64 sender = c->node_of[w->tx_pos[t]];
    for (i64 i = 0; i < parts; i++) {
        if (rows[i] < 0) continue;
        if (absorb(c, w, rows[i], k + i, t, cell, place)) return -1;
        c->heard_from[rows[i] * (c->pad + 1) + sender] = 1;
    }
    return 0;
}

/* Hand the place-th arrival of fired packet t at ``receiver`` back. */
static void hand_back(Core *c, const Scratch *w, i64 receiver, i64 t, i64 place) {
    i64 f = c->fallbacks++, *out = c->fallback_out + HANDED * f;
    const Comp *k = w->comps + 2 * t;
    out[0] = receiver;
    out[1] = w->tx_rank[t];
    out[2] = place;
    out[3] = c->node_of[w->tx_pos[t]];
    out[4] = c->exact[k->row];
    for (i64 i = 0; i < 2; i++) {
        int here = i < w->parts[t];
        out[5 + 3 * i] = here ? c->session[k[i].row] : -1;
        out[6 + 3 * i] = here ? k[i].generation : -1;
        out[7 + 3 * i] = here ? k[i].level : -1;
        if (here && out[4])
            memcpy(c->fallback_vectors + (2 * f + i) * c->vwidth, k[i].vector, (size_t)k[i].level);
    }
}

/* UnicastRuntime.receive_sequence at the next hop of fired unicast row t,
   whose head got through; -1 if the hop is not a hosted unicast neighbour. */
static int deliver(Core *c, const Scratch *w, i64 t) {
    i64 sender = w->tx_pos[t], cell = c->hop_cell[sender];
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
   row has tx_level -1 (a unicast core has no composite: rows are
   positions). */
static int broadcast(Core *c, Scratch *w, const i64 *ids, i64 granted, int local) {
    i64 rw = c->rx_width, fired = 0, at = 0;
    int unicast = c->unicasts > 0;  /* else none of the unicast branches below is taken */
    for (i64 i = 0; i < granted; i++) {
        i64 p = c->position_of[ids[i]];
        if (p < 0) continue;  /* another core's */
        if (unicast && c->role[p] == UNICAST) {
            if (c->queue[p] <= 0 || c->next_hop[p] < 0) continue;
            w->tx_level[fired] = -1;
        } else if (!(w->parts[fired] = pop(c, w, p, fired))) {
            continue;  /* nothing queued */
        } else {
            w->tx_level[fired] = 0;
        }
        w->tx_pos[fired] = p;
        w->tx_rank[fired++] = i;
    }
    if (!fired) return 0;
    for (i64 t = 0; t < fired; t++) c->fired[w->tx_pos[t]] += 1;
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
            i64 r = w->tx_pos[t], hop = c->next_hop[r];
            w->reached[t] = !w->transmitting[hop] && (!c->blanking || w->covered[hop] <= 1)
                            && c->hop_p[r] > 0.0;
            w->counts[t] = w->reached[t];
            continue;
        }
        i64 count = 0;
        for (i64 j = 0; j < rw; j++) {
            i64 cell = w->tx_pos[t] * rw + j, id = c->rx_ids[cell];
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
            w->reached[t] = w->reached[t] && w->uniforms[at++] < c->hop_p[w->tx_pos[t]];
            continue;
        }
        for (i64 j = 0; j < rw; j++) {
            i64 cell = t * rw + j;
            w->hit[cell] = w->candidate[cell]
                           && w->uniforms[at++] < c->rx_p[w->tx_pos[t] * rw + j];
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
            i64 receiver = c->rx_ids[w->tx_pos[t] * rw + j], q = c->position_of[receiver];
            int back = 1;
            if (local) {
                if (q < 0) return -1;  /* another core's receiver */
                c->awake[q] = 1;
                back = receive(c, w, q, t, j, place);
                if (back < 0) return -1;
                if (!back) c->delivered[w->tx_pos[t] * rw + j] = 1;
            }
            if (back) hand_back(c, w, receiver, t, place);
            place++;
        }
    }
    for (i64 t = 0; unicast && t < fired; t++) {  /* UnicastRuntime.complete_transmission */
        if (w->tx_level[t] >= 0) continue;
        i64 r = w->tx_pos[t];
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
static int hand_back_keys(Core *c, const Scratch *w, i64 k) {
    for (i64 j = 0; j < k; j++) {
        c->key_out[j] = w->order[j].key;
        c->contender_out[j] = w->contenders[j];
    }
    c->contenders = k;
    return CUT;
}

/* advance_generation(generation) on every row -- with ``session`` >= 0,
   advance_session_generation(session, generation) on that session's rows:
   a coded row behind it takes it up and empties its queue, a relay or
   destination its information (an exact one its basis), a source its
   encoder's count, a credit-mode relay its credit; every position wakes. */
static void advance(Core *c, i64 session, i64 generation) {
    for (i64 p = 0; p < c->positions; p++) c->awake[p] = 1;
    for (i64 r = 0; r < c->rows; r++) {
        if (session >= 0 && c->session[r] != session) continue;
        if (c->role[r] == UNICAST || c->generation[r] >= generation) continue;
        c->generation[r] = generation;
        if (c->role[r] != DESTINATION) {
            if (c->exact[r]) c->head[r] = 0;
            else memset(c->levels + r * c->width, 0, sizeof(i64) * (size_t)c->width);
            c->queue[r] = 0;
        }
        if (c->role[r] != SOURCE) c->information[r] = 0.0;
        if (c->role[r] == RELAY && c->credit_mode[r]) c->credit[r] = 0.0;
        if (!c->exact[r]) continue;
        if (c->role[r] == SOURCE) c->emitted[r] = 0;
        if (c->role[r] == DESTINATION) {  /* a fresh ProgressiveDecoder */
            c->received[r] = 0;
            memset(c->basis + r * c->vwidth * c->vwidth, 0, (size_t)(c->vwidth * c->vwidth));
            memset(c->pivots + r * c->vwidth, 0, sizeof(i64) * (size_t)c->vwidth);
        }
    }
}

/* The ACK of each generation decoded since hand-back ``from``: every row
   advanced past it (a composite's: that session's), in decode order; 1
   (nothing advanced) if a row holds a deferred coding decision, which
   only its object takes up. */
static int acknowledge(Core *c, i64 from) {
    for (i64 r = 0; r < c->rows; r++)
        if (c->pending[r]) return 1;
    for (i64 i = from; i < c->sunk; i++) {
        const i64 *out = c->sink_out + 5 * i;
        i64 r = out[3];
        if (c->role[r] != DESTINATION) continue;
        int shared = c->grouped && c->composite[c->row_position[r]];
        advance(c, shared ? c->session[r] : -1, out[4] + 1);
    }
    return 0;
}

/* The slot-end queue samples: every position's (its active rows' sum),
   and a composite's per active row. */
static void sample(Core *c) {
    if (!c->grouped) {
        for (i64 r = 0; r < c->rows; r++) c->queue_time[r] += (double)c->queue[r];
        return;
    }
    for (i64 p = 0; p < c->positions; p++) {
        i64 total = 0;
        for (i64 r = c->group_ptr[p]; r < c->group_ptr[p + 1]; r++) {
            if (!c->active[r]) continue;
            total += c->queue[r];
            if (c->composite[p]) c->row_queue_time[r] += (double)c->queue[r];
        }
        c->queue_time[p] += (double)total;
    }
}

/* The slot's second half, given its granted node ids: broadcast, then the
   queue samples unless the slot is not this core's alone (FIRE) or an
   arrival is left to the object path (FALLBACK: not sampled yet), then the
   ACKs of what it decoded (ACK: left to Python). */
static int finish(Core *c, Scratch *w, const i64 *ids, i64 granted, int local) {
    i64 sunk = c->sunk, decodes = c->decodes;
    if (granted && broadcast(c, w, ids, granted, local)) return FAILED;
    if (!local || c->fallbacks) return FALLBACK;
    sample(c);
    if (c->decodes > decodes && acknowledge(c, sunk)) return ACK;
    for (i64 p = 0; p < c->positions; p++)
        if (c->awake[p]) return BUDGET;
    return ASLEEP;
}

/* One slot of an epoch: contend, grant over the local keys, finish. */
static int slot(Core *c, Scratch *w) {
    i64 k = contend(c, w), granted = 0;
    if (k < 0) return FAILED;
    if (c->cut)
        for (i64 i = 0; i < k; i++)
            if (c->cut_mask[w->contenders[i]]) return hand_back_keys(c, w, k);
    qsort(w->order, (size_t)k, sizeof(Keyed), by_key);
    memset(w->blocked, 0, (size_t)c->positions);
    for (i64 i = 0; i < k; i++) {
        i64 p = w->order[i].position;
        if (w->blocked[p]) continue;
        w->granted[granted++] = p;
        for (i64 j = c->conflict_ptr[p]; j < c->conflict_ptr[p + 1]; j++)
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
    w.tx_pos = malloc(sizeof(i64) * (size_t)n);
    w.tx_rank = malloc(sizeof(i64) * (size_t)n);
    w.tx_level = malloc(sizeof(i64) * (size_t)n);
    w.counts = malloc(sizeof(i64) * (size_t)n);
    w.parts = malloc(sizeof(i64) * (size_t)n);
    w.covered = calloc((size_t)nodes, sizeof(i64));
    w.weights = malloc(sizeof(double) * (size_t)n);
    w.uniforms = malloc(sizeof(double) * (size_t)cells);
    w.order = malloc(sizeof(Keyed) * (size_t)n);
    w.comps = malloc(sizeof(Comp) * 2 * (size_t)n);
    w.blocked = malloc((size_t)n);
    w.transmitting = calloc((size_t)nodes, 1);
    w.candidate = malloc((size_t)cells);
    w.hit = malloc((size_t)cells);
    w.reached = malloc((size_t)n);
    w.vectors = malloc(2 * (size_t)(n * c->vwidth));
    int status = BUDGET;
    c->slots = c->ids = c->contenders = c->fallbacks = c->sunk = c->decodes = 0;
    if (!w.contenders || !w.granted || !w.ids || !w.tx_pos || !w.tx_rank || !w.tx_level
        || !w.counts || !w.parts || !w.covered || !w.weights || !w.uniforms || !w.order
        || !w.comps || !w.blocked || !w.transmitting || !w.candidate || !w.hit || !w.reached
        || !w.vectors || c->vwidth > 256 || (c->phase == FIRE && c->unicasts)) {
        status = FAILED;
    } else if (c->phase == CONTEND) {
        i64 k = contend(c, &w);
        status = k < 0 ? FAILED : hand_back_keys(c, &w, k);
    } else if (c->phase != EPOCH) {
        status = finish(c, &w, c->grant_in, c->grants, c->phase == RESOLVE);
    } else {
        while (c->slots < budget && status == BUDGET) {
            if (c->decode_limit >= 0 && c->decodes >= c->decode_limit) break;
            if (c->named && c->ids + c->positions > c->id_capacity) break;
            if (c->sunk + c->rows > c->sink_capacity) break;  /* a hand-back a row a slot */
            status = slot(c, &w);
        }
    }
    free(w.contenders); free(w.granted); free(w.ids); free(w.tx_pos); free(w.tx_rank);
    free(w.tx_level); free(w.counts); free(w.parts); free(w.covered); free(w.weights);
    free(w.uniforms); free(w.order); free(w.comps); free(w.blocked); free(w.transmitting);
    free(w.candidate); free(w.hit); free(w.reached); free(w.vectors);
    return status;
}
