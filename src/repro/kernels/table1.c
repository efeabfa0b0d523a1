
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;
#define INF (1.0 / 0.0)

enum { EXHAUSTED = 0, CONVERGED = 1, MORE = 2, FAILED = -1 };

typedef struct {
    i64 nodes, links, source, destination, distance_vector, tx_count, src_in_count;
    i64 rate_count, flow_count, path_len, advertisements, tokens, flow_recovery;
    double path_cost, gamma, gamma_cap, flow_tail;
    const i64 *tail, *head, *out_ptr, *out, *nbr_ptr, *nbr, *slot, *node_id, *tx, *src_in;
    const double *p, *q;
    double *prices, *mus, *rates, *prev, *rate_prefix, *flow_prefix, *gamma_prefix;
    double *hist_rates, *hist_gamma;
    i64 *path;
} Session;

typedef struct {
    i64 sessions, constrained, max_iterations, min_iterations, patience, recovery;
    i64 iteration, stable, has_previous, done;
    double scale, tolerance, tail;
    Session *session;
    const i64 *con_slot, *con_ptr, *con_session, *con_node;
    double *beta;
} Loop;

typedef struct { double d; i64 id, v; } Entry;

typedef struct {
    double *weight, *flow, *dist, *snap;
    i64 *via;
    char *settled;
    Entry *heap;
} Scratch;

static int before(Entry a, Entry b) { return a.d < b.d || (a.d == b.d && a.id < b.id); }

static void push(Entry *h, i64 *size, Entry e) {
    i64 i = (*size)++;
    while (i > 0 && before(e, h[(i - 1) / 2])) { h[i] = h[(i - 1) / 2]; i = (i - 1) / 2; }
    h[i] = e;
}

static Entry pop(Entry *h, i64 *size) {
    Entry top = h[0], last = h[--(*size)];
    i64 i = 0, n = *size;
    for (;;) {
        i64 c = 2 * i + 1;
        if (c >= n) break;
        if (c + 1 < n && before(h[c + 1], h[c])) c++;
        if (!before(h[c], last)) break;
        h[i] = h[c];
        i = c;
    }
    if (n > 0) h[i] = last;
    return top;
}

/* Sub1Router._shortest_path: the hops into s->path, or -1. */
static i64 dijkstra(Session *s, Scratch *w) {
    i64 n = s->nodes, src = s->source, dst = s->destination, size = 0, len = 0;
    for (i64 v = 0; v < n; v++) { w->dist[v] = INF; w->via[v] = -1; w->settled[v] = 0; }
    w->dist[src] = 0.0;
    push(w->heap, &size, (Entry){0.0, s->node_id[src], src});
    while (size) {
        Entry e = pop(w->heap, &size);
        i64 u = e.v;
        if (w->settled[u]) continue;
        if (u == dst) break;
        w->settled[u] = 1;
        for (i64 i = s->out_ptr[u]; i < s->out_ptr[u + 1]; i++) {
            i64 k = s->out[i], v = s->head[k];
            double candidate = e.d + w->weight[k];
            if (candidate < w->dist[v]) {
                w->dist[v] = candidate;
                w->via[v] = k;
                push(w->heap, &size, (Entry){candidate, s->node_id[v], v});
            }
        }
    }
    if (w->dist[dst] == INF) return -1;
    for (i64 v = dst; v != src; v = s->tail[w->via[v]]) {
        if (len == n) return -1;
        s->path[len++] = w->via[v];
    }
    for (i64 i = 0; i < len / 2; i++) {
        i64 k = s->path[i];
        s->path[i] = s->path[len - 1 - i];
        s->path[len - 1 - i] = k;
    }
    s->path_cost = w->dist[dst];
    return len;
}

/* DistanceVectorRouter._shortest_path, counting its messages. */
static i64 distance_vector(Session *s, Scratch *w) {
    i64 n = s->nodes, len = 0;
    i64 *next = w->via;
    for (i64 v = 0; v < n; v++) { w->dist[v] = INF; next[v] = -1; }
    w->dist[s->destination] = 0.0;
    for (i64 round = 0; round < n; round++) {
        int changed = 0;
        memcpy(w->snap, w->dist, (size_t)n * sizeof(double));
        for (i64 v = 0; v < n; v++) s->advertisements += w->snap[v] != INF;
        for (i64 k = 0; k < s->links; k++) {
            double through = w->snap[s->head[k]];
            if (through == INF) continue;
            double candidate = w->weight[k] + through;
            i64 i = s->tail[k];
            if (candidate < w->dist[i] - 1e-15) {
                w->dist[i] = candidate;
                next[i] = k;
                changed = 1;
            }
        }
        if (!changed) break;
    }
    if (w->dist[s->source] == INF) return -1;
    for (i64 v = s->source; v != s->destination; v = s->head[next[v]]) {
        if (next[v] < 0 || len + 1 >= n) return -1;
        s->path[len++] = next[v];
    }
    s->tokens += len;
    s->path_cost = w->dist[s->source];
    return len;
}

/* Sub1Router.route: SUB1 on lambda + mu, then x(t) into the averages. */
static int route(Session *s, double *flow, Scratch *w) {
    i64 m = s->links;
    for (i64 k = 0; k < m; k++) {
        w->weight[k] = s->prices[k] + s->mus[s->tail[k]];
        if (!(w->weight[k] >= 0.0)) return FAILED;
    }
    i64 len = s->distance_vector ? distance_vector(s, w) : dijkstra(s, w);
    if (len < 0) return FAILED;
    double gamma = s->path_cost <= 1.0 / s->gamma_cap ? s->gamma_cap : 1.0 / s->path_cost;
    for (i64 k = 0; k < m; k++) flow[k] = 0.0;
    for (i64 i = 0; i < len; i++) flow[s->path[i]] = gamma;
    double *from = s->flow_prefix + s->flow_count * m, *to = from + m;
    for (i64 k = 0; k < m; k++) to[k] = from[k] + flow[k];
    s->gamma_prefix[s->flow_count + 1] = s->gamma_prefix[s->flow_count] + gamma;
    s->flow_count++;
    s->path_len = len;
    s->gamma = gamma;
    return 0;
}

/* RateControlLoop.step */
static int step(Loop *L, double theta, Scratch *w) {
    double *flow = w->flow;
    for (i64 i = 0; i < L->sessions; i++) {
        if (route(&L->session[i], flow, w)) return FAILED;
        flow += L->session[i].links;
    }
    for (i64 i = 0; i < L->sessions; i++) {
        Session *s = &L->session[i];
        for (i64 v = 0; v < s->nodes; v++) {
            if (v == s->destination) continue;
            double weight = 0.0, charge = 0.0;
            for (i64 j = s->out_ptr[v]; j < s->out_ptr[v + 1]; j++)
                weight += s->prices[s->out[j]] * s->p[s->out[j]];
            if (s->mus[v] != 0.0) weight += s->mus[v] * s->q[v];
            for (i64 j = s->nbr_ptr[v]; j < s->nbr_ptr[v + 1]; j++)
                charge += L->beta[s->slot[s->nbr[j]]];
            double updated = s->rates[v] + (weight - (L->beta[s->slot[v]] + charge)) / L->scale;
            updated = updated > 0.0 ? updated : 0.0;
            s->rates[v] = updated < 1.0 ? updated : 1.0;
        }
    }
    for (i64 c = 0; c < L->constrained; c++) {
        double load = 0.0;
        for (i64 j = L->con_ptr[c]; j < L->con_ptr[c + 1]; j++) {
            Session *s = &L->session[L->con_session[j]];
            i64 v = L->con_node[j];
            double heard = 0.0;
            load += s->rates[v];
            for (i64 i = s->nbr_ptr[v]; i < s->nbr_ptr[v + 1]; i++) heard += s->rates[s->nbr[i]];
            load += heard;
        }
        double *beta = &L->beta[L->con_slot[c]];
        double value = *beta - theta * (1.0 - load);
        *beta = value > 0.0 ? value : 0.0;
    }
    flow = w->flow;
    for (i64 i = 0; i < L->sessions; i++) {
        Session *s = &L->session[i];
        for (i64 k = 0; k < s->links; k++) {
            double value = s->prices[k] - theta * (s->rates[s->tail[k]] * s->p[k] - flow[k]);
            s->prices[k] = value > 0.0 ? value : 0.0;
        }
        for (i64 t = 0; t < s->tx_count; t++) {
            i64 v = s->tx[t];
            double outflow = 0.0;
            for (i64 j = s->out_ptr[v]; j < s->out_ptr[v + 1]; j++) outflow += flow[s->out[j]];
            double value = s->mus[v] - theta * (s->rates[v] * s->q[v] - outflow);
            s->mus[v] = value > 0.0 ? value : 0.0;
        }
        double *from = s->rate_prefix + s->rate_count * s->nodes, *to = from + s->nodes;
        for (i64 v = 0; v < s->nodes; v++) to[v] = from[v] + s->rates[v];
        s->rate_count++;
        flow += s->links;
    }
    L->iteration++;
    return 0;
}

/* IterateAverager.average, one entry of it. */
static double average(const double *prefix, i64 count, i64 width, i64 col, double tail) {
    i64 start = (i64)((double)count * (1.0 - tail)); /* floor: the product is >= 0 */
    if (start >= count) start = count - 1;
    return (prefix[count * width + col] - prefix[start * width + col]) / (double)(count - start);
}

/* x_bar of link k (Sub1Router.recovered_flow_vector), x(t) without recovery. */
static double recovered_flow(const Session *s, const double *flow, i64 k) {
    if (!s->flow_recovery || !s->flow_count) return flow[k];
    return average(s->flow_prefix, s->flow_count, s->links, k, s->flow_tail);
}

/* One iteration's b_bar and gamma_bar into the histories (row `row`),
   then the stopping rule of RateControlLoop._converge. */
static int record(Loop *L, i64 row, Scratch *w) {
    double delta = 0.0, scale = 1e-9;
    const double *flow = w->flow;
    for (i64 i = 0; i < L->sessions; i++) {
        Session *s = &L->session[i];
        double *rec = s->hist_rates + row * s->nodes;
        int recover = L->recovery && s->rate_count;
        for (i64 v = 0; v < s->nodes; v++)
            rec[v] = recover ? average(s->rate_prefix, s->rate_count, s->nodes, v, L->tail)
                             : s->rates[v];
        double out = 0.0, back = 0.0;
        for (i64 j = s->out_ptr[s->source]; j < s->out_ptr[s->source + 1]; j++)
            out += recovered_flow(s, flow, s->out[j]);
        for (i64 j = 0; j < s->src_in_count; j++)
            back += recovered_flow(s, flow, s->src_in[j]);
        s->hist_gamma[row] = out - back;
        flow += s->links;
        if (L->has_previous) {
            double most = rec[0] - s->prev[0], top = rec[0];
            most = most < 0.0 ? -most : most;
            for (i64 v = 1; v < s->nodes; v++) {
                double d = rec[v] - s->prev[v];
                d = d < 0.0 ? -d : d;
                if (d > most) most = d;
                if (rec[v] > top) top = rec[v];
            }
            if (most > delta) delta = most;
            if (top > scale) scale = top;
        }
        memcpy(s->prev, rec, (size_t)s->nodes * sizeof(double));
    }
    if (!L->has_previous) {
        L->has_previous = 1;
        return 0;
    }
    L->stable = delta / scale < L->tolerance ? L->stable + 1 : 0;
    return L->iteration >= L->min_iterations && L->stable >= L->patience;
}

/* Up to `count` iterations, theta[i] the step size of the i-th; the
   count run goes to L->done.  EXHAUSTED at the iteration cap, MORE when
   theta ran out first, FAILED (state undefined) where the Python loop
   would raise. */
int table1_run(Loop *L, const double *theta, i64 count) {
    i64 n = 0, m = 0, links = 0;
    for (i64 i = 0; i < L->sessions; i++) {
        Session *s = &L->session[i];
        if (s->nodes > n) n = s->nodes;
        if (s->links > m) m = s->links;
        links += s->links;
    }
    Scratch w;
    w.weight = malloc(sizeof(double) * (size_t)(m + 1));
    w.flow = malloc(sizeof(double) * (size_t)(links + 1));
    w.dist = malloc(sizeof(double) * (size_t)(n + 1));
    w.snap = malloc(sizeof(double) * (size_t)(n + 1));
    w.via = malloc(sizeof(i64) * (size_t)(n + 1));
    w.settled = malloc((size_t)(n + 1));
    w.heap = malloc(sizeof(Entry) * (size_t)(m + 2));
    int status = MORE;
    L->done = 0;
    if (!w.weight || !w.flow || !w.dist || !w.snap || !w.via || !w.settled || !w.heap) {
        status = FAILED;
    } else {
        for (; L->done < count; L->done++) {
            if (L->iteration >= L->max_iterations) break;
            if (step(L, theta[L->done], &w)) { status = FAILED; break; }
            if (record(L, L->done, &w)) { status = CONVERGED; L->done++; break; }
        }
        if (status == MORE && L->iteration >= L->max_iterations) status = EXHAUSTED;
    }
    free(w.weight); free(w.flow); free(w.dist); free(w.snap);
    free(w.via); free(w.settled); free(w.heap);
    return status;
}

/* neighborhood_broadcast_cost of every sender v, whose out-links are
   ptr[v]..ptr[v+1] (heads ascending, probabilities p): the expected
   transmissions into tx[v], and the covered heads in set-insertion order
   (targets in phase order, then those overhearing alone covered,
   ascending) into covered[ptr[v]..], count[v] of them.  missed: one
   double per link, scratch. */
void pseudo_broadcast(i64 n, const i64 *ptr, const i64 *head, const double *p,
                      double threshold, double *missed, double *tx, i64 *covered,
                      i64 *count) {
    for (i64 v = 0; v < n; v++) {
        i64 lo = ptr[v], hi = ptr[v + 1], targets = 0;
        double total = 0.0;
        for (i64 k = lo; k < hi; k++) missed[k] = 1.0;
        for (i64 phase = lo; phase < hi; phase++) {
            i64 target = -1;
            for (i64 k = lo; k < hi; k++)
                if (missed[k] > threshold && (target < 0 || p[k] > p[target])) target = k;
            if (target < 0) break;
            double expected = 1.0 / p[target];
            total += expected;
            for (i64 k = lo; k < hi; k++) missed[k] = missed[k] * pow(1.0 - p[k], expected);
            missed[target] = 0.0;
            covered[lo + targets++] = head[target];
        }
        i64 c = targets;
        for (i64 k = lo; k < hi; k++) {
            if (missed[k] > threshold) continue;
            i64 t = lo;
            while (t < lo + targets && covered[t] != head[k]) t++;
            if (t == lo + targets) covered[lo + c++] = head[k];
        }
        tx[v] = total;
        count[v] = c;
    }
}
