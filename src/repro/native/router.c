#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

/* ---------------------------------------------------------- RNG bridge
   numpy's bitgen_t (numpy/random/bitgen.h). The kernel draws from the
   caller's generator through it, so every draw advances the same PCG64
   state (buffered half-word included) that rng.integers and
   rng.lognormal advance. random_lognormal is numpy's own function from
   libnpyrandom.a, the one Generator.lognormal calls. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

double random_lognormal(bitgen_t *bitgen_state, double mean, double sigma);

/* RoutingDraws._bounded: Lemire's method on [0, n) for 1 <= n < 2**32,
   as int(rng.integers(n)). */
static i64 draw_below(bitgen_t *bg, uint64_t n) {
    if (n == 1)
        return 0;
    uint64_t m = (uint64_t)bg->next_uint32(bg->state) * n;
    if ((m & 0xffffffffULL) < n) {
        uint64_t threshold = (0x100000000ULL) % n;
        while ((m & 0xffffffffULL) < threshold)
            m = (uint64_t)bg->next_uint32(bg->state) * n;
    }
    return (i64)(m >> 32);
}

/* RoutingDraws.pair: tuple(rng.choice(n, 2, replace=False)), n >= 2. */
static void draw_pair(bitgen_t *bg, i64 n, i64 *first, i64 *second) {
    i64 a = draw_below(bg, (uint64_t)(n - 1));
    i64 b = draw_below(bg, (uint64_t)n);
    if (b == a)
        b = n - 1;
    if (bg->next_uint32(bg->state) >> 31) {
        *first = a;
        *second = b;
    } else {
        *first = b;
        *second = a;
    }
}

/* ------------------------------------------------------- event heap
   Min-heap ordered by (t, seq) -- the exact total order of python's
   heapq over (t, seq, ...) tuples, since seq is unique. */
typedef struct {
    double t;
    i64 seq;
    i64 kind;
    i64 a;
    i64 b;
} Ev;

typedef struct {
    Ev *ev;
    i64 n;
    i64 cap;
} Heap;

static inline int ev_less(const Ev *a, const Ev *b) {
    return a->t < b->t || (a->t == b->t && a->seq < b->seq);
}

/* 0 on success, -1 when growing the heap fails. */
static int heap_push(Heap *h, Ev e) {
    if (h->n == h->cap) {
        i64 cap = h->cap ? 2 * h->cap : 64;
        Ev *grown = realloc(h->ev, (size_t)cap * sizeof(Ev));
        if (!grown)
            return -1;
        h->ev = grown;
        h->cap = cap;
    }
    i64 i = h->n++;
    h->ev[i] = e;
    while (i > 0) {
        i64 p = (i - 1) / 2;
        if (!ev_less(&h->ev[i], &h->ev[p]))
            break;
        Ev tmp = h->ev[p];
        h->ev[p] = h->ev[i];
        h->ev[i] = tmp;
        i = p;
    }
    return 0;
}

static Ev heap_pop(Heap *h) {
    Ev *v = h->ev;
    Ev top = v[0];
    v[0] = v[--h->n];
    i64 i = 0, n = h->n;
    for (;;) {
        i64 l = 2 * i + 1, r = l + 1, m = i;
        if (l < n && ev_less(&v[l], &v[m]))
            m = l;
        if (r < n && ev_less(&v[r], &v[m]))
            m = r;
        if (m == i)
            break;
        Ev tmp = v[m];
        v[m] = v[i];
        v[i] = tmp;
        i = m;
    }
    return top;
}

/* ------------------------------------------------------------ CoDel
   Mirror of repro.serving.overload.CoDelController.on_dequeue. */
typedef struct {
    double target;
    double interval;
    double first_above;
    double drop_next;
    i64 drop_count;
    int has_first_above;
    int dropping;
} CoDel;

static int codel_on_dequeue(CoDel *c, double sojourn, double now) {
    if (sojourn < c->target) {
        c->has_first_above = 0;
        c->dropping = 0;
        return 0;
    }
    if (c->dropping) {
        if (now >= c->drop_next) {
            c->drop_count++;
            c->drop_next = now + c->interval / sqrt((double)c->drop_count);
            return 1;
        }
        return 0;
    }
    if (!c->has_first_above) {
        c->has_first_above = 1;
        c->first_above = now + c->interval;
        return 0;
    }
    if (now >= c->first_above) {
        c->dropping = 1;
        c->drop_count++;
        c->drop_next = now + c->interval / sqrt((double)c->drop_count);
        return 1;
    }
    return 0;
}

/* ----------------------------------------------------- fault multiplier
   Mirror of FaultSchedule.service_multiplier, with interval ends and the
   Amdahl-scaled bandwidth multipliers precomputed in Python's float
   order. */
typedef struct {
    i64 n_str;
    const i64 *str_rep;
    const double *str_start;
    const double *str_end;
    const double *str_slow;
    i64 n_bw;
    const i64 *bw_rep;
    const double *bw_start;
    const double *bw_end;
    const double *bw_mult;
} Faults;

static double fault_multiplier(const Faults *f, i64 inst, double t) {
    double m = 1.0;
    for (i64 i = 0; i < f->n_str; ++i)
        if (f->str_rep[i] == inst && f->str_start[i] <= t &&
            t < f->str_end[i])
            m *= f->str_slow[i];
    for (i64 i = 0; i < f->n_bw; ++i) {
        if (f->bw_rep[i] >= 0 && f->bw_rep[i] != inst)
            continue;
        if (f->bw_start[i] <= t && t < f->bw_end[i])
            m *= f->bw_mult[i];
    }
    return m;
}

/* =================================================== router kernel
   Transliteration of the Python loop in ResilientRouter.run: the names
   below follow it (start_next, route_attempt, attempt_failed, ...). */

enum { EV_ARRIVAL, EV_COMPLETE, EV_TIMEOUT, EV_HEDGE };
enum { AT_QUEUED, AT_RUNNING, AT_CANCELLED, AT_DONE };
enum { BRK_CLOSED, BRK_OPEN, BRK_HALF_OPEN };
/* The orders of _SHED_REASONS, router.POLICIES, overload.SHED_POLICIES. */
enum { SHED_QUEUE_FULL, SHED_OLDEST, SHED_DEADLINE, SHED_CODEL };
enum { ROUTE_ROUND_ROBIN, ROUTE_RANDOM, ROUTE_JSQ2 };
enum { ADMIT_REJECT_NEWEST, ADMIT_REJECT_OLDEST, ADMIT_DEADLINE_AWARE };

/* Arguments and results of one run; mirrored by _RouterRun in Python. */
typedef struct {
    /* ---- inputs */
    void *bitgen;
    i64 num_machines;
    i64 routing;
    double duration;
    double noise_mean;
    double noise_sigma;
    const double *tier_service;
    double degraded_service;
    i64 n_arrivals;
    const double *arrival_t;     /* sorted */
    const i64 *arrival_id;       /* request id of each sorted arrival */
    const double *request_arrival; /* arrival time by request id */
    i64 n_transitions;
    const double *transition_t;
    const i64 *transition_machine;
    const i64 *transition_down;
    Faults faults;
    i64 has_timeout;
    double timeout;
    i64 max_retries;
    double backoff_base;
    i64 has_hedge;
    double hedge_delay;
    i64 has_health;
    double health_interval;
    double probe_horizon;
    i64 has_degradation;
    double min_healthy_fraction;
    double queue_depth_trigger;
    i64 has_overload;
    i64 has_admission;
    i64 queue_capacity;
    i64 shed_policy;
    double deadline;
    double expected_service;
    i64 has_codel;
    double codel_target;
    double codel_interval;
    i64 has_breakers;
    i64 failure_threshold;
    double breaker_window;
    double open_duration;
    i64 half_open_probes;
    i64 has_brownout;
    i64 brownout_rungs;          /* len(BrownoutPolicy.tiers) */
    double step_up_depth;
    double step_down_depth;
    double dwell;
    /* ---- outputs */
    double *latencies;           /* n_arrivals slots */
    double *time_in_tier;        /* brownout_rungs + 1 slots */
    i64 *completions_by_tier;    /* brownout_rungs + 1 slots */
    i64 completed;
    i64 failed;
    i64 retries;
    i64 hedges;
    i64 wasted_attempts;
    i64 fail_fasts;
    i64 ejections;
    i64 degraded_completions;
    double time_in_degraded;
    i64 ovl_offered;
    i64 ovl_admitted;
    i64 shed[4];                 /* by SHED_* reason */
    i64 shed_order[4];           /* reasons in order of first occurrence */
    i64 n_shed_reasons;
    i64 breaker_rejections;
    i64 breaker_opens;
    i64 brownout_switches;
    i64 max_brownout_tier;
    i64 max_queue_depth;
} RouterRun;

i64 repro_router_run_size(void) { return (i64)sizeof(RouterRun); }

/* Client-side state of one request (the Python loop's _Request). */
typedef struct {
    i64 tier;
    i64 retries_used;
    i64 live_attempts;
    unsigned char done;
    unsigned char failed;
    unsigned char degraded;
} Request;

/* One routed attempt (_Attempt); `next` links its machine's FIFO. */
typedef struct {
    i64 request;
    i64 machine;
    i64 next; /* -1 at the tail */
    double enqueued;
    int state;
} Attempt;

/* Mirror of repro.serving.overload.CircuitBreaker. */
typedef struct {
    int state;
    i64 opens;
    double opened_at;
    i64 probes;
    i64 n_fail;
    i64 cap_fail;
    double *fail; /* grown on demand; never above failure_threshold */
} Breaker;

/* One replica. depth counts every queued entry plus the running one;
   live_waiting only the queued attempts still AT_QUEUED. */
typedef struct {
    int up;
    int admitted;
    i64 running; /* attempt id, -1 when idle */
    i64 head;    /* queue of attempt ids, -1 when empty */
    i64 tail;
    i64 queued;
    i64 depth;
    i64 live_waiting;
    CoDel codel;
    Breaker breaker;
} Machine;

typedef struct {
    RouterRun *p;
    bitgen_t *bg;
    i64 M;
    Request *rq;
    Attempt *at;
    i64 n_att;
    i64 cap_att;
    Machine *mc;
    i64 adm_depth_sum; /* sum of depth over admitted machines */
    i64 n_admitted;
    i64 *cands; /* admitted machines, ascending; rebuilt when dirty */
    i64 n_cands;
    int cand_dirty;
    i64 *closed; /* scratch: candidates whose breaker allows */
    i64 tripped; /* breakers not closed */
    i64 rr;
    i64 bo_tier;
    double bo_last_change;
    double bo_entered;
    int degraded_on;
    double degraded_since;
    Heap heap;
    i64 dseq;
    int oom;
} Router;

static int settled(const Request *q) { return q->done || q->failed; }

static void push(Router *r, double t, i64 kind, i64 a, i64 b) {
    Ev e = {t, r->dseq++, kind, a, b};
    if (heap_push(&r->heap, e))
        r->oom = 1;
}

static void bump_depth(Router *r, i64 m, i64 delta) {
    r->mc[m].depth += delta;
    if (r->mc[m].admitted)
        r->adm_depth_sum += delta;
}

static void set_admitted(Router *r, i64 m, int value) {
    Machine *mc = &r->mc[m];
    if (mc->admitted == value)
        return;
    mc->admitted = value;
    r->cand_dirty = 1;
    if (value) {
        r->n_admitted++;
        r->adm_depth_sum += mc->depth;
    } else {
        r->n_admitted--;
        r->adm_depth_sum -= mc->depth;
    }
}

static void refresh_candidates(Router *r) {
    if (!r->cand_dirty)
        return;
    i64 k = 0;
    for (i64 m = 0; m < r->M; ++m)
        if (r->mc[m].admitted)
            r->cands[k++] = m;
    r->n_cands = k;
    r->cand_dirty = 0;
}

static void eject(Router *r, i64 m) {
    if (r->mc[m].admitted) {
        set_admitted(r, m, 0);
        r->p->ejections++;
    }
}

static void shed(Router *r, int reason) {
    RouterRun *p = r->p;
    if (p->shed[reason]++ == 0)
        p->shed_order[p->n_shed_reasons++] = reason;
}

static i64 queue_pop(Router *r, Machine *mc) {
    i64 aid = mc->head;
    mc->head = r->at[aid].next;
    if (mc->head < 0)
        mc->tail = -1;
    mc->queued--;
    return aid;
}

/* ------------------------------------------------- circuit breakers */
static void breaker_trip(Breaker *b, double now) {
    b->state = BRK_OPEN;
    b->opens++;
    b->opened_at = now;
    b->n_fail = 0;
    b->probes = 0;
}

/* Keep only the failures inside the sliding window. */
static void breaker_forget(const RouterRun *p, Breaker *b, double now) {
    double cutoff = now - p->breaker_window;
    i64 k = 0;
    for (i64 i = 0; i < b->n_fail; ++i)
        if (b->fail[i] > cutoff)
            b->fail[k++] = b->fail[i];
    b->n_fail = k;
}

static int breaker_allows(const RouterRun *p, Breaker *b, double now) {
    if (b->state == BRK_OPEN) {
        if (now - b->opened_at >= p->open_duration) {
            b->state = BRK_HALF_OPEN;
            b->probes = 0;
        } else {
            return 0;
        }
    }
    if (b->state == BRK_HALF_OPEN)
        return b->probes < p->half_open_probes;
    return 1;
}

static void count_trip(Router *r, int before, int after) {
    if ((before == BRK_CLOSED) != (after == BRK_CLOSED))
        r->tripped += before == BRK_CLOSED ? 1 : -1;
}

static void breaker_failure(Router *r, i64 m, double now) {
    RouterRun *p = r->p;
    if (!p->has_breakers)
        return;
    Breaker *b = &r->mc[m].breaker;
    int before = b->state;
    if (b->state == BRK_HALF_OPEN) {
        breaker_trip(b, now);
    } else if (b->state == BRK_CLOSED) {
        breaker_forget(p, b, now);
        if (b->n_fail == b->cap_fail) {
            i64 cap = b->cap_fail ? 2 * b->cap_fail : 4;
            double *grown = realloc(b->fail, (size_t)cap * sizeof(double));
            if (!grown) {
                r->oom = 1;
                return;
            }
            b->fail = grown;
            b->cap_fail = cap;
        }
        b->fail[b->n_fail++] = now;
        if (b->n_fail >= p->failure_threshold)
            breaker_trip(b, now);
    }
    count_trip(r, before, b->state);
}

static void breaker_success(Router *r, i64 m, double now) {
    if (!r->p->has_breakers)
        return;
    Breaker *b = &r->mc[m].breaker;
    int before = b->state;
    if (b->state == BRK_HALF_OPEN) {
        b->state = BRK_CLOSED;
        b->n_fail = 0;
        b->probes = 0;
    } else if (b->state == BRK_CLOSED && b->n_fail) {
        breaker_forget(r->p, b, now);
    }
    count_trip(r, before, b->state);
}

/* ----------------------------------------------- brownout, degradation */
static i64 brownout_update(Router *r, double now, double pressure) {
    RouterRun *p = r->p;
    if (now - r->bo_last_change < p->dwell)
        return r->bo_tier;
    i64 tier = r->bo_tier;
    if (pressure >= p->step_up_depth && tier < p->brownout_rungs)
        tier++;
    else if (pressure <= p->step_down_depth && tier > 0)
        tier--;
    if (tier != r->bo_tier) {
        p->time_in_tier[r->bo_tier] += now - r->bo_entered;
        r->bo_entered = now;
        r->bo_last_change = now;
        r->bo_tier = tier;
        p->brownout_switches++;
    }
    return r->bo_tier;
}

static int degraded_now(Router *r, double now) {
    RouterRun *p = r->p;
    if (!p->has_degradation)
        return 0;
    double healthy_frac = (double)r->n_admitted / (double)r->M;
    double mean_depth = r->n_admitted
                            ? (double)r->adm_depth_sum / (double)r->n_admitted
                            : INFINITY;
    int on = healthy_frac < p->min_healthy_fraction ||
             mean_depth >= p->queue_depth_trigger;
    if (on && !r->degraded_on)
        r->degraded_since = now;
    else if (!on && r->degraded_on)
        p->time_in_degraded += now - r->degraded_since;
    r->degraded_on = on;
    return on;
}

/* ------------------------------------------------------ request flow */
static void attempt_failed(Router *r, i64 rid, double now) {
    RouterRun *p = r->p;
    Request *q = &r->rq[rid];
    if (settled(q) || q->live_attempts > 0)
        return; /* a hedge twin is still in flight */
    if (q->retries_used < p->max_retries) {
        /* backoff_s(k) = backoff_base_s * 2.0**k, exact for k <= 1023 */
        double delay = p->backoff_base * ldexp(1.0, (int)q->retries_used);
        q->retries_used++;
        p->retries++;
        push(r, now + delay, EV_ARRIVAL, rid, 1);
    } else {
        q->failed = 1;
        p->failed++;
    }
}

/* An attempt leaves the queue without running. */
static void cancel_queued(Router *r, Machine *mc, Attempt *a) {
    a->state = AT_CANCELLED;
    r->rq[a->request].live_attempts--;
    mc->live_waiting--;
}

/* Dispatch the machine's queue head, skipping dead attempts. */
static void start_next(Router *r, i64 m, double now) {
    RouterRun *p = r->p;
    Machine *mc = &r->mc[m];
    if (mc->running >= 0 || !mc->up)
        return;
    while (mc->queued) {
        i64 aid = queue_pop(r, mc);
        bump_depth(r, m, -1);
        Attempt *a = &r->at[aid];
        Request *q = &r->rq[a->request];
        if (a->state != AT_QUEUED || settled(q)) {
            if (a->state == AT_QUEUED)
                cancel_queued(r, mc, a);
            continue;
        }
        if (p->has_codel &&
            codel_on_dequeue(&mc->codel, now - a->enqueued, now)) {
            /* Standing queue: CoDel sheds the head-of-line request. */
            cancel_queued(r, mc, a);
            shed(r, SHED_CODEL);
            attempt_failed(r, a->request, now);
            continue;
        }
        a->state = AT_RUNNING;
        mc->running = aid;
        bump_depth(r, m, 1);
        mc->live_waiting--;
        double base = q->degraded ? p->degraded_service : p->tier_service[q->tier];
        double multiplier = fault_multiplier(&p->faults, m, now);
        double service = base * multiplier *
                         random_lognormal(r->bg, p->noise_mean, p->noise_sigma);
        push(r, now + service, EV_COMPLETE, aid, m);
        return;
    }
}

/* pick_machine over a candidate list. */
static i64 pick_machine(Router *r, const i64 *cands, i64 n) {
    switch (r->p->routing) {
    case ROUTE_ROUND_ROBIN: {
        i64 i = r->rr % n;
        r->rr++;
        return cands[i];
    }
    case ROUTE_RANDOM:
        return cands[draw_below(r->bg, (uint64_t)n)];
    default: {
        if (n == 1)
            return cands[0];
        i64 a, b;
        draw_pair(r->bg, n, &a, &b);
        a = cands[a];
        b = cands[b];
        return r->mc[a].depth <= r->mc[b].depth ? a : b;
    }
    }
}

/* Append a new attempt to machine m's queue; -1 when memory runs out. */
static i64 enqueue_attempt(Router *r, i64 rid, i64 m, double now) {
    if (r->n_att == r->cap_att) {
        Attempt *grown = realloc(r->at, (size_t)(2 * r->cap_att) * sizeof(Attempt));
        if (!grown) {
            r->oom = 1;
            return -1;
        }
        r->at = grown;
        r->cap_att *= 2;
    }
    i64 aid = r->n_att++;
    r->at[aid] = (Attempt){rid, m, -1, now, AT_QUEUED};
    Machine *mc = &r->mc[m];
    if (mc->tail >= 0)
        r->at[mc->tail].next = aid;
    else
        mc->head = aid;
    mc->tail = aid;
    mc->queued++;
    return aid;
}

/* Shed the oldest attempt still waiting on machine m, if any. */
static void shed_oldest(Router *r, i64 m, double now) {
    Machine *mc = &r->mc[m];
    i64 prev = -1, victim = mc->head;
    while (victim >= 0 && r->at[victim].state != AT_QUEUED) {
        prev = victim;
        victim = r->at[victim].next;
    }
    if (victim < 0)
        return;
    i64 after = r->at[victim].next;
    if (prev >= 0)
        r->at[prev].next = after;
    else
        mc->head = after;
    if (after < 0)
        mc->tail = prev;
    mc->queued--;
    bump_depth(r, m, -1);
    cancel_queued(r, mc, &r->at[victim]);
    shed(r, SHED_OLDEST);
    attempt_failed(r, r->at[victim].request, now);
}

/* Route one attempt; fail fast when no healthy target exists. */
static void route_attempt(Router *r, i64 rid, double now) {
    RouterRun *p = r->p;
    Request *q = &r->rq[rid];
    if (settled(q))
        return;
    if (p->has_overload)
        p->ovl_offered++;
    refresh_candidates(r);
    const i64 *cands = r->cands;
    i64 n = r->n_cands;
    if (p->has_breakers && n && r->tripped) {
        /* Retries and hedges route through here too, so every attempt
           respects open breakers. */
        i64 k = 0;
        for (i64 i = 0; i < n; ++i)
            if (breaker_allows(p, &r->mc[cands[i]].breaker, now))
                r->closed[k++] = cands[i];
        if (!k) {
            p->breaker_rejections++;
            attempt_failed(r, rid, now);
            return;
        }
        cands = r->closed;
        n = k;
    }
    if (!n) {
        attempt_failed(r, rid, now);
        return;
    }
    i64 m = pick_machine(r, cands, n);
    Machine *mc = &r->mc[m];
    if (!mc->up) {
        /* Connection refused: passive health detection. */
        p->fail_fasts++;
        eject(r, m);
        breaker_failure(r, m, now);
        attempt_failed(r, rid, now);
        return;
    }
    if (p->has_admission) {
        i64 waiting = mc->live_waiting;
        if (p->shed_policy == ADMIT_DEADLINE_AWARE) {
            double wait = (double)(waiting + (mc->running >= 0)) *
                          p->expected_service;
            double projected =
                now + wait + p->expected_service - p->request_arrival[rid];
            if (projected > p->deadline) {
                shed(r, SHED_DEADLINE);
                attempt_failed(r, rid, now);
                return;
            }
        }
        if (waiting >= p->queue_capacity) {
            if (p->shed_policy == ADMIT_REJECT_OLDEST) {
                shed_oldest(r, m, now);
            } else {
                shed(r, SHED_QUEUE_FULL);
                attempt_failed(r, rid, now);
                return;
            }
        }
    }
    if (p->has_breakers && mc->breaker.state == BRK_HALF_OPEN)
        mc->breaker.probes++; /* note_probe */
    i64 aid = enqueue_attempt(r, rid, m, now);
    if (aid < 0)
        return;
    q->live_attempts++;
    bump_depth(r, m, 1);
    mc->live_waiting++;
    if (p->has_overload) {
        p->ovl_admitted++;
        if (mc->live_waiting > p->max_queue_depth)
            p->max_queue_depth = mc->live_waiting;
    }
    if (p->has_timeout)
        push(r, now + p->timeout, EV_TIMEOUT, aid, 0);
    start_next(r, m, now);
}

static void crash(Router *r, i64 m, double now) {
    Machine *mc = &r->mc[m];
    mc->up = 0;
    breaker_failure(r, m, now);
    if (!r->p->has_health)
        eject(r, m);
    i64 aid = mc->running;
    if (aid >= 0) {
        mc->running = -1;
        bump_depth(r, m, -1);
        Attempt *a = &r->at[aid];
        if (a->state == AT_RUNNING) {
            a->state = AT_CANCELLED;
            r->rq[a->request].live_attempts--;
            attempt_failed(r, a->request, now);
        }
    }
    /* Queued work fails fast (connection reset). */
    i64 dead = mc->head;
    bump_depth(r, m, -mc->queued);
    mc->head = mc->tail = -1;
    mc->queued = 0;
    mc->live_waiting = 0;
    for (aid = dead; aid >= 0; aid = r->at[aid].next) {
        Attempt *a = &r->at[aid];
        if (a->state == AT_QUEUED) {
            a->state = AT_CANCELLED;
            r->rq[a->request].live_attempts--;
            attempt_failed(r, a->request, now);
        }
    }
}

static void router_free(Router *r) {
    free(r->rq);
    free(r->at);
    if (r->mc)
        for (i64 m = 0; m < r->M; ++m)
            free(r->mc[m].breaker.fail);
    free(r->mc);
    free(r->cands);
    free(r->closed);
    free(r->heap.ev);
}

/* Returns 0 on success, 1 when memory runs out. */
i64 repro_router(RouterRun *p) {
    Router r;
    memset(&r, 0, sizeof(r));
    r.p = p;
    r.bg = (bitgen_t *)p->bitgen;
    i64 M = r.M = p->num_machines;
    i64 R = p->n_arrivals;
    r.cap_att = R + 16;
    r.rq = calloc((size_t)(R > 0 ? R : 1), sizeof(Request));
    r.at = malloc((size_t)r.cap_att * sizeof(Attempt));
    r.mc = calloc((size_t)M, sizeof(Machine));
    r.cands = malloc((size_t)M * sizeof(i64));
    r.closed = malloc((size_t)M * sizeof(i64));
    if (!r.rq || !r.at || !r.mc || !r.cands || !r.closed) {
        router_free(&r);
        return 1;
    }
    for (i64 m = 0; m < M; ++m) {
        Machine *mc = &r.mc[m];
        mc->up = mc->admitted = 1;
        mc->running = mc->head = mc->tail = -1;
        mc->codel.target = p->codel_target;
        mc->codel.interval = p->codel_interval;
        mc->breaker.state = BRK_CLOSED;
        r.cands[m] = m;
    }
    r.n_admitted = r.n_cands = M;
    r.bo_last_change = -INFINITY;

    /* Merged loop: static streams (arrivals < transitions < probes on
       ties, all ahead of any dynamic event) against the dynamic heap. */
    i64 ai = 0, fi = 0;
    double probe_t = p->health_interval;
    while (!r.oom) {
        int probing = p->has_health && probe_t < p->probe_horizon;
        if (ai >= R && fi >= p->n_transitions && !probing && !r.heap.n)
            break;
        double t_a = ai < R ? p->arrival_t[ai] : INFINITY;
        double t_f = fi < p->n_transitions ? p->transition_t[fi] : INFINITY;
        double t_h = probing ? probe_t : INFINITY;
        double t_d = r.heap.n ? r.heap.ev[0].t : INFINITY;
        double now;
        Ev e;
        if (t_a <= t_f && t_a <= t_h && t_a <= t_d) {
            if (ai >= R)
                break; /* every head is inf: nothing left fires */
            now = t_a;
            e = (Ev){now, 0, EV_ARRIVAL, p->arrival_id[ai++], 0};
        } else if (t_f <= t_h && t_f <= t_d) {
            now = t_f;
            i64 m = p->transition_machine[fi];
            if (p->transition_down[fi]) {
                crash(&r, m, now);
            } else {
                r.mc[m].up = 1;
                if (!p->has_health)
                    set_admitted(&r, m, 1);
            }
            fi++;
            continue;
        } else if (t_h <= t_d) {
            probe_t += p->health_interval;
            for (i64 m = 0; m < M; ++m)
                set_admitted(&r, m, r.mc[m].up);
            continue;
        } else {
            e = heap_pop(&r.heap);
            now = e.t;
        }

        if (e.kind == EV_ARRIVAL) {
            i64 rid = e.a;
            Request *q = &r.rq[rid];
            if (settled(q))
                continue;
            if (!e.b) { /* a first arrival, not a retry */
                if (p->has_brownout) {
                    double pressure =
                        r.n_admitted
                            ? (double)r.adm_depth_sum / (double)r.n_admitted
                            : INFINITY;
                    i64 before = r.bo_tier;
                    q->tier = brownout_update(&r, now, pressure);
                    if (r.bo_tier != before && r.bo_tier > p->max_brownout_tier)
                        p->max_brownout_tier = r.bo_tier;
                }
                q->degraded = (unsigned char)degraded_now(&r, now);
                if (p->has_hedge)
                    push(&r, now + p->hedge_delay, EV_HEDGE, rid, 0);
            }
            route_attempt(&r, rid, now);
        } else if (e.kind == EV_COMPLETE) {
            i64 aid = e.a, m = e.b;
            Machine *mc = &r.mc[m];
            if (mc->running != aid)
                continue; /* killed by a crash; the restart superseded it */
            mc->running = -1;
            bump_depth(&r, m, -1);
            breaker_success(&r, m, now);
            Attempt *a = &r.at[aid];
            if (a->state == AT_CANCELLED) {
                /* Abandoned by a timeout but ran to completion anyway. */
                p->wasted_attempts++;
                start_next(&r, m, now);
                continue;
            }
            a->state = AT_DONE;
            Request *q = &r.rq[a->request];
            q->live_attempts--;
            if (settled(q)) {
                p->wasted_attempts++;
            } else {
                q->done = 1;
                p->latencies[p->completed++] =
                    now - p->request_arrival[a->request];
                if (p->has_brownout)
                    p->completions_by_tier[q->tier]++;
                if (q->degraded)
                    p->degraded_completions++;
            }
            start_next(&r, m, now);
        } else if (e.kind == EV_TIMEOUT) {
            Attempt *a = &r.at[e.a];
            Request *q = &r.rq[a->request];
            if (settled(q) || a->state == AT_CANCELLED || a->state == AT_DONE)
                continue;
            /* Queued work is dropped; in-flight work keeps the machine
               busy and completes as waste. */
            breaker_failure(&r, a->machine, now);
            if (a->state == AT_QUEUED)
                r.mc[a->machine].live_waiting--;
            a->state = AT_CANCELLED;
            q->live_attempts--;
            attempt_failed(&r, a->request, now);
        } else { /* EV_HEDGE */
            Request *q = &r.rq[e.a];
            if (settled(q) || q->live_attempts == 0)
                continue;
            p->hedges++;
            route_attempt(&r, e.a, now);
        }
    }

    if (r.degraded_on)
        p->time_in_degraded += p->duration - r.degraded_since;
    if (p->has_brownout) {
        double rest = p->duration - r.bo_entered;
        p->time_in_tier[r.bo_tier] += rest > 0.0 ? rest : 0.0;
    }
    if (p->has_breakers)
        for (i64 m = 0; m < M; ++m)
            p->breaker_opens += r.mc[m].breaker.opens;
    int oom = r.oom;
    router_free(&r);
    return oom;
}
