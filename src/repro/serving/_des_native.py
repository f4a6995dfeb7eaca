"""Self-compiled C kernels for the serving DES: simulator and router.

One C source holds two event loops that share one event heap, one CoDel
control law, one fault-multiplier routine and one RNG bridge:

* ``repro_des`` is an exact transliteration of the per-event loop in
  ``ServingSimulator._run_reference``, its spec: the same event order
  (``(time, seq)`` tie-breaking, with the static events pre-sorted by
  :func:`repro.serving.des.run_simulator_native`), FIFO queues, CoDel
  control law, admission policies and fault multipliers.
* ``repro_router`` is an exact transliteration of the Python loop of
  :meth:`repro.serving.faults.ResilientRouter.run`: the same merge of
  pre-sorted arrivals, crash/restart edges and health probes against a
  heap of dynamic events, the same O(1) fleet aggregates, routing
  policies, timeouts, retries, hedges, degradation, admission with every
  shed policy, CoDel, circuit breakers and brownout.

Three rules keep both bitwise-faithful:

* Every random draw comes from the caller's own generator. The kernels
  receive its ``bitgen_t*`` (``rng.bit_generator.ctypes.bit_generator``)
  and call numpy's own ``random_lognormal`` from ``libnpyrandom.a``, the
  function ``Generator.lognormal`` calls. Routing picks run the
  Lemire/Floyd/shuffle steps of :class:`repro.serving.router.RoutingDraws`
  on ``next_uint32``, which honours PCG64's buffered half-word. The
  generator is left in exactly the state the Python loops leave it in.
* The source is compiled with ``-ffp-contract=off`` so no ``a + b*c`` is
  fused into an FMA; ``exp``/``sqrt`` resolve to the same libm that
  numpy and CPython's :mod:`math` use in-process.
* ``libnpyrandom.a`` is linked *after* the source (a static archive only
  resolves symbols that earlier inputs reference) and is hashed into the
  build-cache key by :func:`repro.hw._native.compile_cached`; the
  kernels load through :func:`repro.hw._native.load_native`.

Simulator records stream out through a flush callback in 64Ki-row blocks
of six float64 columns and are reassembled into a
:class:`~repro.serving.des.RecordBatch`. When no C compiler or no
``libnpyrandom.a`` is available (or ``REPRO_DISABLE_NATIVE=1``),
:func:`native_available` is false and both callers run their Python
loops instead.
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..hw._native import load_native
from .overload import (
    SHED_CODEL,
    SHED_DEADLINE,
    SHED_OLDEST,
    SHED_POLICIES,
    SHED_QUEUE_FULL,
)
from .router import POLICIES, SERVICE_NOISE_SIGMA

if TYPE_CHECKING:
    from .faults import FaultSchedule, FaultyServingResult, ResilientRouter
    from .metrics import SLA
    from .simulator import ServingSimulator

__all__ = ["native_available", "route_native", "simulate_native"]

_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

typedef void (*rec_cb_t)(const double *rows, i64 n);

/* ---------------------------------------------------------- RNG bridge
   numpy's bitgen_t (numpy/random/bitgen.h). Both kernels draw from the
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

/* ================================================ simulator kernel */
typedef struct {
    /* static pre-sorted events */
    const double *st_t;
    const i64 *st_kind;
    const i64 *st_inst;
    i64 n_static;
    i64 num_instances;
    double duration;
    i64 closed_loop;
    /* service-time params indexed by active-job level (1..N+1) */
    const double *svc_base;
    const double *svc_logmean;
    const double *svc_sigma;
    /* admission */
    i64 adm_present;
    i64 adm_capacity;
    i64 adm_reject_oldest;
    i64 adm_has_deadline;
    double adm_deadline;
    i64 codel_enabled;
    /* faults */
    i64 fault_active;
    const Faults *faults;
    /* per-instance ring queues over one flat arrival-time buffer */
    double *qbuf;
    const i64 *qbase;
    const i64 *qcap;
    i64 *qhead;
    i64 *qlen;
    /* scratch */
    unsigned char *busy;
    unsigned char *down;
    i64 *epoch;
    double *cur; /* 5 doubles per instance: arrival,start,end,active,service */
    CoDel *codels;
    Heap heap;
    i64 busy_count;
    i64 dseq;
    bitgen_t *bg;
    int oom;
    /* record flushing */
    rec_cb_t rec_cb;
    double *rows;
    i64 rows_n;
    /* counters */
    i64 offered_extra;
    i64 killed;
    i64 shed;
    i64 max_queue_depth;
} Des;

static void q_push(Des *d, i64 inst, double t) {
    i64 cap = d->qcap[inst];
    d->qbuf[d->qbase[inst] + (d->qhead[inst] + d->qlen[inst]) % cap] = t;
    d->qlen[inst]++;
}

static double q_popleft(Des *d, i64 inst) {
    double t = d->qbuf[d->qbase[inst] + d->qhead[inst]];
    d->qhead[inst] = (d->qhead[inst] + 1) % d->qcap[inst];
    d->qlen[inst]--;
    return t;
}

/* admission.admit(): 1 = enqueue the arrival, 0 = shed it. */
static int admit(Des *d, i64 inst) {
    i64 depth = d->qlen[inst];
    if (d->adm_has_deadline) {
        double expected = d->svc_base[d->busy_count + 1];
        if ((double)(depth + 2) * expected > d->adm_deadline) {
            d->shed++;
            return 0;
        }
    }
    if (depth >= d->adm_capacity) {
        if (d->adm_reject_oldest) {
            q_popleft(d, inst);
            d->shed++;
            return 1;
        }
        d->shed++;
        return 0;
    }
    return 1;
}

/* next_arrival(): CoDel-filtered dequeue; 0 when the queue drains. */
static int next_arrival(Des *d, i64 inst, double now, double *arrival) {
    while (d->qlen[inst] > 0) {
        double a = q_popleft(d, inst);
        if (d->codel_enabled &&
            codel_on_dequeue(&d->codels[inst], now - a, now)) {
            d->shed++;
            continue;
        }
        *arrival = a;
        return 1;
    }
    return 0;
}

static void dispatch(Des *d, i64 inst, double arrival, double now) {
    i64 active = d->busy_count + 1;
    /* sample_service_s: base * rng.lognormal(-sigma**2/2, sigma) */
    double service =
        d->svc_base[active] *
        random_lognormal(d->bg, d->svc_logmean[active], d->svc_sigma[active]);
    if (d->fault_active)
        service *= fault_multiplier(d->faults, inst, now);
    d->busy[inst] = 1;
    d->busy_count++;
    double end = now + service;
    double *c = d->cur + inst * 5;
    c[0] = arrival;
    c[1] = now;
    c[2] = end;
    c[3] = (double)active;
    c[4] = service;
    Ev e = {end, d->dseq++, 0, inst, d->epoch[inst]};
    if (heap_push(&d->heap, e))
        d->oom = 1;
}

static void emit_record(Des *d, i64 inst) {
    const double *c = d->cur + inst * 5;
    double *r = d->rows + d->rows_n * 6;
    r[0] = (double)inst;
    r[1] = c[0];
    r[2] = c[1];
    r[3] = c[2];
    r[4] = c[3];
    r[5] = c[4];
    if (++d->rows_n == 65536) {
        d->rec_cb(d->rows, d->rows_n);
        d->rows_n = 0;
    }
}

/* Returns 0 on success, 1 when memory runs out. */
i64 repro_des(const double *st_t, const i64 *st_kind, const i64 *st_inst,
              i64 n_static, i64 num_instances, double duration,
              i64 closed_loop, const double *svc_base,
              const double *svc_logmean, const double *svc_sigma,
              i64 adm_present, i64 adm_capacity, i64 adm_reject_oldest,
              i64 adm_has_deadline, double adm_deadline, i64 codel_enabled,
              double codel_target, double codel_interval, i64 fault_active,
              const Faults *faults, double *qbuf, const i64 *qbase,
              const i64 *qcap, void *bitgen, rec_cb_t rec_cb, i64 *out) {
    Des d;
    memset(&d, 0, sizeof(d));
    d.st_t = st_t;
    d.st_kind = st_kind;
    d.st_inst = st_inst;
    d.n_static = n_static;
    d.num_instances = num_instances;
    d.duration = duration;
    d.closed_loop = closed_loop;
    d.svc_base = svc_base;
    d.svc_logmean = svc_logmean;
    d.svc_sigma = svc_sigma;
    d.adm_present = adm_present;
    d.adm_capacity = adm_capacity;
    d.adm_reject_oldest = adm_reject_oldest;
    d.adm_has_deadline = adm_has_deadline;
    d.adm_deadline = adm_deadline;
    d.codel_enabled = codel_enabled;
    d.fault_active = fault_active;
    d.faults = faults;
    d.qbuf = qbuf;
    d.qbase = qbase;
    d.qcap = qcap;
    d.bg = (bitgen_t *)bitgen;
    d.rec_cb = rec_cb;

    i64 n_crash = 0;
    for (i64 i = 0; i < n_static; ++i)
        if (st_kind[i] == 2)
            n_crash++;

    i64 N = num_instances;
    d.qhead = calloc((size_t)N, sizeof(i64));
    d.qlen = calloc((size_t)N, sizeof(i64));
    d.busy = calloc((size_t)N, 1);
    d.down = calloc((size_t)N, 1);
    d.epoch = calloc((size_t)N, sizeof(i64));
    d.cur = calloc((size_t)N * 5, sizeof(double));
    d.codels = calloc((size_t)N, sizeof(CoDel));
    /* One live completion per instance plus one stale one per crash. */
    d.heap.cap = N + n_crash + 2;
    d.heap.ev = malloc((size_t)d.heap.cap * sizeof(Ev));
    d.rows = malloc((size_t)65536 * 6 * sizeof(double));
    if (!d.qhead || !d.qlen || !d.busy || !d.down || !d.epoch || !d.cur ||
        !d.codels || !d.heap.ev || !d.rows)
        d.oom = 1;
    for (i64 i = 0; i < N && !d.oom; ++i) {
        d.codels[i].target = codel_target;
        d.codels[i].interval = codel_interval;
    }

    i64 si = 0;
    while (!d.oom && (si < n_static || d.heap.n > 0)) {
        if (si < n_static &&
            (d.heap.n == 0 || st_t[si] <= d.heap.ev[0].t)) {
            double now = st_t[si];
            i64 kind = st_kind[si];
            i64 inst = st_inst[si];
            si++;
            if (kind == 0) { /* arrival */
                if (now >= duration)
                    continue;
                if (d.busy[inst] || d.down[inst]) {
                    if (adm_present && !admit(&d, inst))
                        continue;
                    q_push(&d, inst, now);
                    if (d.qlen[inst] > d.max_queue_depth)
                        d.max_queue_depth = d.qlen[inst];
                } else {
                    dispatch(&d, inst, now, now);
                }
            } else if (kind == 2) { /* replica crash */
                d.down[inst] = 1;
                d.epoch[inst]++;
                if (d.busy[inst]) {
                    d.killed++;
                    d.busy[inst] = 0;
                    d.busy_count--;
                }
            } else { /* kind == 3: replica restart */
                d.down[inst] = 0;
                if (now >= duration)
                    continue;
                double arrival;
                if (next_arrival(&d, inst, now, &arrival)) {
                    dispatch(&d, inst, arrival, now);
                } else if (closed_loop && !d.busy[inst]) {
                    d.offered_extra++;
                    dispatch(&d, inst, now, now);
                }
            }
        } else { /* completion */
            Ev e = heap_pop(&d.heap);
            i64 inst = e.a;
            if (e.b != d.epoch[inst])
                continue; /* killed by a crash */
            double now = e.t;
            emit_record(&d, inst);
            d.busy[inst] = 0;
            d.busy_count--;
            if (now >= duration)
                continue;
            double arrival;
            if (next_arrival(&d, inst, now, &arrival)) {
                dispatch(&d, inst, arrival, now);
            } else if (closed_loop) {
                d.offered_extra++;
                dispatch(&d, inst, now, now);
            }
        }
    }

    if (!d.oom && d.rows_n > 0)
        d.rec_cb(d.rows, d.rows_n);
    i64 leftover = 0;
    for (i64 i = 0; i < N && d.qlen; ++i)
        leftover += d.qlen[i];
    out[0] = d.offered_extra;
    out[1] = d.killed;
    out[2] = d.shed;
    out[3] = d.max_queue_depth;
    out[4] = leftover;

    free(d.qhead);
    free(d.qlen);
    free(d.busy);
    free(d.down);
    free(d.epoch);
    free(d.cur);
    free(d.codels);
    free(d.heap.ev);
    free(d.rows);
    return d.oom;
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
"""

_F64P = ctypes.POINTER(ctypes.c_double)
_I64P = ctypes.POINTER(ctypes.c_int64)
_REC_CB = ctypes.CFUNCTYPE(None, _F64P, ctypes.c_int64)
_I64 = ctypes.c_int64
_F64 = ctypes.c_double

#: ``RouterRun.shed`` slot order (the C enum), as OverloadStats keys.
_SHED_REASONS = (SHED_QUEUE_FULL, SHED_OLDEST, SHED_DEADLINE, SHED_CODEL)


class _Faults(ctypes.Structure):
    _fields_ = [
        ("n_str", _I64),
        ("str_rep", _I64P),
        ("str_start", _F64P),
        ("str_end", _F64P),
        ("str_slow", _F64P),
        ("n_bw", _I64),
        ("bw_rep", _I64P),
        ("bw_start", _F64P),
        ("bw_end", _F64P),
        ("bw_mult", _F64P),
    ]


class _RouterRun(ctypes.Structure):
    """Mirror of the kernel's ``RouterRun``: arguments, then results."""

    _fields_ = [
        ("bitgen", ctypes.c_void_p),
        ("num_machines", _I64),
        ("routing", _I64),
        ("duration", _F64),
        ("noise_mean", _F64),
        ("noise_sigma", _F64),
        ("tier_service", _F64P),
        ("degraded_service", _F64),
        ("n_arrivals", _I64),
        ("arrival_t", _F64P),
        ("arrival_id", _I64P),
        ("request_arrival", _F64P),
        ("n_transitions", _I64),
        ("transition_t", _F64P),
        ("transition_machine", _I64P),
        ("transition_down", _I64P),
        ("faults", _Faults),
        ("has_timeout", _I64),
        ("timeout", _F64),
        ("max_retries", _I64),
        ("backoff_base", _F64),
        ("has_hedge", _I64),
        ("hedge_delay", _F64),
        ("has_health", _I64),
        ("health_interval", _F64),
        ("probe_horizon", _F64),
        ("has_degradation", _I64),
        ("min_healthy_fraction", _F64),
        ("queue_depth_trigger", _F64),
        ("has_overload", _I64),
        ("has_admission", _I64),
        ("queue_capacity", _I64),
        ("shed_policy", _I64),
        ("deadline", _F64),
        ("expected_service", _F64),
        ("has_codel", _I64),
        ("codel_target", _F64),
        ("codel_interval", _F64),
        ("has_breakers", _I64),
        ("failure_threshold", _I64),
        ("breaker_window", _F64),
        ("open_duration", _F64),
        ("half_open_probes", _I64),
        ("has_brownout", _I64),
        ("brownout_rungs", _I64),
        ("step_up_depth", _F64),
        ("step_down_depth", _F64),
        ("dwell", _F64),
        ("latencies", _F64P),
        ("time_in_tier", _F64P),
        ("completions_by_tier", _I64P),
        ("completed", _I64),
        ("failed", _I64),
        ("retries", _I64),
        ("hedges", _I64),
        ("wasted_attempts", _I64),
        ("fail_fasts", _I64),
        ("ejections", _I64),
        ("degraded_completions", _I64),
        ("time_in_degraded", _F64),
        ("ovl_offered", _I64),
        ("ovl_admitted", _I64),
        ("shed", _I64 * 4),
        ("shed_order", _I64 * 4),
        ("n_shed_reasons", _I64),
        ("breaker_rejections", _I64),
        ("breaker_opens", _I64),
        ("brownout_switches", _I64),
        ("max_brownout_tier", _I64),
        ("max_queue_depth", _I64),
    ]


#: numpy's static distributions library; some numpy builds do not ship
#: it, and then the kernels cannot build.
_NPYRANDOM_ARCHIVE = (
    Path(np.__file__).resolve().parent / "random" / "lib" / "libnpyrandom.a"
)


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    lib.repro_des.restype = _I64
    lib.repro_des.argtypes = [
        _F64P, _I64P, _I64P,                      # static events
        _I64, _I64,                               # n_static, N
        _F64, _I64,                               # duration, closed_loop
        _F64P, _F64P, _F64P,                      # svc params
        _I64, _I64,                               # adm present, capacity
        _I64, _I64,                               # reject_oldest, has_dl
        _F64, _I64,                               # deadline, codel on
        _F64, _F64,                               # codel target, interval
        _I64, ctypes.POINTER(_Faults),            # fault_active, faults
        _F64P, _I64P, _I64P,                      # queue buffer/base/cap
        ctypes.c_void_p, _REC_CB, _I64P,          # bitgen, flush, out[5]
    ]
    lib.repro_router.restype = _I64
    lib.repro_router.argtypes = [ctypes.POINTER(_RouterRun)]
    lib.repro_router_run_size.restype = _I64
    lib.repro_router_run_size.argtypes = []
    if lib.repro_router_run_size() != ctypes.sizeof(_RouterRun):
        raise RuntimeError("_RouterRun does not match the kernel's RouterRun")
    return lib


def _load() -> ctypes.CDLL | None:
    # -ffp-contract=off: no a + b*c may be fused into an FMA, or native
    # drifts from python by one ulp on architectures where GCC contracts
    # by default. The archive goes after the source.
    return load_native(
        "repro_des",
        _C_SOURCE,
        _bind,
        extra_flags=("-ffp-contract=off",),
        link_inputs=(str(_NPYRANDOM_ARCHIVE), "-lm"),
    )


def native_available() -> bool:
    """Whether the C kernels can be (or were) built on this host."""
    return _load() is not None


def _as_f64(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64)


def _as_i64(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.int64)


def _fault_arrays(
    faults: "FaultSchedule | None", memory_fraction: float
) -> tuple[_Faults, tuple[np.ndarray, ...]]:
    """The kernel's ``Faults`` view of a schedule, and the arrays it points at.

    Keep the arrays alive for as long as the kernel reads the struct.
    """
    stragglers = faults.stragglers if faults is not None else ()
    bws = faults.bandwidth_faults if faults is not None else ()
    arrays = (
        _as_i64([s.replica_id for s in stragglers]),
        _as_f64([s.start_s for s in stragglers]),
        _as_f64([s.start_s + s.duration_s for s in stragglers]),
        _as_f64([s.slowdown for s in stragglers]),
        _as_i64([-1 if b.replica_id is None else b.replica_id for b in bws]),
        _as_f64([b.start_s for b in bws]),
        _as_f64([b.start_s + b.duration_s for b in bws]),
        # Amdahl stretch on the memory-bound share, computed once per
        # fault in the exact float order of service_multiplier().
        _as_f64(
            [
                1.0 + memory_fraction * (1.0 / b.bandwidth_fraction - 1.0)
                for b in bws
            ]
        ),
    )
    str_rep, str_start, str_end, str_slow, bw_rep, bw_start, bw_end, bw_mult = arrays
    view = _Faults(
        len(stragglers),
        str_rep.ctypes.data_as(_I64P),
        str_start.ctypes.data_as(_F64P),
        str_end.ctypes.data_as(_F64P),
        str_slow.ctypes.data_as(_F64P),
        len(bws),
        bw_rep.ctypes.data_as(_I64P),
        bw_start.ctypes.data_as(_F64P),
        bw_end.ctypes.data_as(_F64P),
        bw_mult.ctypes.data_as(_F64P),
    )
    return view, arrays


def simulate_native(
    sim: "ServingSimulator",
    duration_s: float,
    times: np.ndarray,
    kinds: np.ndarray,
    insts: np.ndarray,
):
    """Run the simulator loop natively over pre-sorted static events.

    Returns ``(records, reissued, killed, shed, max_queue_depth,
    leftover_depth)``; ``reissued`` counts the closed-loop arrivals the
    loop added. The kernel draws from ``sim._rng`` itself, so the
    generator ends where the reference loop leaves it.
    """
    lib = _load()
    assert lib is not None, "callers check native_available() first"
    rng = sim._rng
    num_instances = sim.num_instances

    times = _as_f64(times)
    kinds = _as_i64(kinds)
    insts = _as_i64(insts)

    admission = sim.overload.admission if sim.overload is not None else None
    adm_present = admission is not None
    adm_capacity = admission.queue_capacity if adm_present else 0
    adm_reject_oldest = adm_present and admission.shed_policy == "reject_oldest"
    adm_has_deadline = (
        adm_present
        and admission.shed_policy == "deadline_aware"
        and admission.deadline_s is not None
    )

    # Service-time parameters per active-job level: a dispatch reads
    # levels 1..N, and only deadline-aware admission probes level N+1
    # (all instances busy), so only it pays for pricing that level.
    # _base_latency and noise_sigma are pure, so eager evaluation matches
    # the reference loop's lazy cache.
    levels = num_instances + 2
    svc_base = np.zeros(levels, dtype=np.float64)
    svc_logmean = np.zeros(levels, dtype=np.float64)
    svc_sigma = np.zeros(levels, dtype=np.float64)
    for active in range(1, levels if adm_has_deadline else levels - 1):
        base_s = sim._base_latency(active).total_seconds
        sigma = sim.noise_sigma(active)
        svc_base[active] = base_s
        svc_logmean[active] = -0.5 * sigma**2
        svc_sigma[active] = sigma
    adm_deadline = admission.deadline_s if adm_has_deadline else 0.0
    codel_enabled = adm_present and admission.codel_target_s is not None
    codel_target = admission.codel_target_s if codel_enabled else 1.0
    codel_interval = admission.codel_interval_s if codel_enabled else 1.0

    faults = sim.faults
    fault_active = faults is not None and not faults.is_zero
    fault_view, fault_arrays = _fault_arrays(
        faults if fault_active else None, sim._memory_fraction
    )

    # Flat ring-queue storage: an instance's queue can never exceed its
    # static arrival count (only kind-0 events enqueue).
    arrival_counts = np.bincount(
        insts[kinds == 0], minlength=num_instances
    ).astype(np.int64)
    qcap = arrival_counts + 1
    qbase = np.zeros(num_instances, dtype=np.int64)
    np.cumsum(qcap[:-1], out=qbase[1:])
    qbuf = np.zeros(int(qcap.sum()), dtype=np.float64)

    chunks: list[np.ndarray] = []

    def _rec_flush(rows_ptr, n):
        flat = np.ctypeslib.as_array(rows_ptr, shape=(int(n) * 6,))
        chunks.append(flat.copy())

    out = np.zeros(5, dtype=np.int64)
    bit_generator = rng.bit_generator
    with bit_generator.lock:
        status = lib.repro_des(
            times.ctypes.data_as(_F64P),
            kinds.ctypes.data_as(_I64P),
            insts.ctypes.data_as(_I64P),
            times.size,
            num_instances,
            float(duration_s),
            int(sim.per_instance_qps is None),
            svc_base.ctypes.data_as(_F64P),
            svc_logmean.ctypes.data_as(_F64P),
            svc_sigma.ctypes.data_as(_F64P),
            int(adm_present),
            int(adm_capacity),
            int(adm_reject_oldest),
            int(adm_has_deadline),
            float(adm_deadline),
            int(codel_enabled),
            float(codel_target),
            float(codel_interval),
            int(fault_active),
            ctypes.byref(fault_view),
            qbuf.ctypes.data_as(_F64P),
            qbase.ctypes.data_as(_I64P),
            qcap.ctypes.data_as(_I64P),
            bit_generator.ctypes.bit_generator,
            _REC_CB(_rec_flush),
            out.ctypes.data_as(_I64P),
        )
    del fault_arrays
    if status:
        raise MemoryError("the simulator kernel ran out of memory")

    from .des import RecordBatch

    if chunks:
        data = np.concatenate(chunks).reshape(-1, 6)
    else:
        data = np.empty((0, 6), dtype=np.float64)
    records = RecordBatch(
        data[:, 0], data[:, 1], data[:, 2], data[:, 3], data[:, 4], data[:, 5]
    )
    return records, int(out[0]), int(out[1]), int(out[2]), int(out[3]), int(out[4])


def route_native(
    router: "ResilientRouter",
    rng: np.random.Generator,
    offered_qps: float,
    duration_s: float,
    faults: "FaultSchedule",
    sla: "SLA",
    arrival_t: np.ndarray,
    arrival_id: np.ndarray,
    request_arrival_s: np.ndarray,
    transitions: list[tuple[float, int, bool]],
) -> "FaultyServingResult":
    """Run the Python loop of ``ResilientRouter.run`` in the C kernel.

    Takes the run's prepared inputs (the generator after the arrival
    draws, sorted arrival times with their request ids, arrival time by
    request id, and the schedule's crash/restart edges) and returns the
    same :class:`~repro.serving.faults.FaultyServingResult` the Python
    loop returns, field for field, with the generator advanced exactly as
    far. Metrics and tracing stay with the caller.
    """
    from .faults import FaultyServingResult
    from .overload import OverloadStats

    lib = _load()
    assert lib is not None, "callers check native_available() first"
    policy = router.policy
    overload = router.overload
    admission = overload.admission if overload is not None else None
    breaker = overload.breaker if overload is not None else None
    brownout = overload.brownout if overload is not None else None
    degradation = router.degradation

    arrival_t = _as_f64(arrival_t)
    arrival_id = _as_i64(arrival_id)
    request_arrival_s = _as_f64(request_arrival_s)
    transition_t = _as_f64([e[0] for e in transitions])
    transition_machine = _as_i64([e[1] for e in transitions])
    transition_down = _as_i64([e[2] for e in transitions])
    tier_service = _as_f64(router._tier_service_s)
    n_tiers = brownout.num_tiers if brownout is not None else 1
    latencies = np.empty(arrival_t.size, dtype=np.float64)
    time_in_tier = np.zeros(n_tiers, dtype=np.float64)
    completions_by_tier = np.zeros(n_tiers, dtype=np.int64)
    fault_view, fault_arrays = _fault_arrays(faults, router._memory_fraction)

    sigma = SERVICE_NOISE_SIGMA
    run = _RouterRun(
        bitgen=rng.bit_generator.ctypes.bit_generator.value,
        num_machines=router.num_machines,
        routing=POLICIES.index(router.routing),
        duration=duration_s,
        noise_mean=-0.5 * sigma**2,
        noise_sigma=sigma,
        tier_service=tier_service.ctypes.data_as(_F64P),
        degraded_service=router._degraded_service_s,
        n_arrivals=arrival_t.size,
        arrival_t=arrival_t.ctypes.data_as(_F64P),
        arrival_id=arrival_id.ctypes.data_as(_I64P),
        request_arrival=request_arrival_s.ctypes.data_as(_F64P),
        n_transitions=transition_t.size,
        transition_t=transition_t.ctypes.data_as(_F64P),
        transition_machine=transition_machine.ctypes.data_as(_I64P),
        transition_down=transition_down.ctypes.data_as(_I64P),
        faults=fault_view,
        has_timeout=policy.timeout_s is not None,
        timeout=policy.timeout_s or 0.0,
        max_retries=policy.max_retries,
        backoff_base=policy.backoff_base_s,
        has_hedge=policy.hedge_delay_s is not None,
        hedge_delay=policy.hedge_delay_s or 0.0,
        has_health=policy.health_check_interval_s is not None,
        health_interval=policy.health_check_interval_s or 0.0,
        probe_horizon=duration_s + 10.0 * router._base_service_s,
        has_degradation=degradation is not None,
        min_healthy_fraction=(
            degradation.min_healthy_fraction if degradation is not None else 0.0
        ),
        queue_depth_trigger=(
            degradation.queue_depth_trigger if degradation is not None else 0.0
        ),
        has_overload=overload is not None,
        has_admission=admission is not None,
        queue_capacity=admission.queue_capacity if admission is not None else 0,
        shed_policy=(
            SHED_POLICIES.index(admission.shed_policy)
            if admission is not None
            else 0
        ),
        deadline=(
            admission.deadline_s
            if admission is not None and admission.deadline_s is not None
            else 0.0
        ),
        expected_service=router._base_service_s,
        has_codel=admission is not None and admission.codel_target_s is not None,
        codel_target=(
            admission.codel_target_s
            if admission is not None and admission.codel_target_s is not None
            else 1.0
        ),
        codel_interval=(
            admission.codel_interval_s if admission is not None else 1.0
        ),
        has_breakers=breaker is not None,
        failure_threshold=breaker.failure_threshold if breaker is not None else 1,
        breaker_window=breaker.window_s if breaker is not None else 0.0,
        open_duration=breaker.open_duration_s if breaker is not None else 0.0,
        half_open_probes=breaker.half_open_probes if breaker is not None else 0,
        has_brownout=brownout is not None,
        brownout_rungs=len(brownout.tiers) if brownout is not None else 0,
        step_up_depth=brownout.step_up_depth if brownout is not None else 0.0,
        step_down_depth=brownout.step_down_depth if brownout is not None else 0.0,
        dwell=brownout.dwell_s if brownout is not None else 0.0,
        latencies=latencies.ctypes.data_as(_F64P),
        time_in_tier=time_in_tier.ctypes.data_as(_F64P),
        completions_by_tier=completions_by_tier.ctypes.data_as(_I64P),
    )
    with rng.bit_generator.lock:
        status = lib.repro_router(ctypes.byref(run))
    del fault_arrays
    if status:
        raise MemoryError("the router kernel ran out of memory")

    ovl_stats = None
    if overload is not None:
        ovl_stats = OverloadStats(
            offered=run.ovl_offered,
            admitted=run.ovl_admitted,
            shed_by_reason={
                _SHED_REASONS[k]: run.shed[k]
                for k in run.shed_order[: run.n_shed_reasons]
            },
            breaker_rejections=run.breaker_rejections,
            breaker_opens=run.breaker_opens,
            max_brownout_tier=run.max_brownout_tier,
            max_queue_depth=run.max_queue_depth,
        )
        if brownout is not None:
            ovl_stats.brownout_switches = run.brownout_switches
            ovl_stats.time_in_tier_s = time_in_tier.tolist()
            ovl_stats.completions_by_tier = completions_by_tier.tolist()
    completed = run.completed
    return FaultyServingResult(
        policy=policy,
        num_machines=router.num_machines,
        offered_qps=offered_qps,
        duration_s=duration_s,
        sla=sla,
        latencies_s=latencies[:completed].copy(),
        offered=int(arrival_t.size),
        failed=run.failed,
        retries=run.retries,
        hedges=run.hedges,
        wasted_attempts=run.wasted_attempts,
        fail_fasts=run.fail_fasts,
        ejections=run.ejections,
        degraded_completions=run.degraded_completions,
        time_in_degraded_s=run.time_in_degraded,
        quality=router._quality,
        overload=ovl_stats,
        brownout_quality=(
            router._brownout_quality if brownout is not None else None
        ),
    )
