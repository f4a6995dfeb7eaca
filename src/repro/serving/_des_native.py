"""Self-compiled C kernel for the vectorized single-machine DES.

The kernel is an exact transliteration of the per-event loop in
``ServingSimulator._run_reference``, its spec: the same event order
(``(time, seq)`` tie-breaking, with the static events pre-sorted by
:func:`repro.serving.des.run_simulator_vectorized`), FIFO queues, CoDel
control law, admission policies and fault multipliers, evaluated in the
same floating-point order. Two rules keep it bitwise-faithful:

* Standard normals come from the *python* generator through a refill
  callback (each ``lognormal(m, s)`` draw is ``exp(m + s*z)`` of one
  standard normal, and chunked ``standard_normal`` is bitwise equal to
  scalar draws). The wrapper rolls the generator back and re-draws
  exactly the consumed count afterwards, so the RNG stream position
  matches the reference run.
* The source is compiled with ``-ffp-contract=off`` so ``mean + sigma*z``
  is never fused into an FMA; ``exp``/``sqrt`` resolve to the same libm
  that CPython's :mod:`math` wraps in-process.

Records stream out through a flush callback in 64Ki-row blocks of six
float64 columns and are reassembled into a
:class:`~repro.serving.des.RecordBatch`. When no C compiler is available
(or ``REPRO_DISABLE_NATIVE=1``), :func:`native_available` is false and
``ServingSimulator.run`` takes the reference loop. Build caching is
shared with the cache-replay kernel via
:func:`repro.hw._native.compile_cached`.
"""

from __future__ import annotations

import ctypes
from typing import TYPE_CHECKING

import numpy as np

from ..hw._native import compile_cached

if TYPE_CHECKING:
    from .simulator import ServingSimulator

__all__ = ["native_available", "simulate_native"]

_FLUSH_ROWS = 65536

_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

typedef void (*norm_cb_t)(double *buf, i64 n);
typedef void (*rec_cb_t)(const double *rows, i64 n);

/* ------------------------------------------------------- event heap
   Min-heap ordered by (t, seq) — the exact total order of python's
   heapq over (end_s, dseq, instance, epoch) tuples, since dseq is
   unique. */
typedef struct {
    double t;
    i64 seq;
    i64 inst;
    i64 ep;
} Ev;

static inline int ev_less(const Ev *a, const Ev *b) {
    return a->t < b->t || (a->t == b->t && a->seq < b->seq);
}

static void heap_push(Ev *h, i64 *n, Ev e) {
    i64 i = (*n)++;
    h[i] = e;
    while (i > 0) {
        i64 p = (i - 1) / 2;
        if (!ev_less(&h[i], &h[p]))
            break;
        Ev tmp = h[p];
        h[p] = h[i];
        h[i] = tmp;
        i = p;
    }
}

static Ev heap_pop(Ev *h, i64 *n) {
    Ev top = h[0];
    h[0] = h[--(*n)];
    i64 i = 0;
    for (;;) {
        i64 l = 2 * i + 1, r = l + 1, m = i;
        if (l < *n && ev_less(&h[l], &h[m]))
            m = l;
        if (r < *n && ev_less(&h[r], &h[m]))
            m = r;
        if (m == i)
            break;
        Ev tmp = h[m];
        h[m] = h[i];
        h[i] = tmp;
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

/* ------------------------------------------------------- kernel state */
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
    /* faults (interval ends and bandwidth multipliers precomputed) */
    i64 fault_active;
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
    Ev *heap;
    i64 heap_n;
    i64 busy_count;
    i64 dseq;
    /* normals */
    norm_cb_t norm_cb;
    double *nbuf;
    i64 nbuf_size;
    i64 nbuf_pos;
    i64 normals_used;
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

static double next_normal(Des *d) {
    if (d->nbuf_pos >= d->nbuf_size) {
        d->norm_cb(d->nbuf, d->nbuf_size);
        d->nbuf_pos = 0;
    }
    d->normals_used++;
    return d->nbuf[d->nbuf_pos++];
}

static double service_multiplier(const Des *d, i64 inst, double t) {
    double m = 1.0;
    for (i64 i = 0; i < d->n_str; ++i)
        if (d->str_rep[i] == inst && d->str_start[i] <= t &&
            t < d->str_end[i])
            m *= d->str_slow[i];
    for (i64 i = 0; i < d->n_bw; ++i) {
        if (d->bw_rep[i] >= 0 && d->bw_rep[i] != inst)
            continue;
        if (d->bw_start[i] <= t && t < d->bw_end[i])
            m *= d->bw_mult[i];
    }
    return m;
}

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
    double z = next_normal(d);
    double service =
        d->svc_base[active] *
        exp(d->svc_logmean[active] + d->svc_sigma[active] * z);
    if (d->fault_active)
        service *= service_multiplier(d, inst, now);
    d->busy[inst] = 1;
    d->busy_count++;
    double end = now + service;
    double *c = d->cur + inst * 5;
    c[0] = arrival;
    c[1] = now;
    c[2] = end;
    c[3] = (double)active;
    c[4] = service;
    Ev e = {end, d->dseq++, inst, d->epoch[inst]};
    heap_push(d->heap, &d->heap_n, e);
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

void repro_des(const double *st_t, const i64 *st_kind, const i64 *st_inst,
               i64 n_static, i64 num_instances, double duration,
               i64 closed_loop, const double *svc_base,
               const double *svc_logmean, const double *svc_sigma,
               i64 adm_present, i64 adm_capacity, i64 adm_reject_oldest,
               i64 adm_has_deadline, double adm_deadline, i64 codel_enabled,
               double codel_target, double codel_interval, i64 fault_active,
               i64 n_str, const i64 *str_rep, const double *str_start,
               const double *str_end, const double *str_slow, i64 n_bw,
               const i64 *bw_rep, const double *bw_start,
               const double *bw_end, const double *bw_mult, double *qbuf,
               const i64 *qbase, const i64 *qcap, norm_cb_t norm_cb,
               rec_cb_t rec_cb, i64 *out) {
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
    d.n_str = n_str;
    d.str_rep = str_rep;
    d.str_start = str_start;
    d.str_end = str_end;
    d.str_slow = str_slow;
    d.n_bw = n_bw;
    d.bw_rep = bw_rep;
    d.bw_start = bw_start;
    d.bw_end = bw_end;
    d.bw_mult = bw_mult;
    d.qbuf = qbuf;
    d.qbase = qbase;
    d.qcap = qcap;
    d.norm_cb = norm_cb;
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
    d.heap = malloc((size_t)(N + n_crash + 2) * sizeof(Ev));
    d.nbuf_size = 8192;
    d.nbuf = malloc((size_t)d.nbuf_size * sizeof(double));
    d.nbuf_pos = d.nbuf_size;
    d.rows = malloc((size_t)65536 * 6 * sizeof(double));
    for (i64 i = 0; i < N; ++i) {
        d.codels[i].target = codel_target;
        d.codels[i].interval = codel_interval;
    }

    i64 si = 0;
    while (si < n_static || d.heap_n > 0) {
        if (si < n_static &&
            (d.heap_n == 0 || st_t[si] <= d.heap[0].t)) {
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
            Ev e = heap_pop(d.heap, &d.heap_n);
            if (e.ep != d.epoch[e.inst])
                continue; /* killed by a crash */
            double now = e.t;
            i64 inst = e.inst;
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

    if (d.rows_n > 0)
        d.rec_cb(d.rows, d.rows_n);
    i64 leftover = 0;
    for (i64 i = 0; i < N; ++i)
        leftover += d.qlen[i];
    out[0] = d.offered_extra;
    out[1] = d.killed;
    out[2] = d.shed;
    out[3] = d.max_queue_depth;
    out[4] = leftover;
    out[5] = d.normals_used;

    free(d.qhead);
    free(d.qlen);
    free(d.busy);
    free(d.down);
    free(d.epoch);
    free(d.cur);
    free(d.codels);
    free(d.heap);
    free(d.nbuf);
    free(d.rows);
}
"""

_F64P = ctypes.POINTER(ctypes.c_double)
_I64P = ctypes.POINTER(ctypes.c_int64)
_NORM_CB = ctypes.CFUNCTYPE(None, _F64P, ctypes.c_int64)
_REC_CB = ctypes.CFUNCTYPE(None, _F64P, ctypes.c_int64)

_CACHED: tuple[bool, ctypes.CDLL | None] | None = None


def _load() -> ctypes.CDLL | None:
    global _CACHED
    if _CACHED is not None:
        return _CACHED[1]
    try:
        # -ffp-contract=off: the service-draw expression mean + sigma*z
        # must not be fused into an FMA, or native drifts from python
        # by one ulp on architectures where GCC contracts by default.
        path = compile_cached(
            _C_SOURCE, "repro_des", extra_flags=("-ffp-contract=off",)
        )
        lib = ctypes.CDLL(str(path)) if path else None
    except OSError:
        lib = None
    if lib is not None:
        lib.repro_des.restype = None
        lib.repro_des.argtypes = [
            _F64P, _I64P, _I64P,                      # static events
            ctypes.c_int64, ctypes.c_int64,           # n_static, N
            ctypes.c_double, ctypes.c_int64,          # duration, closed_loop
            _F64P, _F64P, _F64P,                      # svc params
            ctypes.c_int64, ctypes.c_int64,           # adm present, capacity
            ctypes.c_int64, ctypes.c_int64,           # reject_oldest, has_dl
            ctypes.c_double, ctypes.c_int64,          # deadline, codel on
            ctypes.c_double, ctypes.c_double,         # codel target, interval
            ctypes.c_int64, ctypes.c_int64,           # fault_active, n_str
            _I64P, _F64P, _F64P, _F64P,               # straggler arrays
            ctypes.c_int64,                           # n_bw
            _I64P, _F64P, _F64P, _F64P,               # bandwidth arrays
            _F64P, _I64P, _I64P,                      # queue buffer/base/cap
            _NORM_CB, _REC_CB, _I64P,                 # callbacks, out[6]
        ]
    _CACHED = (lib is not None, lib)
    return lib


def native_available() -> bool:
    """Whether the C kernel can be (or was) built on this host."""
    return _load() is not None


def _as_f64(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64)


def _as_i64(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.int64)


def simulate_native(
    sim: "ServingSimulator",
    duration_s: float,
    times: np.ndarray,
    kinds: np.ndarray,
    insts: np.ndarray,
):
    """Run the simulator loop natively over pre-sorted static events.

    Returns ``(records, reissued, killed, shed, max_queue_depth,
    leftover_depth)`` with the RNG left at the reference stream position;
    ``reissued`` counts the closed-loop arrivals the loop added.
    """
    lib = _load()
    assert lib is not None, "callers check native_available() first"
    rng = sim._rng
    num_instances = sim.num_instances

    times = _as_f64(times)
    kinds = _as_i64(kinds)
    insts = _as_i64(insts)

    # Service-time parameters per active-job level. The admission deadline
    # check can probe level N+1 (all instances busy); _base_latency and
    # noise_sigma are pure, so eager evaluation matches the lazy cache.
    levels = num_instances + 2
    svc_base = np.zeros(levels, dtype=np.float64)
    svc_logmean = np.zeros(levels, dtype=np.float64)
    svc_sigma = np.zeros(levels, dtype=np.float64)
    for active in range(1, levels):
        base_s = sim._base_latency(active).total_seconds
        sigma = sim.noise_sigma(active)
        svc_base[active] = base_s
        svc_logmean[active] = -0.5 * sigma**2
        svc_sigma[active] = sigma

    admission = sim.overload.admission if sim.overload is not None else None
    adm_present = admission is not None
    adm_capacity = admission.queue_capacity if adm_present else 0
    adm_reject_oldest = adm_present and admission.shed_policy == "reject_oldest"
    adm_has_deadline = (
        adm_present
        and admission.shed_policy == "deadline_aware"
        and admission.deadline_s is not None
    )
    adm_deadline = admission.deadline_s if adm_has_deadline else 0.0
    codel_enabled = adm_present and admission.codel_target_s is not None
    codel_target = admission.codel_target_s if codel_enabled else 1.0
    codel_interval = admission.codel_interval_s if codel_enabled else 1.0

    faults = sim.faults
    fault_active = faults is not None and not faults.is_zero
    memory_fraction = sim._memory_fraction
    if fault_active:
        stragglers = faults.stragglers
        str_rep = _as_i64([s.replica_id for s in stragglers])
        str_start = _as_f64([s.start_s for s in stragglers])
        str_end = _as_f64([s.start_s + s.duration_s for s in stragglers])
        str_slow = _as_f64([s.slowdown for s in stragglers])
        bws = faults.bandwidth_faults
        bw_rep = _as_i64(
            [-1 if b.replica_id is None else b.replica_id for b in bws]
        )
        bw_start = _as_f64([b.start_s for b in bws])
        bw_end = _as_f64([b.start_s + b.duration_s for b in bws])
        # Amdahl stretch on the memory-bound share, computed once per
        # fault in the exact float order of service_multiplier().
        bw_mult = _as_f64(
            [
                1.0 + memory_fraction * (1.0 / b.bandwidth_fraction - 1.0)
                for b in bws
            ]
        )
    else:
        str_rep = bw_rep = _as_i64([])
        str_start = str_end = str_slow = _as_f64([])
        bw_start = bw_end = bw_mult = _as_f64([])

    # Flat ring-queue storage: an instance's queue can never exceed its
    # static arrival count (only kind-0 events enqueue).
    arrival_counts = np.bincount(
        insts[kinds == 0], minlength=num_instances
    ).astype(np.int64)
    qcap = arrival_counts + 1
    qbase = np.zeros(num_instances, dtype=np.int64)
    np.cumsum(qcap[:-1], out=qbase[1:])
    qbuf = np.zeros(int(qcap.sum()), dtype=np.float64)

    state0 = rng.bit_generator.state
    chunks: list[np.ndarray] = []

    def _norm_fill(buf_ptr, n):
        block = rng.standard_normal(int(n))
        ctypes.memmove(
            buf_ptr, block.ctypes.data, int(n) * ctypes.sizeof(ctypes.c_double)
        )

    def _rec_flush(rows_ptr, n):
        flat = np.ctypeslib.as_array(rows_ptr, shape=(int(n) * 6,))
        chunks.append(flat.copy())

    out = np.zeros(6, dtype=np.int64)
    lib.repro_des(
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
        str_rep.size,
        str_rep.ctypes.data_as(_I64P),
        str_start.ctypes.data_as(_F64P),
        str_end.ctypes.data_as(_F64P),
        str_slow.ctypes.data_as(_F64P),
        bw_rep.size,
        bw_rep.ctypes.data_as(_I64P),
        bw_start.ctypes.data_as(_F64P),
        bw_end.ctypes.data_as(_F64P),
        bw_mult.ctypes.data_as(_F64P),
        qbuf.ctypes.data_as(_F64P),
        qbase.ctypes.data_as(_I64P),
        qcap.ctypes.data_as(_I64P),
        _NORM_CB(_norm_fill),
        _REC_CB(_rec_flush),
        out.ctypes.data_as(_I64P),
    )

    # Re-synchronise the generator to the scalar draw count: the refills
    # drew whole chunks, the reference loop one normal per dispatch.
    rng.bit_generator.state = state0
    normals_used = int(out[5])
    if normals_used:
        rng.standard_normal(normals_used)

    from .des import RecordBatch

    if chunks:
        data = np.concatenate(chunks).reshape(-1, 6)
    else:
        data = np.empty((0, 6), dtype=np.float64)
    records = RecordBatch(
        data[:, 0], data[:, 1], data[:, 2], data[:, 3], data[:, 4], data[:, 5]
    )
    return records, int(out[0]), int(out[1]), int(out[2]), int(out[3]), int(out[4])
