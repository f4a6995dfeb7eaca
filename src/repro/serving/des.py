"""Vectorized fleet-scale discrete-event engines (the PR-5 pattern, applied
to the DES itself).

The per-event python loops in :class:`~repro.serving.simulator.ServingSimulator`
and :class:`~repro.serving.faults.ResilientRouter` are the *executable spec*:
every behaviour question is settled by reading them. This module adds a
second engine per simulator — selected with ``engine="vectorized"`` — that
reproduces the spec **bit for bit** (records, summaries, overload stats,
availability, RNG stream position) while running one to two orders of
magnitude faster:

* arrivals are generated in numpy chunks whose values *and* final RNG state
  are provably identical to the scalar draw loops
  (:func:`poisson_arrival_times`);
* service-time noise comes from a chunked standard-normal stream
  (:class:`NormalStream`) using the ``lognormal(m, s) == exp(m + s*z)``
  identity, with the generator re-synchronised to the scalar stream on
  close;
* static events (arrivals, fault transitions, health probes) are pre-sorted
  once with a stable sort instead of heap-pushed one by one, and merged
  against a small lazy heap of dynamic events (completions, timeouts,
  hedges, retries) with explicit sequence-number tie-breaking that matches
  the reference heap's ``(t, seq)`` total order;
* fleet-level O(M)-per-event scans (queue depths, candidate lists, waiting
  depths, brownout pressure) are replaced by O(1) incrementally-maintained
  state — the big win at ~1000 replicas;
* completed inferences can be accumulated as a struct-of-arrays
  :class:`RecordBatch` instead of per-record dataclasses (only when no
  tracer/profiler is observing; observers see real records);
* an optional self-compiled C kernel (:mod:`repro.serving._des_native`,
  built through the same build cache as :mod:`repro.hw._native`) runs the
  single-machine simulator loop natively, calling back into python only for
  timing-model prices and RNG refills.

Equivalence is enforced by ``tests/test_des_equivalence.py`` (hypothesis
property suite over random policy x fault x load x tier compositions) and
``tests/test_des_edge_cases.py``.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from .overload import (
    BREAKER_CLOSED,
    SHED_CODEL,
    SHED_DEADLINE,
    SHED_OLDEST,
    SHED_QUEUE_FULL,
    BrownoutController,
    CircuitBreaker,
    OverloadStats,
)
from .router import SERVICE_NOISE_SIGMA, RoutingDraws, pick_machine

if TYPE_CHECKING:
    from .faults import FaultSchedule, FaultyServingResult, ResilientRouter
    from .metrics import SLA
    from .simulator import ServingSimulator, SimulationResult

__all__ = [
    "BACKENDS",
    "ENGINES",
    "NormalStream",
    "RecordBatch",
    "poisson_arrival_times",
    "run_router_vectorized",
    "run_simulator_vectorized",
    "validate_backend",
    "validate_engine",
]

#: DES engine selector: the reference per-event loop (the executable spec)
#: or the batched SoA engine in this module (bit-identical, much faster).
ENGINES = ("reference", "vectorized")

#: Vectorized-engine backend selector: ``auto`` tries the self-compiled C
#: kernel and falls back to the batched python loop; ``python`` forces the
#: fallback; ``native`` requires the kernel (RuntimeError when absent).
BACKENDS = ("auto", "python", "native")


def validate_engine(engine: str) -> str:
    """Validate an ``engine=`` argument; returns it unchanged."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; valid: {ENGINES}")
    return engine


def validate_backend(backend: str) -> str:
    """Validate a ``backend=`` argument; returns it unchanged."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; valid: {BACKENDS}")
    return backend


# Local stand-ins for the fault/health event kinds: the reference encodes
# them as _EV_FAULT/_EV_HEALTH heap entries; the router's merged loop
# sources them from pre-sorted arrays, so only dispatch tags are needed
# (negative, to stay clear of the faults-module kinds).
_EV_FAULT_LOCAL = -2
_EV_HEALTH_LOCAL = -3


# ------------------------------------------------------------- RNG parity


def poisson_arrival_times(
    rng: np.random.Generator,
    rate_qps: float,
    duration_s: float,
    chunk: int = 8192,
) -> np.ndarray:
    """Arrival times of a Poisson process, bit-identical to the scalar loop.

    Reproduces exactly::

        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / rate_qps))
            if t >= duration_s:
                break
            times.append(t)

    both in values (``cumsum`` over a concatenation that includes the
    running offset reproduces scalar float accumulation bit for bit) and
    in the generator's final state (the last chunk is rolled back and
    re-drawn at the exact scalar count, including the draw that crossed
    the horizon).
    """
    scale = 1.0 / rate_qps
    out = []
    t = 0.0
    while True:
        state = rng.bit_generator.state
        gaps = rng.exponential(scale, size=chunk)
        times = np.cumsum(np.concatenate(([t], gaps)))[1:]
        crossed = int(np.searchsorted(times, duration_s, side="left"))
        if crossed < chunk:
            rng.bit_generator.state = state
            rng.exponential(scale, size=crossed + 1)
            out.append(times[:crossed])
            break
        out.append(times)
        t = float(times[-1])
    return np.concatenate(out) if len(out) > 1 else out[0]


class NormalStream:
    """Chunked standard normals, stream-compatible with scalar lognormals.

    Each ``rng.lognormal(m, s)`` call consumes exactly one standard-normal
    draw and returns ``exp(m + s*z)``; chunked ``standard_normal(n)``
    produces the same ``z`` sequence as ``n`` scalar draws. The stream
    therefore hands out bit-identical noise while drawing in batches.
    :meth:`close` rolls the generator back and re-draws exactly the
    consumed count, leaving it in the scalar loop's final state.
    """

    def __init__(self, rng: np.random.Generator, chunk: int = 8192) -> None:
        self._rng = rng
        self._chunk = chunk
        self._buf: list[float] = []
        self._pos = 0
        self.consumed = 0
        self._state0 = rng.bit_generator.state

    def next(self) -> float:
        """One standard-normal draw (python float)."""
        if self._pos >= len(self._buf):
            self._buf = self._rng.standard_normal(self._chunk).tolist()
            self._pos = 0
        z = self._buf[self._pos]
        self._pos += 1
        self.consumed += 1
        return z

    def close(self) -> None:
        """Re-synchronise the generator to the scalar draw count."""
        self._rng.bit_generator.state = self._state0
        if self.consumed:
            self._rng.standard_normal(self.consumed)


# ------------------------------------------------------------ SoA records


class RecordBatch(Sequence):
    """Struct-of-arrays store of completed inferences.

    Duck-compatible with a ``list[InferenceRecord]`` — indexing materialises
    a real :class:`~repro.serving.simulator.InferenceRecord` — while the
    array accessors (:meth:`latencies_s`, :meth:`service_times_s`,
    :meth:`active_job_counts`) short-circuit the per-record loops in
    :class:`~repro.serving.simulator.SimulationResult`. Element order and
    float values are identical to the reference engine's record list.
    """

    __slots__ = (
        "instance_ids",
        "arrivals_s",
        "starts_s",
        "ends_s",
        "active_jobs",
        "services_s",
    )

    def __init__(self, rows: list[tuple] | None = None) -> None:
        data = (
            np.array(rows, dtype=np.float64)
            if rows
            else np.empty((0, 6), dtype=np.float64)
        )
        self.instance_ids = data[:, 0].astype(np.int64)
        self.arrivals_s = np.ascontiguousarray(data[:, 1])
        self.starts_s = np.ascontiguousarray(data[:, 2])
        self.ends_s = np.ascontiguousarray(data[:, 3])
        self.active_jobs = data[:, 4].astype(np.int64)
        self.services_s = np.ascontiguousarray(data[:, 5])

    @classmethod
    def from_columns(
        cls,
        instance_ids: np.ndarray,
        arrivals_s: np.ndarray,
        starts_s: np.ndarray,
        ends_s: np.ndarray,
        active_jobs: np.ndarray,
        services_s: np.ndarray,
    ) -> "RecordBatch":
        """Build directly from pre-separated columns (native kernel path)."""
        batch = cls.__new__(cls)
        batch.instance_ids = instance_ids.astype(np.int64)
        batch.arrivals_s = np.ascontiguousarray(arrivals_s, dtype=np.float64)
        batch.starts_s = np.ascontiguousarray(starts_s, dtype=np.float64)
        batch.ends_s = np.ascontiguousarray(ends_s, dtype=np.float64)
        batch.active_jobs = active_jobs.astype(np.int64)
        batch.services_s = np.ascontiguousarray(services_s, dtype=np.float64)
        return batch

    def __len__(self) -> int:
        return int(self.arrivals_s.size)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        from .simulator import InferenceRecord

        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("record index out of range")
        return InferenceRecord(
            instance_id=int(self.instance_ids[index]),
            arrival_s=float(self.arrivals_s[index]),
            start_s=float(self.starts_s[index]),
            end_s=float(self.ends_s[index]),
            active_jobs=int(self.active_jobs[index]),
            service_s=float(self.services_s[index]),
        )

    def latencies_s(self) -> np.ndarray:
        """End-to-end latency per record (bitwise ``end - arrival``)."""
        return self.ends_s - self.arrivals_s

    def service_times_s(self) -> np.ndarray:
        """Service time per record."""
        return self.services_s.copy()

    def active_job_counts(self) -> np.ndarray:
        """Dispatch-time active-job count per record."""
        return self.active_jobs.copy()


# ------------------------------------------------- single-machine simulator


def _finish_sim_result(
    sim: "ServingSimulator",
    duration_s: float,
    records,
    offered: int,
    killed: int,
    shed_count: int,
    max_queue_depth: int,
    leftover_depth: int,
) -> "SimulationResult":
    """Shared epilogue: downtime accounting, metrics, result assembly."""
    from .simulator import SimulationResult

    faults = sim.faults
    fault_active = faults is not None and not faults.is_zero
    downtime_s = 0.0
    if fault_active:
        assert faults is not None
        downtime_s = sum(
            faults.downtime_s(i, duration_s) for i in range(sim.num_instances)
        )
    if sim.metrics is not None:
        sim.metrics.gauge("serving.queue.depth").set(float(leftover_depth))
        sim.metrics.gauge("serving.queue.max_depth").set(float(max_queue_depth))
        sim.metrics.counter("serving.overload.shed").inc(shed_count)
    return SimulationResult(
        server_name=sim.server.name,
        model_name=sim.config.name,
        batch_size=sim.batch_size,
        num_instances=sim.num_instances,
        duration_s=duration_s,
        records=records,
        offered=offered,
        killed=killed,
        downtime_s=downtime_s,
        shed=shed_count,
        max_queue_depth=max_queue_depth,
    )


def run_simulator_vectorized(
    sim: "ServingSimulator", duration_s: float
) -> "SimulationResult":
    """The vectorized engine behind ``ServingSimulator.run``.

    Bit-identical to ``ServingSimulator._run_reference``: same records in
    the same order, same counters, same RNG stream position afterwards,
    same metrics and (when a tracer/profiler observes) same spans.
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    rng = sim._rng
    faults = sim.faults
    fault_active = faults is not None and not faults.is_zero
    num_instances = sim.num_instances
    closed_loop = sim.per_instance_qps is None

    # Arrival pre-generation, consuming the RNG exactly as the scalar
    # reference loop does (instance-major order).
    if closed_loop:
        first_arrivals = rng.uniform(0, 1e-4, size=num_instances)
        per_instance = [first_arrivals[i : i + 1] for i in range(num_instances)]
    else:
        per_instance = [
            poisson_arrival_times(rng, sim.per_instance_qps, duration_s)
            for _ in range(num_instances)
        ]
    counts = [len(a) for a in per_instance]
    offered = int(sum(counts))
    st_times = np.concatenate(per_instance)
    st_kinds = np.zeros(st_times.size, dtype=np.int64)
    st_insts = np.repeat(np.arange(num_instances, dtype=np.int64), counts)
    if fault_active:
        assert faults is not None
        transitions = faults.transition_events(num_instances)
        if transitions:
            st_times = np.concatenate(
                [st_times, np.array([e[0] for e in transitions], dtype=np.float64)]
            )
            st_kinds = np.concatenate(
                [
                    st_kinds,
                    np.array(
                        [2 if e[2] else 3 for e in transitions], dtype=np.int64
                    ),
                ]
            )
            st_insts = np.concatenate(
                [st_insts, np.array([e[1] for e in transitions], dtype=np.int64)]
            )
    # One stable sort by time reproduces the reference heap's (t, seq)
    # total order: arrivals carry lower seqs than fault transitions, and
    # both were appended above in seq order.
    order = np.argsort(st_times, kind="stable")
    st_t: list[float] = st_times[order].tolist()
    st_kind: list[int] = st_kinds[order].tolist()
    st_inst: list[int] = st_insts[order].tolist()

    tracer = sim.tracer
    observing = tracer.enabled or sim.profiler is not None

    if not observing and sim.backend != "python":
        from ._des_native import simulate_native

        native = simulate_native(sim, duration_s, offered, st_t, st_kind, st_inst)
        if native is not None:
            sim.last_backend = "native"
            records, offered, killed, shed_count, max_depth, leftover = native
            return _finish_sim_result(
                sim,
                duration_s,
                records,
                offered,
                killed,
                shed_count,
                max_depth,
                leftover,
            )
        if sim.backend == "native":
            raise RuntimeError(
                "native DES backend requested but unavailable "
                "(no C compiler, or REPRO_DISABLE_NATIVE=1)"
            )
    sim.last_backend = "python"

    if tracer.enabled:
        for i in range(num_instances):
            tracer.set_track_name(i, f"instance {i}")

    admission = sim.overload.admission if sim.overload is not None else None
    codels = (
        [admission.make_codel() for _ in range(num_instances)]
        if admission is not None
        else None
    )
    busy = [False] * num_instances
    busy_count = 0
    down = [False] * num_instances
    epoch = [0] * num_instances
    killed = 0
    shed_count = 0
    max_queue_depth = 0
    queues: list[deque] = [deque() for _ in range(num_instances)]
    current: list = [None] * num_instances
    rows: list[tuple] = []
    records: list = []
    normals = NormalStream(rng)
    memory_fraction = sim._memory_fraction
    svc_cache: dict[int, tuple[float, float, float]] = {}

    def svc_params(active: int) -> tuple[float, float, float]:
        """(base_s, lognormal mean, sigma) at one contention level."""
        params = svc_cache.get(active)
        if params is None:
            base_s = sim._base_latency(active).total_seconds
            sigma = sim.noise_sigma(active)
            params = (base_s, -0.5 * sigma**2, sigma)
            svc_cache[active] = params
        return params

    def shed_one(instance: int, now_s: float, reason: str) -> None:
        nonlocal shed_count
        shed_count += 1
        if tracer.enabled:
            tracer.instant(
                "serving.overload.shed", now_s, track=instance, reason=reason
            )

    def admit(instance: int, now_s: float) -> bool:
        assert admission is not None
        depth = len(queues[instance])
        if (
            admission.shed_policy == "deadline_aware"
            and admission.deadline_s is not None
        ):
            expected_s = svc_params(busy_count + 1)[0]
            if (depth + 2) * expected_s > admission.deadline_s:
                shed_one(instance, now_s, SHED_DEADLINE)
                return False
        if depth >= admission.queue_capacity:
            if admission.shed_policy == "reject_oldest":
                queues[instance].popleft()
                shed_one(instance, now_s, SHED_OLDEST)
                return True
            shed_one(instance, now_s, SHED_QUEUE_FULL)
            return False
        return True

    def next_arrival(instance: int, now_s: float) -> float | None:
        queue = queues[instance]
        while queue:
            arrival_s = queue.popleft()
            if (
                codels is not None
                and codels[instance] is not None
                and codels[instance].on_dequeue(now_s - arrival_s, now_s)
            ):
                shed_one(instance, now_s, SHED_CODEL)
                continue
            return arrival_s
        return None

    heap: list[tuple[float, int, int, int]] = []
    dseq = 0

    def dispatch(instance: int, arrival_s: float, now_s: float) -> None:
        nonlocal dseq, busy_count
        active = busy_count + 1
        base_s, log_mean, sigma = svc_params(active)
        service_s = base_s * math.exp(log_mean + sigma * normals.next())
        if fault_active:
            assert faults is not None
            service_s *= faults.service_multiplier(
                instance, now_s, memory_fraction
            )
        busy[instance] = True
        busy_count += 1
        end_s = now_s + service_s
        if observing:
            from .simulator import InferenceRecord

            current[instance] = InferenceRecord(
                instance_id=instance,
                arrival_s=arrival_s,
                start_s=now_s,
                end_s=end_s,
                active_jobs=active,
                service_s=service_s,
            )
        else:
            current[instance] = (arrival_s, now_s, end_s, active, service_s)
        heapq.heappush(heap, (end_s, dseq, instance, epoch[instance]))
        dseq += 1

    si = 0
    n_static = len(st_t)
    while si < n_static or heap:
        if si < n_static and (not heap or st_t[si] <= heap[0][0]):
            now_s = st_t[si]
            kind = st_kind[si]
            instance = st_inst[si]
            si += 1
            if kind == 0:  # arrival
                if now_s >= duration_s:
                    continue
                if busy[instance] or down[instance]:
                    if admission is not None and not admit(instance, now_s):
                        continue
                    queues[instance].append(now_s)
                    if len(queues[instance]) > max_queue_depth:
                        max_queue_depth = len(queues[instance])
                else:
                    dispatch(instance, now_s, now_s)
            elif kind == 2:  # replica crash
                down[instance] = True
                epoch[instance] += 1
                if tracer.enabled:
                    tracer.instant("serving.sim.crash", now_s, track=instance)
                if busy[instance]:
                    killed += 1
                    if tracer.enabled:
                        dead = current[instance]
                        assert dead is not None
                        tracer.complete(
                            "serving.sim.request",
                            dead.arrival_s,
                            now_s,
                            track=instance,
                            active_jobs=dead.active_jobs,
                            outcome="killed",
                        )
                    busy[instance] = False
                    busy_count -= 1
                    current[instance] = None
            else:  # kind == 3: replica restart
                down[instance] = False
                if tracer.enabled:
                    tracer.instant("serving.sim.restart", now_s, track=instance)
                if now_s >= duration_s:
                    continue
                arrival_s = next_arrival(instance, now_s)
                if arrival_s is not None:
                    dispatch(instance, arrival_s, now_s)
                elif closed_loop and not busy[instance]:
                    offered += 1
                    dispatch(instance, now_s, now_s)
        else:  # completion
            now_s, _, instance, ev_epoch = heapq.heappop(heap)
            if ev_epoch != epoch[instance]:
                continue  # the inference was killed by a crash
            record = current[instance]
            assert record is not None
            if observing:
                records.append(record)
                sim._observe_completion(record)
            else:
                rows.append(
                    (
                        instance,
                        record[0],
                        record[1],
                        record[2],
                        record[3],
                        record[4],
                    )
                )
            busy[instance] = False
            busy_count -= 1
            current[instance] = None
            if now_s >= duration_s:
                continue
            arrival_s = next_arrival(instance, now_s)
            if arrival_s is not None:
                dispatch(instance, arrival_s, now_s)
            elif closed_loop:
                offered += 1
                dispatch(instance, now_s, now_s)

    normals.close()
    leftover = sum(len(q) for q in queues)
    return _finish_sim_result(
        sim,
        duration_s,
        records if observing else RecordBatch(rows),
        offered,
        killed,
        shed_count,
        max_queue_depth,
        leftover,
    )


# --------------------------------------------------------- fleet router


def run_router_vectorized(
    router: "ResilientRouter",
    offered_qps: float,
    duration_s: float,
    faults: "FaultSchedule | None",
    sla: "SLA | None",
    arrival_times_s: Sequence[float] | None,
) -> "FaultyServingResult":
    """The vectorized engine behind ``ResilientRouter.run``.

    Replaces the reference loop's O(M)-per-event scans (depth lists,
    candidate lists, waiting-depth sums, brownout pressure) with O(1)
    incrementally-maintained aggregates, and heap-pushed static events
    with one stable pre-sort — while replaying the exact event order,
    RNG draws, policy decisions and accounting of the reference engine.
    """
    from .faults import (
        _CANCELLED,
        _DONE,
        _EV_ARRIVAL,
        _EV_COMPLETE,
        _EV_HEDGE,
        _EV_TIMEOUT,
        _QUEUED,
        _RUNNING,
        _Attempt,
        _Request,
        FaultSchedule,
        FaultyServingResult,
    )
    from .metrics import SLA

    if offered_qps <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    faults = faults or FaultSchedule.zero()
    sla = sla or SLA(deadline_s=10.0 * router._base_service_s, percentile=0.99)
    policy = router.policy
    num_machines = router.num_machines
    rng = np.random.default_rng(router.seed)

    overload = router.overload
    admission = overload.admission if overload is not None else None
    expected_service_s = router._base_service_s
    codels = (
        [admission.make_codel() for _ in range(num_machines)]
        if admission is not None
        else None
    )
    breakers = (
        [CircuitBreaker(overload.breaker) for _ in range(num_machines)]
        if overload is not None and overload.breaker is not None
        else None
    )
    brownout = (
        BrownoutController(overload.brownout)
        if overload is not None and overload.brownout is not None
        else None
    )
    ovl_stats = OverloadStats() if overload is not None else None
    if ovl_stats is not None and brownout is not None:
        ovl_stats.completions_by_tier = [0] * overload.brownout.num_tiers

    requests: list = []
    attempts: list = []
    up = [True] * num_machines
    admitted_flags = [True] * num_machines
    running: list[int | None] = [None] * num_machines
    queues: list[deque] = [deque() for _ in range(num_machines)]
    rr_state = [0]

    # Incremental fleet aggregates (the reference recomputes these with
    # O(M) scans at every event):
    #   depth[m]        == queue_len(m) = len(queues[m]) + (running[m] is not None)
    #   live_waiting[m] == waiting_depth(m) (queued attempts still _QUEUED)
    #   adm_depth_sum   == sum(depth[m] for admitted m)   (int, exact)
    #   n_admitted      == len(candidates)
    #   tripped         == breakers not in the closed state
    depth = [0] * num_machines
    live_waiting = [0] * num_machines
    adm_depth_sum = 0
    n_admitted = num_machines
    cand_cache = list(range(num_machines))
    cand_dirty = False
    tripped = 0

    retries = hedges = wasted_attempts = fail_fasts = ejections = 0
    failed = 0
    degraded_completions = 0
    time_in_degraded_s = 0.0
    degraded_on = False
    degraded_since_s = 0.0
    latencies: list[float] = []

    tracer = router.tracer
    client_track = num_machines
    request_span: dict[int, int] = {}
    attempt_span: dict[int, int] = {}
    if tracer.enabled:
        tracer.set_track_name(client_track, "client")
        for m in range(num_machines):
            tracer.set_track_name(m, f"machine {m}")

    # ---- static event streams (pre-sorted; merged against a lazy heap) --

    n_offered = 0
    if arrival_times_s is None:
        arr_t = poisson_arrival_times(rng, offered_qps, duration_s)
        n_offered = int(arr_t.size)
        arr_ids = np.arange(n_offered, dtype=np.int64)
    else:
        raw = np.asarray(
            [float(t_s) for t_s in arrival_times_s], dtype=np.float64
        )
        if raw.size and (
            not np.all(raw >= 0.0) or not np.all(raw < duration_s)
        ):
            raise ValueError("arrival times must lie in [0, duration_s)")
        order = np.argsort(raw, kind="stable")
        arr_t = raw[order]
        arr_ids = order.astype(np.int64)
        n_offered = int(raw.size)
        for t_s in raw:
            requests.append(_Request(arrival_s=float(t_s)))
    if arrival_times_s is None:
        for t_s in arr_t:
            requests.append(_Request(arrival_s=float(t_s)))
    arr_t_list: list[float] = arr_t.tolist()
    arr_id_list: list[int] = arr_ids.tolist()
    # Routing draws share the generator with the service noise; the stream
    # opens once the arrivals are drawn and closes after the loop.
    draws = RoutingDraws(rng)

    transitions = faults.transition_events(num_machines)
    fault_t: list[float] = [e[0] for e in transitions]
    fault_machine: list[int] = [e[1] for e in transitions]
    fault_down: list[bool] = [e[2] for e in transitions]

    probe_ts: list[float] = []
    if policy.health_check_interval_s is not None:
        probe_t_s = policy.health_check_interval_s
        horizon_s = duration_s + 10.0 * router._base_service_s
        while probe_t_s < horizon_s:
            probe_ts.append(probe_t_s)
            probe_t_s += policy.health_check_interval_s

    # Dynamic events: (t_s, dseq, kind, a, b). All static events carry
    # lower reference seqs than any dynamic push, and within the statics
    # arrivals < faults < health probes; the <= comparisons below encode
    # exactly that tie order.
    events: list[tuple[float, int, int, int, int]] = []
    dseq = 0

    def push(t_s: float, kind: int, a: int = 0, b: int = 0) -> None:
        nonlocal dseq
        heapq.heappush(events, (t_s, dseq, kind, a, b))
        dseq += 1

    # ------------------------------------------------- incremental helpers

    def bump_depth(machine: int, delta: int) -> None:
        nonlocal adm_depth_sum
        depth[machine] += delta
        if admitted_flags[machine]:
            adm_depth_sum += delta

    def set_admitted(machine: int, value: bool) -> None:
        nonlocal n_admitted, adm_depth_sum, cand_dirty
        if admitted_flags[machine] == value:
            return
        admitted_flags[machine] = value
        cand_dirty = True
        if value:
            n_admitted += 1
            adm_depth_sum += depth[machine]
        else:
            n_admitted -= 1
            adm_depth_sum -= depth[machine]

    def candidates() -> list[int]:
        nonlocal cand_dirty, cand_cache
        if cand_dirty:
            cand_cache = [
                m for m in range(num_machines) if admitted_flags[m]
            ]
            cand_dirty = False
        return cand_cache

    def eject(machine: int) -> None:
        nonlocal ejections
        if admitted_flags[machine]:
            set_admitted(machine, False)
            ejections += 1

    def shed(reason: str, machine: int, now_s: float) -> None:
        assert ovl_stats is not None
        ovl_stats.count_shed(reason)
        if tracer.enabled:
            tracer.instant(
                "serving.overload.shed", now_s, track=machine, reason=reason
            )

    def breaker_failure(machine: int, now_s: float) -> None:
        nonlocal tripped
        if breakers is None:
            return
        before = breakers[machine].state
        breakers[machine].record_failure(now_s)
        after = breakers[machine].state
        if before != after:
            if (before == BREAKER_CLOSED) != (after == BREAKER_CLOSED):
                tripped += 1 if before == BREAKER_CLOSED else -1
            if tracer.enabled:
                tracer.instant(f"serving.breaker.{after}", now_s, track=machine)

    def breaker_success(machine: int, now_s: float) -> None:
        nonlocal tripped
        if breakers is None:
            return
        before = breakers[machine].state
        breakers[machine].record_success(now_s)
        after = breakers[machine].state
        if before != after:
            if (before == BREAKER_CLOSED) != (after == BREAKER_CLOSED):
                tripped += 1 if before == BREAKER_CLOSED else -1
            if tracer.enabled:
                tracer.instant(f"serving.breaker.{after}", now_s, track=machine)

    def degraded_now(now_s: float) -> bool:
        nonlocal degraded_on, degraded_since_s, time_in_degraded_s
        if router.degradation is None:
            return False
        healthy_frac = n_admitted / num_machines
        mean_depth = (
            adm_depth_sum / n_admitted if n_admitted else float("inf")
        )
        on = (
            healthy_frac < router.degradation.min_healthy_fraction
            or mean_depth >= router.degradation.queue_depth_trigger
        )
        if on and not degraded_on:
            degraded_since_s = now_s
        elif not on and degraded_on:
            time_in_degraded_s += now_s - degraded_since_s
        degraded_on = on
        return on

    def start_next(machine: int, now_s: float) -> None:
        if running[machine] is not None or not up[machine]:
            return
        queue = queues[machine]
        while queue:
            attempt_id = queue.popleft()
            bump_depth(machine, -1)
            attempt = attempts[attempt_id]
            request = requests[attempt.request_id]
            if attempt.state != _QUEUED or request.done or request.failed:
                if attempt.state == _QUEUED:
                    attempt.state = _CANCELLED
                    request.live_attempts -= 1
                    live_waiting[machine] -= 1
                    if tracer.enabled and attempt_id in attempt_span:
                        tracer.end(
                            attempt_span.pop(attempt_id),
                            now_s,
                            outcome="cancelled",
                        )
                continue
            if codels is not None and codels[machine] is not None:
                sojourn_s = now_s - attempt.enqueued_s
                if codels[machine].on_dequeue(sojourn_s, now_s):
                    attempt.state = _CANCELLED
                    request.live_attempts -= 1
                    live_waiting[machine] -= 1
                    shed(SHED_CODEL, machine, now_s)
                    if tracer.enabled and attempt_id in attempt_span:
                        tracer.end(
                            attempt_span.pop(attempt_id),
                            now_s,
                            outcome="shed",
                        )
                    attempt_failed(attempt.request_id, now_s)
                    continue
            attempt.state = _RUNNING
            running[machine] = attempt_id
            bump_depth(machine, 1)
            live_waiting[machine] -= 1
            base_s = (
                router._degraded_service_s
                if request.degraded
                else router._tier_service_s[request.tier]
            )
            multiplier = faults.service_multiplier(
                machine, now_s, router._memory_fraction
            )
            sigma = SERVICE_NOISE_SIGMA
            service_s = (
                base_s
                * multiplier
                * float(rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma))
            )
            push(now_s + service_s, _EV_COMPLETE, attempt_id, machine)
            return

    def route_attempt(request_id: int, now_s: float) -> None:
        nonlocal fail_fasts
        request = requests[request_id]
        if request.done or request.failed:
            return
        if ovl_stats is not None:
            ovl_stats.offered += 1
        cands = candidates()
        if breakers is not None and cands:
            if tripped:
                closed_list = [
                    m for m in cands if breakers[m].allows(now_s)
                ]
                if not closed_list:
                    ovl_stats.breaker_rejections += 1
                    attempt_failed(request_id, now_s)
                    return
                cands = closed_list
            # else: every breaker is closed and allows() is pure — skip.
        if not cands:
            attempt_failed(request_id, now_s)
            return
        machine = pick_machine(
            router.routing, draws, depth, rr_state, candidates=cands
        )
        if not up[machine]:
            fail_fasts += 1
            eject(machine)
            breaker_failure(machine, now_s)
            if tracer.enabled:
                tracer.instant("serving.router.failfast", now_s, track=machine)
            attempt_failed(request_id, now_s)
            return
        if admission is not None:
            waiting = live_waiting[machine]
            if admission.shed_policy == "deadline_aware":
                wait_s = (
                    waiting + (running[machine] is not None)
                ) * expected_service_s
                projected_s = (
                    now_s + wait_s + expected_service_s - request.arrival_s
                )
                if projected_s > admission.deadline_s:
                    shed(SHED_DEADLINE, machine, now_s)
                    attempt_failed(request_id, now_s)
                    return
            if waiting >= admission.queue_capacity:
                if admission.shed_policy == "reject_oldest":
                    victim_id = next(
                        (
                            aid
                            for aid in queues[machine]
                            if attempts[aid].state == _QUEUED
                        ),
                        None,
                    )
                    if victim_id is not None:
                        queues[machine].remove(victim_id)
                        bump_depth(machine, -1)
                        victim = attempts[victim_id]
                        victim.state = _CANCELLED
                        live_waiting[machine] -= 1
                        requests[victim.request_id].live_attempts -= 1
                        shed(SHED_OLDEST, machine, now_s)
                        if tracer.enabled and victim_id in attempt_span:
                            tracer.end(
                                attempt_span.pop(victim_id),
                                now_s,
                                outcome="shed",
                            )
                        attempt_failed(victim.request_id, now_s)
                else:
                    shed(SHED_QUEUE_FULL, machine, now_s)
                    attempt_failed(request_id, now_s)
                    return
        if breakers is not None:
            breakers[machine].note_probe()
        attempt = _Attempt(request_id, machine, now_s)
        attempt_id = len(attempts)
        attempts.append(attempt)
        request.live_attempts += 1
        queues[machine].append(attempt_id)
        bump_depth(machine, 1)
        live_waiting[machine] += 1
        if ovl_stats is not None:
            ovl_stats.admitted += 1
            if live_waiting[machine] > ovl_stats.max_queue_depth:
                ovl_stats.max_queue_depth = live_waiting[machine]
        if tracer.enabled:
            attempt_span[attempt_id] = tracer.begin(
                "serving.router.attempt",
                now_s,
                parent_id=request_span.get(request_id),
                track=machine,
            )
        if policy.timeout_s is not None:
            push(now_s + policy.timeout_s, _EV_TIMEOUT, attempt_id)
        start_next(machine, now_s)

    def attempt_failed(request_id: int, now_s: float) -> None:
        nonlocal retries, failed
        request = requests[request_id]
        if request.done or request.failed or request.live_attempts > 0:
            return  # a hedge twin is still in flight
        if request.retries_used < policy.max_retries:
            delay_s = policy.backoff_s(request.retries_used)
            request.retries_used += 1
            retries += 1
            if tracer.enabled:
                tracer.instant(
                    "serving.router.retry",
                    now_s,
                    track=client_track,
                    attempt=request.retries_used,
                )
            push(now_s + delay_s, _EV_ARRIVAL, request_id, 1)
        else:
            request.failed = True
            failed += 1
            if tracer.enabled and request_id in request_span:
                tracer.end(
                    request_span.pop(request_id), now_s, outcome="failed"
                )

    # ----------------------------------------------------- merged event loop

    inf = float("inf")
    ai = fi = hi = 0
    n_arr = len(arr_t_list)
    n_fault = len(fault_t)
    n_probe = len(probe_ts)
    now_s = 0.0
    while True:
        if ai >= n_arr and fi >= n_fault and hi >= n_probe and not events:
            break
        t_a = arr_t_list[ai] if ai < n_arr else inf
        t_f = fault_t[fi] if fi < n_fault else inf
        t_h = probe_ts[hi] if hi < n_probe else inf
        t_d = events[0][0] if events else inf
        if t_a <= t_f and t_a <= t_h and t_a <= t_d:
            now_s = t_a
            request_id = arr_id_list[ai]
            ai += 1
            kind, a, b = _EV_ARRIVAL, request_id, 0
        elif t_f <= t_h and t_f <= t_d:
            now_s = t_f
            kind, a, b = _EV_FAULT_LOCAL, fault_machine[fi], int(fault_down[fi])
            fi += 1
        elif t_h <= t_d:
            now_s = t_h
            hi += 1
            kind, a, b = _EV_HEALTH_LOCAL, 0, 0
        elif events:
            now_s, _, kind, a, b = heapq.heappop(events)
        else:
            break

        if kind == _EV_ARRIVAL:
            request_id, is_retry = a, bool(b)
            request = requests[request_id]
            if request.done or request.failed:
                continue
            if not is_retry:
                if brownout is not None:
                    pressure = (
                        adm_depth_sum / n_admitted
                        if n_admitted
                        else float("inf")
                    )
                    before_tier = brownout.tier
                    request.tier = brownout.update(now_s, pressure)
                    if brownout.tier != before_tier:
                        if tracer.enabled:
                            tracer.instant(
                                "serving.brownout.step",
                                now_s,
                                track=client_track,
                                tier=brownout.tier,
                            )
                        if (
                            ovl_stats is not None
                            and brownout.tier > ovl_stats.max_brownout_tier
                        ):
                            ovl_stats.max_brownout_tier = brownout.tier
                request.degraded = degraded_now(now_s)
                if tracer.enabled:
                    request_span[request_id] = tracer.begin(
                        "serving.router.request",
                        now_s,
                        track=client_track,
                        degraded=request.degraded,
                    )
            if not is_retry and policy.hedge_delay_s is not None:
                push(now_s + policy.hedge_delay_s, _EV_HEDGE, request_id)
            route_attempt(request_id, now_s)

        elif kind == _EV_COMPLETE:
            attempt_id, machine = a, b
            attempt = attempts[attempt_id]
            if running[machine] != attempt_id:
                continue  # killed by a crash; the restart superseded it
            running[machine] = None
            bump_depth(machine, -1)
            breaker_success(machine, now_s)
            if attempt.state == _CANCELLED:
                wasted_attempts += 1
                start_next(machine, now_s)
                continue
            attempt.state = _DONE
            request = requests[attempt.request_id]
            request.live_attempts -= 1
            if request.done or request.failed:
                wasted_attempts += 1
                if tracer.enabled and attempt_id in attempt_span:
                    tracer.end(
                        attempt_span.pop(attempt_id), now_s, outcome="wasted"
                    )
            else:
                request.done = True
                request.latency_s = now_s - request.arrival_s
                latencies.append(request.latency_s)
                if ovl_stats is not None and brownout is not None:
                    ovl_stats.completions_by_tier[request.tier] += 1
                if request.degraded:
                    degraded_completions += 1
                if tracer.enabled:
                    if attempt_id in attempt_span:
                        tracer.end(
                            attempt_span.pop(attempt_id), now_s, outcome="ok"
                        )
                    if attempt.request_id in request_span:
                        tracer.end(
                            request_span.pop(attempt.request_id),
                            now_s,
                            outcome="ok",
                        )
            start_next(machine, now_s)

        elif kind == _EV_TIMEOUT:
            attempt_id = a
            attempt = attempts[attempt_id]
            request = requests[attempt.request_id]
            if (
                request.done
                or request.failed
                or attempt.state in (_CANCELLED, _DONE)
            ):
                continue
            breaker_failure(attempt.machine, now_s)
            was_queued = attempt.state == _QUEUED
            attempt.state = _CANCELLED
            request.live_attempts -= 1
            if was_queued:
                live_waiting[attempt.machine] -= 1
            if tracer.enabled:
                tracer.instant(
                    "serving.router.timeout", now_s, track=attempt.machine
                )
                if attempt_id in attempt_span:
                    tracer.end(
                        attempt_span.pop(attempt_id), now_s, outcome="timeout"
                    )
            attempt_failed(attempt.request_id, now_s)

        elif kind == _EV_HEDGE:
            request_id = a
            request = requests[request_id]
            if request.done or request.failed or request.live_attempts == 0:
                continue
            hedges += 1
            request.hedged = True
            if tracer.enabled:
                tracer.instant(
                    "serving.router.hedge", now_s, track=client_track
                )
            route_attempt(request_id, now_s)

        elif kind == _EV_FAULT_LOCAL:
            machine, goes_down = a, bool(b)
            if goes_down:
                up[machine] = False
                breaker_failure(machine, now_s)
                if tracer.enabled:
                    tracer.instant("serving.router.crash", now_s, track=machine)
                if policy.health_check_interval_s is None:
                    eject(machine)
                attempt_id = running[machine]
                if attempt_id is not None:
                    running[machine] = None
                    bump_depth(machine, -1)
                    attempt = attempts[attempt_id]
                    if attempt.state == _RUNNING:
                        attempt.state = _CANCELLED
                        requests[attempt.request_id].live_attempts -= 1
                        if tracer.enabled and attempt_id in attempt_span:
                            tracer.end(
                                attempt_span.pop(attempt_id),
                                now_s,
                                outcome="killed",
                            )
                        attempt_failed(attempt.request_id, now_s)
                dead = queues[machine]
                queues[machine] = deque()
                bump_depth(machine, -len(dead))
                live_waiting[machine] = 0
                for attempt_id in dead:
                    attempt = attempts[attempt_id]
                    if attempt.state == _QUEUED:
                        attempt.state = _CANCELLED
                        requests[attempt.request_id].live_attempts -= 1
                        if tracer.enabled and attempt_id in attempt_span:
                            tracer.end(
                                attempt_span.pop(attempt_id),
                                now_s,
                                outcome="reset",
                            )
                        attempt_failed(attempt.request_id, now_s)
            else:
                up[machine] = True
                if tracer.enabled:
                    tracer.instant(
                        "serving.router.restart", now_s, track=machine
                    )
                if policy.health_check_interval_s is None:
                    set_admitted(machine, True)

        else:  # _EV_HEALTH_LOCAL
            for machine in range(num_machines):
                set_admitted(machine, up[machine])
    draws.close()

    if degraded_on:
        time_in_degraded_s += duration_s - degraded_since_s
    if ovl_stats is not None:
        if brownout is not None:
            brownout.finish(duration_s)
            ovl_stats.brownout_switches = brownout.switches
            ovl_stats.time_in_tier_s = list(brownout.time_in_tier_s)
        if breakers is not None:
            ovl_stats.breaker_opens = sum(b.opens for b in breakers)
    if tracer.enabled and tracer.open_spans():
        tracer.close_all(max(now_s, duration_s), outcome="unresolved")
    if router.metrics is not None:
        router._record_metrics(
            n_offered=n_offered,
            completed=len(latencies),
            failed=failed,
            retries=retries,
            hedges=hedges,
            wasted_attempts=wasted_attempts,
            fail_fasts=fail_fasts,
            ejections=ejections,
            degraded_completions=degraded_completions,
            time_in_degraded_s=time_in_degraded_s,
            latencies=latencies,
            overload_stats=ovl_stats,
        )
    return FaultyServingResult(
        policy=policy,
        num_machines=num_machines,
        offered_qps=offered_qps,
        duration_s=duration_s,
        sla=sla,
        latencies_s=np.asarray(latencies, dtype=np.float64),
        offered=n_offered,
        failed=failed,
        retries=retries,
        hedges=hedges,
        wasted_attempts=wasted_attempts,
        fail_fasts=fail_fasts,
        ejections=ejections,
        degraded_completions=degraded_completions,
        time_in_degraded_s=time_in_degraded_s,
        quality=router._quality,
        overload=ovl_stats,
        brownout_quality=(
            router._brownout_quality if brownout is not None else None
        ),
    )
