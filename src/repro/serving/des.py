"""Vectorized discrete-event engine for the single-machine simulator.

The per-event python loop in :class:`~repro.serving.simulator.ServingSimulator`
is the *executable spec*: every behaviour question is settled by reading
it. This module adds a second engine — selected with
``engine="vectorized"`` — that reproduces the spec **bit for bit**
(records, summaries, overload stats, RNG stream position) while running
one to two orders of magnitude faster:

* arrivals are generated in numpy chunks whose values *and* final RNG state
  are provably identical to the scalar draw loops
  (:func:`poisson_arrival_times`);
* service-time noise comes from a chunked standard-normal stream
  (:class:`NormalStream`) using the ``lognormal(m, s) == exp(m + s*z)``
  identity, with the generator re-synchronised to the scalar stream on
  close;
* static events (arrivals, fault transitions) are pre-sorted once with a
  stable sort instead of heap-pushed one by one, and merged against a
  small heap of dynamic events with explicit sequence-number
  tie-breaking that matches the reference heap's ``(t, seq)`` total order;
* completed inferences can be accumulated as a struct-of-arrays
  :class:`RecordBatch` instead of per-record dataclasses (only when no
  tracer/profiler is observing; observers see real records);
* an optional self-compiled C kernel (:mod:`repro.serving._des_native`,
  built through the same build cache as :mod:`repro.hw._native`) runs the
  single-machine simulator loop natively, calling back into python only for
  timing-model prices and RNG refills.

The fleet routers (:class:`~repro.serving.faults.ResilientRouter`,
:class:`~repro.serving.multimodel.MultiModelRouter`) each have one event
loop of their own and reuse :func:`poisson_arrival_times` from here.

Equivalence is enforced by ``tests/test_des_equivalence.py`` (hypothesis
property suite over random policy x fault x load compositions) and
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
    SHED_CODEL,
    SHED_DEADLINE,
    SHED_OLDEST,
    SHED_QUEUE_FULL,
)

if TYPE_CHECKING:
    from .simulator import ServingSimulator, SimulationResult

__all__ = [
    "BACKENDS",
    "ENGINES",
    "NormalStream",
    "RecordBatch",
    "poisson_arrival_times",
    "run_simulator_vectorized",
    "validate_backend",
    "validate_engine",
]

#: :class:`~repro.serving.simulator.ServingSimulator` engine selector: the
#: reference per-event loop (the executable spec) or the batched SoA engine
#: in this module (bit-identical, much faster).
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
