"""Discrete-event simulation of co-located inference serving.

The paper's production observations (Section VI.A / Figure 11) come from a
serving environment where a machine hosts many model instances, each fed by
its own request stream. Because the instantaneous number of *active* jobs
fluctuates, the effective contention state — and therefore each operator's
latency — fluctuates with it, producing Broadwell's multi-modal FC latency
distribution and its steep p99 growth under high co-location.

:class:`ServingSimulator` reproduces that environment: ``num_instances``
model replicas on one socket, each receiving Poisson arrivals (open loop)
or re-issuing immediately (closed loop). Service times come from the
:class:`~repro.hw.timing.TimingModel` evaluated at the dispatch-time active
count, with multiplicative lognormal noise whose spread grows with
contention (and faster on inclusive hierarchies).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..analysis.distributions import LatencySummary, summarize
from ..config.model_config import ModelConfig
from ..core.graph import config_ops
from ..core.operators.base import OP_FC, OP_SLS
from ..hw.colocation import ColocationState
from ..hw.server import ServerSpec
from ..hw.timing import ModelLatency, TimingModel
from ..obs.tracer import as_tracer
from ._des_native import native_available
from .des import RecordBatch, run_simulator_native
from .overload import SHED_CODEL, SHED_DEADLINE, SHED_OLDEST, SHED_QUEUE_FULL

if TYPE_CHECKING:
    from ..obs.metrics import MetricsRegistry
    from ..obs.profile import OpProfiler
    from ..obs.tracer import NullTracer, Tracer
    from .faults import FaultSchedule
    from .multimodel import MultiModelPool
    from .overload import OverloadConfig

#: Baseline multiplicative latency noise (OS jitter, clock, queue probes).
BASE_NOISE_SIGMA = 0.04

#: Additional noise per unit of LLC churn, by hierarchy type. Inclusive
#: hierarchies (Haswell/Broadwell) suffer noisier latency under contention
#: because back-invalidations strike unpredictably. Kept below the spacing
#: of the co-location latency levels so the Figure-11a modes stay separable.
CONTENTION_NOISE_INCLUSIVE = 0.08
CONTENTION_NOISE_EXCLUSIVE = 0.03


def stable_fc_seed(input_dim: int, output_dim: int) -> int:
    """Process-stable RNG seed for an FC-probe dimension pair.

    Replaces ``hash((input_dim, output_dim))``: ``hash()`` is an
    interpreter detail — stable for ints only by accident of
    implementation, and ``PYTHONHASHSEED``-salted the moment a dimension
    arrives as anything str-like — so the probe's noise stream was
    silently coupled to interpreter state. This spread (two large odd
    multipliers, xor-mixed) is explicit, deterministic everywhere, and
    keeps distinct dimension pairs on distinct streams.
    """
    if input_dim < 1 or output_dim < 1:
        raise ValueError("FC dimensions must be positive")
    return (input_dim * 73_856_093 ^ output_dim * 19_349_663) % (2**32)


@dataclass(frozen=True)
class InferenceRecord:
    """One completed inference in the simulation."""

    instance_id: int
    arrival_s: float
    start_s: float
    end_s: float
    active_jobs: int
    service_s: float

    @property
    def latency_s(self) -> float:
        """Queueing delay + service time."""
        return self.end_s - self.arrival_s

    @property
    def queue_s(self) -> float:
        """Time spent waiting for the instance to become free."""
        return self.start_s - self.arrival_s


@dataclass
class SimulationResult:
    """Outcome of one serving simulation.

    ``offered`` counts every arrival the simulation generated (including
    closed-loop re-issues); ``killed`` counts inferences lost in flight to
    a replica crash. Both are zero-fault-compatible: without a fault
    schedule ``killed`` is 0 and every offered arrival eventually
    completes or is still queued at the horizon.

    ``shed`` counts arrivals dropped by admission control (0 without an
    overload config), and ``max_queue_depth`` is the deepest per-instance
    backlog observed — the overload-onset signal, tracked even with
    protection off. Conservation: ``offered = completed + shed + killed +
    in-flight/queued at the horizon``.
    """

    server_name: str
    model_name: str
    batch_size: int
    num_instances: int
    duration_s: float
    #: Completed inferences, in completion order.
    records: RecordBatch
    offered: int = 0
    killed: int = 0
    downtime_s: float = 0.0
    shed: int = 0
    max_queue_depth: int = 0

    def latencies_s(self) -> np.ndarray:
        """End-to-end latency of every completed inference."""
        return self.records.latencies_s()

    def service_times_s(self) -> np.ndarray:
        """Service time (excluding queueing) of every inference."""
        return self.records.service_times_s()

    def summary(self) -> LatencySummary:
        """Percentile summary of end-to-end latencies."""
        return summarize(self.latencies_s())

    def throughput_items_per_s(self) -> float:
        """Items ranked per second across all instances."""
        if not self.records:
            return 0.0
        return len(self.records) * self.batch_size / self.duration_s

    def active_job_counts(self) -> np.ndarray:
        """Active co-located jobs observed at each dispatch."""
        return self.records.active_job_counts()

    def availability(self) -> float:
        """Fraction of offered arrivals that completed (1.0 when idle)."""
        if self.offered == 0:
            return 1.0
        return len(self.records) / self.offered


class ServingSimulator:
    """Simulates co-located model instances on one server socket.

    Args:
        server: server generation.
        config: the model each instance serves.
        batch_size: items per inference.
        num_instances: co-located replicas (one per physical core, as in the
            paper's experiments).
        per_instance_qps: open-loop Poisson arrival rate per instance;
            ``None`` runs closed-loop (every instance always busy).
        hyperthreading: two instances per physical core.
        seed: RNG seed.
        faults: optional :class:`~repro.serving.faults.FaultSchedule`
            injected on this machine's event clock. Crashes kill the
            in-flight inference and park the instance; stragglers and
            bandwidth dips multiply service times. A zero schedule (or
            ``None``) reproduces the fault-free run record-for-record —
            fault handling never touches the main RNG stream.
        tracer: optional :class:`~repro.obs.tracer.Tracer`. When set, each
            completed inference is recorded as a ``serving.sim.request``
            span with ``queue``/``service`` children and per-operator leaf
            spans, all on the DES clock (one track per instance). The
            default nil tracer records nothing; tracing never touches the
            RNG stream, so tracing off is bit-identical to the historical
            simulator.
        profiler: optional :class:`~repro.obs.profile.OpProfiler`; every
            completed inference's realized service time is attributed to
            its per-operator shares (the Figure-4 view of the run).
        overload: optional
            :class:`~repro.serving.overload.OverloadConfig`. Only the
            ``admission`` leg applies here: each instance's queue is
            bounded with the configured shed policy plus an optional
            CoDel sojourn controller. Circuit breakers and brownout are
            fleet/router concerns (no alternative replica, no quality
            tiers on this co-location model) and raise ``ValueError``.
            ``None`` (the default) reproduces the unbounded run
            record-for-record — admission never touches the RNG stream.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            after every :meth:`run` records the ``serving.queue.depth``
            gauge (backlog left at the horizon), the
            ``serving.queue.max_depth`` gauge, and the
            ``serving.overload.shed`` counter.
    """

    def __init__(
        self,
        server: ServerSpec,
        config: ModelConfig,
        batch_size: int,
        num_instances: int,
        per_instance_qps: float | None = None,
        hyperthreading: bool = False,
        seed: int = 0,
        faults: "FaultSchedule | None" = None,
        tracer: "Tracer | NullTracer | None" = None,
        profiler: "OpProfiler | None" = None,
        overload: "OverloadConfig | None" = None,
        metrics: "MetricsRegistry | None" = None,
        pool: "MultiModelPool | None" = None,
    ) -> None:
        if num_instances < 1:
            raise ValueError("need at least one instance")
        if pool is not None and config.name not in pool.model_names:
            raise ValueError(
                f"model {config.name!r} is not registered in the "
                f"multi-model pool {pool.model_names}"
            )
        #: Optional :class:`~repro.serving.multimodel.MultiModelPool` this
        #: single-model run belongs to. The pool is a capacity contract —
        #: construction already proved the model fits a replica resident —
        #: plus an observability hook; it never perturbs the simulation
        #: (a run with a pool is record-for-record identical to one
        #: without). Cross-model dispatch lives in
        #: :class:`~repro.serving.multimodel.MultiModelRouter`.
        self.pool = pool
        if per_instance_qps is not None and not 0 < per_instance_qps < math.inf:
            raise ValueError("per_instance_qps must be positive and finite")
        #: Execution path of the most recent :meth:`run`: ``"reference"``
        #: (the per-event loop) or ``"native"`` (the C kernel).
        self.last_backend: str | None = None
        if overload is not None and (
            overload.breaker is not None or overload.brownout is not None
        ):
            raise ValueError(
                "ServingSimulator supports only admission control; circuit "
                "breakers and brownout live in ResilientRouter"
            )
        self.overload = overload
        self.metrics = metrics
        self.server = server
        self.config = config
        self.batch_size = batch_size
        self.num_instances = num_instances
        self.per_instance_qps = per_instance_qps
        self.hyperthreading = hyperthreading
        self.faults = faults
        self.tracer = as_tracer(tracer)
        self.profiler = profiler
        self.timing = TimingModel(server)
        self._rng = np.random.default_rng(seed)
        self._resident = self.timing.resident_bytes(config)
        self._traffic = self.timing.estimate_random_traffic_gbps(config, batch_size)
        # Uncontended-to-saturated base latencies by active-job count; the
        # cache lives and dies with this simulator.
        self._base_latency_cache: dict[int, ModelLatency] = {}
        #: Memory-bound share of an uncontended inference: the part a
        #: DRAM-bandwidth fault stretches (SLS dominates DRAM traffic).
        self._memory_fraction = (
            self._base_latency(1).fraction_by_op_type().get(OP_SLS, 0.0)
        )
        #: Per-request bytes touched per operator class, mirroring the
        #: TimingModel's byte accounting (filled lazily for the profiler).
        self._bytes_by_op_cache: dict[str, float] | None = None

    # ------------------------------------------------------- observability

    def _request_bytes_by_op(self) -> dict[str, float]:
        """Bytes one inference touches, grouped by operator class."""
        if self._bytes_by_op_cache is None:
            out: dict[str, float] = {}
            for spec in config_ops(self.config):
                if spec.op_type == OP_SLS:
                    row_bytes = max(64, spec.embedding_dim * spec.dtype_bytes)
                    moved = self.batch_size * spec.lookups_per_sample * row_bytes
                elif spec.op_type == OP_FC:
                    moved = (
                        spec.weight_bytes
                        + self.batch_size * spec.activation_bytes_per_sample
                    )
                else:
                    moved = self.batch_size * spec.activation_bytes_per_sample
                out[spec.op_type] = out.get(spec.op_type, 0.0) + moved
            self._bytes_by_op_cache = out
        return self._bytes_by_op_cache

    def _observe_completion(self, record: InferenceRecord) -> None:
        """Feed one completed inference to the tracer and profiler.

        Purely observational: called after the record is final, touching
        neither the RNG stream nor the event queue, so runs with the nil
        tracer and no profiler are bit-identical to uninstrumented ones.
        """
        base = self._base_latency(record.active_jobs)
        if self.profiler is not None:
            self.profiler.record_request(
                base,
                self.server.frequency_ghz,
                actual_seconds=record.service_s,
                bytes_by_op=self._request_bytes_by_op(),
            )
        tracer = self.tracer
        if not tracer.enabled:
            return
        track = record.instance_id
        request_id = tracer.begin(
            "serving.sim.request",
            record.arrival_s,
            track=track,
            active_jobs=record.active_jobs,
        )
        if record.queue_s > 0:
            tracer.complete(
                "serving.sim.queue",
                record.arrival_s,
                record.start_s,
                parent_id=request_id,
                track=track,
            )
        service_id = tracer.complete(
            "serving.sim.service",
            record.start_s,
            record.end_s,
            parent_id=request_id,
            track=track,
        )
        # Leaf op spans: the analytic per-op shares at this dispatch's
        # contention level, scaled so they tile the realized service time.
        scale = (
            record.service_s / base.total_seconds if base.total_seconds > 0 else 0.0
        )
        cursor_s = record.start_s
        for op in base.per_op:
            op_end_s = cursor_s + op.seconds * scale
            tracer.complete(
                f"serving.op.{op.op_type.lower()}",
                cursor_s,
                op_end_s,
                parent_id=service_id,
                track=track,
                op=op.name,
            )
            cursor_s = op_end_s
        tracer.end(request_id, record.end_s)

    # ------------------------------------------------------------- services

    def state_for(self, active_jobs: int) -> ColocationState:
        """Contention state when ``active_jobs`` instances are running."""
        return ColocationState(
            num_jobs=max(1, active_jobs),
            hyperthreading=self.hyperthreading,
            resident_bytes_per_job=self._resident,
            corunner_random_gbps=self._traffic,
        )

    def _base_latency(self, active_jobs: int) -> ModelLatency:
        base = self._base_latency_cache.get(active_jobs)
        if base is None:
            base = self.timing.model_latency(
                self.config, self.batch_size, self.state_for(active_jobs)
            )
            self._base_latency_cache[active_jobs] = base
        return base

    def noise_sigma(self, active_jobs: int) -> float:
        """Lognormal sigma of the service-time noise at a contention level."""
        churn = self.timing.contention.llc_churn(self.state_for(active_jobs))
        per_churn = (
            CONTENTION_NOISE_INCLUSIVE
            if self.server.inclusive_llc
            else CONTENTION_NOISE_EXCLUSIVE
        )
        return BASE_NOISE_SIGMA + per_churn * churn

    def sample_service_s(self, active_jobs: int, rng: np.random.Generator) -> float:
        """Draw one noisy service time at the given active count."""
        base = self._base_latency(active_jobs).total_seconds
        sigma = self.noise_sigma(active_jobs)
        return base * float(rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma))

    # ------------------------------------------------------------------ run

    def run(self, duration_s: float = 1.0) -> SimulationResult:
        """Simulate ``duration_s`` of serving; returns completed inferences.

        Runs in the C kernel (:func:`repro.serving.des.run_simulator_native`)
        when it loads and no tracer or profiler observes the run.
        Otherwise (no compiler or numpy ``libnpyrandom.a``,
        ``REPRO_DISABLE_NATIVE=1``, or an observed run) it runs the
        reference loop below, the executable spec, which the kernel
        reproduces bit for bit (``tests/test_des_equivalence.py``). The
        choice is made before the first RNG draw; :attr:`last_backend`
        says which loop ran.
        """
        if not 0 < duration_s < math.inf:
            raise ValueError("duration_s must be positive and finite")
        observing = self.tracer.enabled or self.profiler is not None
        if not observing and native_available():
            self.last_backend = "native"
            result = run_simulator_native(self, duration_s)
        else:
            self.last_backend = "reference"
            result = self._run_reference(duration_s)
        if self.pool is not None and self.metrics is not None:
            self.metrics.gauge(
                "serving.multimodel.capacity_slots", model=self.config.name
            ).set(float(self.pool.total_slots))
        return result

    def _run_reference(self, duration_s: float) -> SimulationResult:
        """The per-event reference loop (the executable spec)."""
        rng = self._rng
        faults = self.faults
        fault_active = faults is not None and not faults.is_zero
        # Per-instance FIFO: next arrival stream.
        arrivals: list[list[float]] = []
        for i in range(self.num_instances):
            if self.per_instance_qps is None:
                arrivals.append([float(rng.uniform(0, 1e-4))])
            else:
                times = []
                t = 0.0
                while True:
                    t += float(rng.exponential(1.0 / self.per_instance_qps))
                    if t >= duration_s:
                        break
                    times.append(t)
                arrivals.append(times)

        # Event queue holds (time, seq, kind, instance, epoch); kinds:
        # 0 arrival, 1 completion, 2 replica crash, 3 replica restart.
        # The per-instance epoch invalidates the completion event of an
        # inference killed in flight by a crash. With no fault schedule no
        # crash/restart events exist and the loop below consumes the RNG
        # stream exactly as the fault-free simulator did.
        events: list[tuple[float, int, int, int, int]] = []
        seq = 0
        for i, times in enumerate(arrivals):
            for t in times:
                heapq.heappush(events, (t, seq, 0, i, 0))
                seq += 1
        offered = seq
        if fault_active:
            assert faults is not None
            for edge_t_s, replica_id, goes_down in faults.transition_events(
                self.num_instances
            ):
                heapq.heappush(
                    events, (edge_t_s, seq, 2 if goes_down else 3, replica_id, 0)
                )
                seq += 1

        tracer = self.tracer
        observing = tracer.enabled or self.profiler is not None
        if tracer.enabled:
            for i in range(self.num_instances):
                tracer.set_track_name(i, f"instance {i}")

        busy = [False] * self.num_instances
        down = [False] * self.num_instances
        epoch = [0] * self.num_instances
        killed = 0
        queues: list[list[float]] = [[] for _ in range(self.num_instances)]
        current: list[InferenceRecord | None] = [None] * self.num_instances
        records: list[InferenceRecord] = []

        # Admission control (overload protection). With ``overload=None``
        # every branch below is skipped and the queues stay unbounded —
        # admission decisions are pure functions of the queue state and
        # never touch the RNG stream, so protection-off runs reproduce
        # the historical simulator record-for-record.
        admission = self.overload.admission if self.overload is not None else None
        codels = (
            [admission.make_codel() for _ in range(self.num_instances)]
            if admission is not None
            else None
        )
        shed = 0
        max_queue_depth = 0

        def shed_one(instance: int, now: float, reason: str) -> None:
            nonlocal shed
            shed += 1
            if tracer.enabled:
                tracer.instant(
                    "serving.overload.shed", now, track=instance, reason=reason
                )

        def admit(instance: int, now: float) -> bool:
            """Apply the admission policy to one arrival that must queue."""
            assert admission is not None
            depth = len(queues[instance])
            if (
                admission.shed_policy == "deadline_aware"
                and admission.deadline_s is not None
            ):
                # Dead on arrival: the backlog ahead (queue + in-flight)
                # plus its own service already exceeds the deadline.
                expected_s = self._base_latency(sum(busy) + 1).total_seconds
                if (depth + 2) * expected_s > admission.deadline_s:
                    shed_one(instance, now, SHED_DEADLINE)
                    return False
            if depth >= admission.queue_capacity:
                if admission.shed_policy == "reject_oldest":
                    # LIFO-drain: evict the head (it has waited longest
                    # and is closest to its deadline) to admit the new.
                    queues[instance].pop(0)
                    shed_one(instance, now, SHED_OLDEST)
                    return True
                shed_one(instance, now, SHED_QUEUE_FULL)
                return False
            return True

        def next_arrival(instance: int, now: float) -> float | None:
            """Pop the queue head, letting CoDel shed standing delay."""
            while queues[instance]:
                arrival = queues[instance].pop(0)
                if (
                    codels is not None
                    and codels[instance] is not None
                    and codels[instance].on_dequeue(now - arrival, now)
                ):
                    shed_one(instance, now, SHED_CODEL)
                    continue
                return arrival
            return None

        def dispatch(instance: int, arrival: float, now: float) -> None:
            nonlocal seq
            active = sum(busy) + 1
            service = self.sample_service_s(active, rng)
            if fault_active:
                assert faults is not None
                service *= faults.service_multiplier(
                    instance, now, self._memory_fraction
                )
            busy[instance] = True
            current[instance] = InferenceRecord(
                instance_id=instance,
                arrival_s=arrival,
                start_s=now,
                end_s=now + service,
                active_jobs=active,
                service_s=service,
            )
            heapq.heappush(events, (now + service, seq, 1, instance, epoch[instance]))
            seq += 1

        while events:
            now, _, kind, instance, ev_epoch = heapq.heappop(events)
            if now >= duration_s and kind == 0:
                continue
            if kind == 0:  # arrival
                if busy[instance] or down[instance]:
                    if admission is not None and not admit(instance, now):
                        continue
                    queues[instance].append(now)
                    if len(queues[instance]) > max_queue_depth:
                        max_queue_depth = len(queues[instance])
                else:
                    dispatch(instance, now, now)
            elif kind == 1:  # completion
                if ev_epoch != epoch[instance]:
                    continue  # the inference was killed by a crash
                record = current[instance]
                assert record is not None
                records.append(record)
                if observing:
                    self._observe_completion(record)
                busy[instance] = False
                current[instance] = None
                if now >= duration_s:
                    continue
                arrival = next_arrival(instance, now)
                if arrival is not None:
                    dispatch(instance, arrival, now)
                elif self.per_instance_qps is None:
                    offered += 1
                    dispatch(instance, now, now)  # closed loop re-issue
            elif kind == 2:  # replica crash
                down[instance] = True
                epoch[instance] += 1
                if tracer.enabled:
                    tracer.instant("serving.sim.crash", now, track=instance)
                if busy[instance]:
                    killed += 1
                    if tracer.enabled:
                        dead = current[instance]
                        assert dead is not None
                        tracer.complete(
                            "serving.sim.request",
                            dead.arrival_s,
                            now,
                            track=instance,
                            active_jobs=dead.active_jobs,
                            outcome="killed",
                        )
                    busy[instance] = False
                    current[instance] = None
            else:  # kind == 3: replica restart
                down[instance] = False
                if tracer.enabled:
                    tracer.instant("serving.sim.restart", now, track=instance)
                if now >= duration_s:
                    continue
                arrival = next_arrival(instance, now)
                if arrival is not None:
                    dispatch(instance, arrival, now)
                elif self.per_instance_qps is None and not busy[instance]:
                    offered += 1
                    dispatch(instance, now, now)  # closed loop resumes

        downtime_s = 0.0
        if fault_active:
            assert faults is not None
            downtime_s = sum(
                faults.downtime_s(i, duration_s) for i in range(self.num_instances)
            )
        if self.metrics is not None:
            self.metrics.gauge("serving.queue.depth").set(
                float(sum(len(q) for q in queues))
            )
            self.metrics.gauge("serving.queue.max_depth").set(
                float(max_queue_depth)
            )
            self.metrics.counter("serving.overload.shed").inc(shed)
        return SimulationResult(
            server_name=self.server.name,
            model_name=self.config.name,
            batch_size=self.batch_size,
            num_instances=self.num_instances,
            duration_s=duration_s,
            records=RecordBatch.from_records(records),
            offered=offered,
            killed=killed,
            downtime_s=downtime_s,
            shed=shed,
            max_queue_depth=max_queue_depth,
        )

    # --------------------------------------------------- operator-level view

    def fc_latency_samples(
        self,
        result: SimulationResult,
        input_dim: int,
        output_dim: int,
        fc_batch: int = 1,
    ) -> np.ndarray:
        """Latency samples of a standalone FC operator co-located with the
        simulated workload (the Figure 11 measurement).

        For each dispatch in ``result``, the FC runs under that dispatch's
        contention state; per-sample noise follows the same model as whole
        inferences.
        """
        weight_bytes = (input_dim * output_dim + output_dim) * 4
        act_bytes = fc_batch * (input_dim + output_dim) * 4
        flops = 2 * fc_batch * input_dim * output_dim
        n = len(result.records)
        samples = np.empty(n, dtype=np.float64)
        rng = np.random.default_rng(stable_fc_seed(input_dim, output_dim))
        # One chunked standard-normal draw replaces n scalar lognormal
        # calls bit for bit: each lognormal consumes exactly one normal
        # draw and equals exp(mean + sigma * z), and a chunked draw yields
        # the same z sequence as n scalar draws.
        normals = rng.standard_normal(n)
        actives = result.active_job_counts()
        base_cache: dict[int, tuple[float, float, float]] = {}
        for i in range(n):
            active = int(actives[i])
            cached = base_cache.get(active)
            if cached is None:
                base_s = self.timing.fc_time(
                    "fc-probe",
                    flops=flops,
                    weight_bytes=weight_bytes,
                    activation_bytes=act_bytes,
                    batch=fc_batch,
                    state=self.state_for(active),
                ).seconds
                sigma = self.noise_sigma(active)
                cached = (base_s, -0.5 * sigma**2, sigma)
                base_cache[active] = cached
            base_s, log_mean, sigma = cached
            samples[i] = base_s * math.exp(log_mean + sigma * normals[i])
        return samples
