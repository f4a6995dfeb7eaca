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
contention (and faster on inclusive hierarchies). A
:class:`ContentionLevels` table prices each active count once, and the
simulators of one server, model, batch and hyperthreading setting can
share it; each simulator keeps only its instances, arrivals and RNG. A
run returns the :class:`InferenceRecord` list its event loop builds, in
completion order; :class:`SimulationResult` derives its latency,
service-time and active-job arrays from that list.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from ..analysis.distributions import LatencySummary, summarize
from ..config.model_config import ModelConfig
from ..data.sparse import _integer
from ..hw.colocation import ColocationState
from ..hw.server import ServerSpec
from ..hw.timing import TimingModel
from .loadgen import _require_seed, poisson_arrival_times

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
    closed-loop re-issues), and ``max_queue_depth`` is the deepest
    per-instance backlog observed — the overload-onset signal.
    Conservation: ``offered = completed + queued at the horizon``.

    ``shed`` and ``killed`` are always 0: the simulator has no admission
    control and no faults (``ResilientRouter`` has both). The fields stay
    because the benchmark's ``colocation_tail`` check
    (``perfbench/hooks.py``) reads them from every run.
    """

    server_name: str
    model_name: str
    batch_size: int
    num_instances: int
    duration_s: float
    #: Completed inferences, in completion order.
    records: list[InferenceRecord]
    offered: int = 0
    killed: int = 0
    shed: int = 0
    max_queue_depth: int = 0

    def latencies_s(self) -> np.ndarray:
        """End-to-end latency of every completed inference."""
        return np.array([r.latency_s for r in self.records], dtype=np.float64)

    def service_times_s(self) -> np.ndarray:
        """Service time (excluding queueing) of every inference."""
        return np.array([r.service_s for r in self.records], dtype=np.float64)

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
        return np.array([r.active_jobs for r in self.records], dtype=np.int64)


class ContentionLevels:
    """The prices of one model's contention levels on one server.

    A level's price depends only on the server, the model, the batch,
    hyperthreading and the active-job count, so every simulator of one
    such setting can share one table. The table owns the
    :class:`~repro.hw.timing.TimingModel`, the resident bytes and the
    co-runner traffic. Per active-job count it holds the contention state,
    the (base seconds, lognormal mean, sigma) of a whole inference and
    the seconds of each FC probe, each priced on first use. It lives as
    long as the simulators that hold it.

    Args:
        server: server generation.
        config: the model each instance serves.
        batch_size: items per inference.
        hyperthreading: two instances per physical core.
    """

    def __init__(
        self,
        server: ServerSpec,
        config: ModelConfig,
        batch_size: int,
        hyperthreading: bool = False,
    ) -> None:
        if _integer("batch_size", batch_size) < 1:
            raise ValueError("batch_size must be positive")
        self.server = server
        self.config = config
        self.batch_size = batch_size
        self.hyperthreading = hyperthreading
        self.timing = TimingModel(server)
        self._resident = self.timing.resident_bytes(config)
        self._traffic = self.timing.estimate_random_traffic_gbps(config, batch_size)
        self._states: dict[int, ColocationState] = {}
        self._levels: dict[int, tuple[float, float, float]] = {}
        # (input_dim, output_dim, fc_batch, active_jobs) -> the probe's
        # seconds, lognormal mean and sigma.
        self._probes: dict[tuple[int, int, int, int], tuple[float, float, float]] = {}

    def state_for(self, active_jobs: int) -> ColocationState:
        """Contention state when ``active_jobs`` instances are running."""
        state = self._states.get(active_jobs)
        if state is None:
            state = self._states[active_jobs] = ColocationState(
                num_jobs=max(1, active_jobs),
                hyperthreading=self.hyperthreading,
                resident_bytes_per_job=self._resident,
                corunner_random_gbps=self._traffic,
            )
        return state

    def level(self, active_jobs: int) -> tuple[float, float, float]:
        """Base seconds, lognormal mean and sigma at a contention level."""
        level = self._levels.get(active_jobs)
        if level is None:
            base_s = self.timing.model_seconds(
                self.config, self.batch_size, self.state_for(active_jobs)
            )
            sigma = self.noise_sigma(active_jobs)
            level = self._levels[active_jobs] = (base_s, -0.5 * sigma**2, sigma)
        return level

    def noise_sigma(self, active_jobs: int) -> float:
        """Lognormal sigma of the service-time noise at a contention level."""
        churn = self.timing.contention.llc_churn(self.state_for(active_jobs))
        per_churn = (
            CONTENTION_NOISE_INCLUSIVE
            if self.server.inclusive_llc
            else CONTENTION_NOISE_EXCLUSIVE
        )
        return BASE_NOISE_SIGMA + per_churn * churn

    def fc_probe(
        self, active_jobs: int, input_dim: int, output_dim: int, fc_batch: int
    ) -> tuple[float, float, float]:
        """A standalone FC's seconds, lognormal mean and sigma at a level.

        The FC runs under the level's contention state; its noise follows
        the level's, as whole inferences' does.
        """
        key = (input_dim, output_dim, fc_batch, active_jobs)
        probe = self._probes.get(key)
        if probe is None:
            base_s = self.timing.fc_time(
                "fc-probe",
                flops=2 * fc_batch * input_dim * output_dim,
                weight_bytes=(input_dim * output_dim + output_dim) * 4,
                activation_bytes=fc_batch * (input_dim + output_dim) * 4,
                batch=fc_batch,
                state=self.state_for(active_jobs),
            ).seconds
            _, log_mean, sigma = self.level(active_jobs)
            probe = self._probes[key] = (base_s, log_mean, sigma)
        return probe


class ServingSimulator:
    """Simulates co-located model instances on one server socket.

    Args:
        levels: the priced contention levels of the server, model, batch
            and hyperthreading setting every instance runs; simulators of
            one setting may share one table.
        num_instances: co-located replicas (one per physical core, as in the
            paper's experiments).
        per_instance_qps: open-loop Poisson arrival rate per instance;
            ``None`` runs closed-loop (every instance always busy).
        seed: RNG seed.
    """

    def __init__(
        self,
        levels: ContentionLevels,
        num_instances: int,
        per_instance_qps: float | None = None,
        seed: int = 0,
    ) -> None:
        if not isinstance(levels, ContentionLevels):
            raise TypeError(
                "ServingSimulator.levels must be a ContentionLevels, "
                f"got {type(levels).__name__}"
            )
        if _integer("num_instances", num_instances) < 1:
            raise ValueError("need at least one instance")
        if per_instance_qps is not None and not 0 < per_instance_qps < math.inf:
            raise ValueError("per_instance_qps must be positive and finite")
        _require_seed("ServingSimulator", seed)
        self.levels = levels
        self.num_instances = num_instances
        self.per_instance_qps = per_instance_qps
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------- services

    def sample_service_s(self, active_jobs: int, rng: np.random.Generator) -> float:
        """Draw one noisy service time at the given active count."""
        base_s, log_mean, sigma = self.levels.level(active_jobs)
        return base_s * float(rng.lognormal(mean=log_mean, sigma=sigma))

    # ------------------------------------------------------------------ run

    def run(self, duration_s: float = 1.0) -> SimulationResult:
        """Simulate ``duration_s`` of serving; returns completed inferences.

        One per-event loop over a ``(time, seq)`` heap: the simulator's
        whole semantics, pinned by the Figure 11 golden and checked
        against queueing theory (``tests/test_queueing_oracles.py``).
        """
        if not 0 < duration_s < math.inf:
            raise ValueError("duration_s must be positive and finite")
        rng = self._rng
        # Per-instance FIFO: next arrival stream.
        arrivals: list[list[float]] = []
        for i in range(self.num_instances):
            if self.per_instance_qps is None:
                arrivals.append([float(rng.uniform(0, 1e-4))])
            else:
                arrivals.append(
                    poisson_arrival_times(
                        rng, self.per_instance_qps, duration_s
                    ).tolist()
                )

        # Event queue holds (time, seq, kind, instance); kind 0 is an
        # arrival, 1 a completion. ``seq`` is unique, so ``(time, seq)``
        # orders every event.
        events: list[tuple[float, int, int, int]] = []
        seq = 0
        for i, times in enumerate(arrivals):
            for t in times:
                heapq.heappush(events, (t, seq, 0, i))
                seq += 1
        offered = seq

        busy = [False] * self.num_instances
        queues: list[list[float]] = [[] for _ in range(self.num_instances)]
        current: list[InferenceRecord | None] = [None] * self.num_instances
        records: list[InferenceRecord] = []
        max_queue_depth = 0

        def dispatch(instance: int, arrival: float, now: float) -> None:
            nonlocal seq
            active = sum(busy) + 1
            service = self.sample_service_s(active, rng)
            busy[instance] = True
            current[instance] = InferenceRecord(
                instance_id=instance,
                arrival_s=arrival,
                start_s=now,
                end_s=now + service,
                active_jobs=active,
                service_s=service,
            )
            heapq.heappush(events, (now + service, seq, 1, instance))
            seq += 1

        while events:
            now, _, kind, instance = heapq.heappop(events)
            if kind == 0:  # arrival
                if now >= duration_s:
                    continue
                if busy[instance]:
                    queues[instance].append(now)
                    if len(queues[instance]) > max_queue_depth:
                        max_queue_depth = len(queues[instance])
                else:
                    dispatch(instance, now, now)
                continue
            # completion
            record = current[instance]
            assert record is not None
            records.append(record)
            busy[instance] = False
            current[instance] = None
            if now >= duration_s:
                continue
            if queues[instance]:
                dispatch(instance, queues[instance].pop(0), now)
            elif self.per_instance_qps is None:
                offered += 1
                dispatch(instance, now, now)  # closed loop re-issue

        levels = self.levels
        return SimulationResult(
            server_name=levels.server.name,
            model_name=levels.config.name,
            batch_size=levels.batch_size,
            num_instances=self.num_instances,
            duration_s=duration_s,
            records=records,
            offered=offered,
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
        inferences. Each level's probe is priced once, by the table.
        """
        records = result.records
        rng = np.random.default_rng(stable_fc_seed(input_dim, output_dim))
        # One chunked standard-normal draw replaces n scalar lognormal
        # calls bit for bit: each lognormal consumes exactly one normal
        # draw and equals exp(mean + sigma * z), and a chunked draw yields
        # the same z sequence as n scalar draws.
        normals = rng.standard_normal(len(records)).tolist()
        probe = self.levels.fc_probe
        samples = []
        for record, z in zip(records, normals):
            base_s, log_mean, sigma = probe(
                record.active_jobs, input_dim, output_dim, fc_batch
            )
            samples.append(base_s * math.exp(log_mean + sigma * z))
        return np.array(samples, dtype=np.float64)
