"""Fault injection and graceful degradation for the serving stack.

The paper's production takeaways (Section VI, Figure 11) come from a fleet
where co-located replicas contend, jitter, and occasionally stall; tail
latency is shaped as much by those faults — and by the front-end policies
that absorb them — as by micro-architecture. This module adds both sides:

* **Injectors** — a :class:`FaultSchedule` composes replica crashes
  (:class:`ReplicaCrash`), interval slowdowns (:class:`Straggler`) and
  effective-DRAM-bandwidth dips (:class:`BandwidthFault`), all placed on
  the simulator's event clock. :func:`fault_storm` draws a random storm
  from a dedicated ``np.random.default_rng(seed)`` stream so every run is
  reproducible.
* **Resilience policies** — :class:`ResiliencePolicy` configures
  per-request timeouts with bounded exponential-backoff retries, hedged
  requests (duplicate to a second replica after a fixed delay, first
  response wins — "The Tail at Scale" tail-cutting), and
  health-check-driven ejection/readmission of replicas.
* **Graceful degradation** — :class:`DegradationPolicy` truncates sparse
  lookups per table when the fleet is overloaded or partially down; the
  quality cost of serving the degraded model is surfaced via
  :func:`degraded_quality`
  (:mod:`repro.serving.ranking_quality`).
* **Accounting** — :class:`~repro.serving.metrics.ResilienceStats`
  (availability, goodput, retry/hedge counts, time in degraded mode) via
  :meth:`FaultyServingResult.stats`.

:class:`ResilientRouter` runs the fleet-level discrete-event simulation:
M replicas of one model, Poisson query arrivals, faults from a schedule,
and the configured policies.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from ..analysis.distributions import LatencySummary, summarize
from ..config.model_config import ModelConfig
from ..core.operators.base import OP_SLS
from ..data.sparse import _integer
from ..hw.server import ServerSpec
from ..hw.timing import TimingModel
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NullTracer, Tracer, as_tracer
from ._des_native import native_available, route_native
from .loadgen import (
    _require_counts,
    _require_duration,
    _require_finite,
    _require_seed,
    poisson_arrival_times,
)
from .metrics import SLA, ResilienceStats, goodput_qps
from .ranking_quality import pipeline_quality
from .router import POLICIES, SERVICE_NOISE_SIGMA, RoutingDraws, pick_machine

# ``overload`` never imports this module, so this edge is acyclic.
from .overload import (
    BREAKER_CLOSED,
    SHED_CODEL,
    SHED_DEADLINE,
    SHED_OLDEST,
    SHED_QUEUE_FULL,
    BrownoutController,
    CircuitBreaker,
    OverloadConfig,
    OverloadStats,
    _check_lookup_cap,
    truncate_lookups,  # re-exported: the degraded mode's transform
)

# --------------------------------------------------------------- injectors


@dataclass(frozen=True)
class ReplicaCrash:
    """A replica process dies at ``at_s`` and restarts ``downtime_s`` later.

    In-flight work on the replica is lost; queued work fails fast (the
    connection is refused), which is what makes retries matter.
    """

    replica_id: int
    at_s: float
    downtime_s: float

    def __post_init__(self) -> None:
        _require_finite("ReplicaCrash", at_s=self.at_s, downtime_s=self.downtime_s)
        if self.replica_id < 0:
            raise ValueError("replica_id must be non-negative")
        if self.at_s < 0:
            raise ValueError("crash time must be non-negative")
        if self.downtime_s <= 0:
            raise ValueError("downtime must be positive")


@dataclass(frozen=True)
class Straggler:
    """A replica serves ``slowdown`` x slower during an interval.

    Models a co-located batch job, a thermal throttle, or a GC pause train
    — the replica stays up but its service times stretch.
    """

    replica_id: int
    start_s: float
    duration_s: float
    slowdown: float

    def __post_init__(self) -> None:
        _require_finite(
            "Straggler",
            start_s=self.start_s,
            duration_s=self.duration_s,
            slowdown=self.slowdown,
        )
        if self.replica_id < 0:
            raise ValueError("replica_id must be non-negative")
        if self.start_s < 0 or self.duration_s <= 0:
            raise ValueError("straggler interval must be non-negative/positive")
        if self.slowdown < 1.0:
            raise ValueError("slowdown must be >= 1 (use 1 for no effect)")


@dataclass(frozen=True)
class BandwidthFault:
    """Effective DRAM bandwidth drops to ``bandwidth_fraction`` of nominal.

    A noisy neighbour saturating the memory controller slows only the
    memory-bound share of an inference (the SLS time, per the paper's
    characterization); the injected slowdown is Amdahl-scaled by that share.
    ``replica_id`` of ``None`` hits every replica (a machine-wide or
    rack-wide neighbour).
    """

    start_s: float
    duration_s: float
    bandwidth_fraction: float
    replica_id: int | None = None

    def __post_init__(self) -> None:
        _require_finite(
            "BandwidthFault",
            start_s=self.start_s,
            duration_s=self.duration_s,
            bandwidth_fraction=self.bandwidth_fraction,
        )
        if self.start_s < 0 or self.duration_s <= 0:
            raise ValueError("fault interval must be non-negative/positive")
        if not 0.0 < self.bandwidth_fraction <= 1.0:
            raise ValueError("bandwidth_fraction must be in (0, 1]")


class FaultSchedule:
    """A composed, clock-driven set of fault injections.

    The schedule is immutable and purely declarative: routers query it
    (``service_multiplier`` / ``transition_events``) against their own
    event clock, so the same schedule replayed against the same seed
    yields byte-identical runs.
    """

    def __init__(
        self,
        crashes: tuple[ReplicaCrash, ...] | list[ReplicaCrash] = (),
        stragglers: tuple[Straggler, ...] | list[Straggler] = (),
        bandwidth_faults: tuple[BandwidthFault, ...] | list[BandwidthFault] = (),
    ) -> None:
        self.crashes = tuple(crashes)
        self.stragglers = tuple(stragglers)
        self.bandwidth_faults = tuple(bandwidth_faults)

    @classmethod
    def zero(cls) -> "FaultSchedule":
        """The empty schedule (injects nothing)."""
        return cls()

    @property
    def is_zero(self) -> bool:
        """True when the schedule injects nothing."""
        return not (self.crashes or self.stragglers or self.bandwidth_faults)

    def to_jsonable(self) -> dict:
        """The schedule's faults as field dicts, for ``--json`` dumps."""
        return {
            "crashes": [asdict(c) for c in self.crashes],
            "stragglers": [asdict(s) for s in self.stragglers],
            "bandwidth_faults": [asdict(b) for b in self.bandwidth_faults],
        }

    # ------------------------------------------------------------- queries

    def down_intervals(self, replica_id: int) -> list[tuple[float, float]]:
        """Merged ``[start, end)`` downtime intervals for one replica."""
        return _merge_intervals(
            [
                (c.at_s, c.at_s + c.downtime_s)
                for c in self.crashes
                if c.replica_id == replica_id
            ]
        )

    def service_multiplier(
        self, replica_id: int, t_s: float, memory_fraction: float = 1.0
    ) -> float:
        """Service-time multiplier on a replica at time ``t_s``.

        Stragglers multiply the whole service time; bandwidth faults
        stretch only the ``memory_fraction`` share (Amdahl's law on the
        memory-bound portion of the inference).
        """
        if not 0.0 <= memory_fraction <= 1.0:
            raise ValueError("memory_fraction must be in [0, 1]")
        multiplier = 1.0
        for s in self.stragglers:
            if s.replica_id == replica_id and s.start_s <= t_s < s.start_s + s.duration_s:
                multiplier *= s.slowdown
        for b in self.bandwidth_faults:
            if b.replica_id is not None and b.replica_id != replica_id:
                continue
            if b.start_s <= t_s < b.start_s + b.duration_s:
                multiplier *= 1.0 + memory_fraction * (1.0 / b.bandwidth_fraction - 1.0)
        return multiplier

    def transition_events(self, num_replicas: int) -> list[tuple[float, int, bool]]:
        """All ``(time_s, replica_id, goes_down)`` crash/restart edges.

        The edges of :meth:`down_intervals` for every replica below
        ``num_replicas``, sorted; crashes are grouped by replica in one
        pass, so the cost does not grow with the fleet size.
        """
        raw: dict[int, list[tuple[float, float]]] = {}
        for c in self.crashes:
            if c.replica_id < num_replicas:
                raw.setdefault(c.replica_id, []).append(
                    (c.at_s, c.at_s + c.downtime_s)
                )
        events: list[tuple[float, int, bool]] = []
        for replica_id, intervals in raw.items():
            for start_s, end_s in _merge_intervals(intervals):
                events.append((start_s, replica_id, True))
                events.append((end_s, replica_id, False))
        events.sort()
        return events


def _merge_intervals(
    raw: list[tuple[float, float]],
) -> list[tuple[float, float]]:
    """Sorted union of ``[start, end)`` intervals; touching ones merge."""
    merged: list[tuple[float, float]] = []
    for start_s, end_s in sorted(raw):
        if merged and start_s <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end_s))
        else:
            merged.append((start_s, end_s))
    return merged


def fault_storm(
    num_replicas: int,
    duration_s: float,
    seed: int,
    crash_count: int = 2,
    crash_downtime_frac: tuple[float, float] = (0.05, 0.2),
    straggler_count: int = 2,
    straggler_slowdown: tuple[float, float] = (4.0, 10.0),
    straggler_duration_frac: tuple[float, float] = (0.1, 0.4),
    bandwidth_dip_count: int = 1,
    bandwidth_fraction: tuple[float, float] = (0.3, 0.6),
    bandwidth_duration_frac: tuple[float, float] = (0.1, 0.3),
) -> FaultSchedule:
    """Draw a random fault storm from a dedicated seeded stream.

    Interval lengths are drawn as *fractions* of ``duration_s`` (the
    ``*_frac`` ranges) so the same storm shape scales with the simulated
    horizon; counts are exact. Every fault is independent; correlated
    storms come from :func:`~repro.serving.domains.domain_storm`.
    """
    if _integer("num_replicas", num_replicas) < 1:
        raise ValueError("need at least one replica")
    _require_duration("fault_storm", duration_s)
    _require_seed("fault_storm", seed)
    _require_counts(
        "fault_storm",
        crash_count=crash_count,
        straggler_count=straggler_count,
        bandwidth_dip_count=bandwidth_dip_count,
    )
    rng = np.random.default_rng(seed)

    def interval_s(frac_range: tuple[float, float]) -> float:
        return duration_s * float(rng.uniform(*frac_range))

    crashes = tuple(
        ReplicaCrash(
            replica_id=int(rng.integers(num_replicas)),
            at_s=float(rng.uniform(0.0, 0.8 * duration_s)),
            downtime_s=interval_s(crash_downtime_frac),
        )
        for _ in range(crash_count)
    )
    stragglers = tuple(
        Straggler(
            replica_id=int(rng.integers(num_replicas)),
            start_s=float(rng.uniform(0.0, 0.7 * duration_s)),
            duration_s=interval_s(straggler_duration_frac),
            slowdown=float(rng.uniform(*straggler_slowdown)),
        )
        for _ in range(straggler_count)
    )
    bandwidth_faults = tuple(
        BandwidthFault(
            start_s=float(rng.uniform(0.0, 0.7 * duration_s)),
            duration_s=interval_s(bandwidth_duration_frac),
            bandwidth_fraction=float(rng.uniform(*bandwidth_fraction)),
            replica_id=None,
        )
        for _ in range(bandwidth_dip_count)
    )
    return FaultSchedule(crashes, stragglers, bandwidth_faults)


# ---------------------------------------------------------------- policies


@dataclass(frozen=True)
class ResiliencePolicy:
    """Front-end resilience knobs.

    Attributes:
        timeout_s: per-attempt client timeout; ``None`` waits forever.
        max_retries: attempts re-issued after a timeout or fail-fast.
        backoff_base_s: first retry delay; doubles per retry (exponential).
        hedge_delay_s: issue a duplicate to a second replica this long
            after the primary attempt; ``None`` disables hedging. Choose
            near the no-fault p9x latency so hedges stay rare.
        health_check_interval_s: router probe period for ejecting crashed
            replicas and readmitting restarted ones; ``None`` gives the
            router instantaneous health knowledge. A routed request that
            hits a down replica fails fast and ejects it immediately
            (passive health), whichever mode is active.
    """

    timeout_s: float | None = None
    max_retries: int = 0
    backoff_base_s: float = 0.001
    hedge_delay_s: float | None = None
    health_check_interval_s: float | None = None

    def __post_init__(self) -> None:
        _require_finite(
            "ResiliencePolicy",
            timeout_s=self.timeout_s,
            backoff_base_s=self.backoff_base_s,
            hedge_delay_s=self.hedge_delay_s,
            health_check_interval_s=self.health_check_interval_s,
        )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout must be positive")
        if _integer("max_retries", self.max_retries) < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be non-negative")
        if self.max_retries > 0:
            try:
                last_backoff_s = self.backoff_s(self.max_retries - 1)
            except OverflowError:
                last_backoff_s = math.inf
            if not math.isfinite(last_backoff_s):
                raise ValueError(
                    "the last retry's backoff, backoff_base_s * "
                    "2**(max_retries - 1), must be finite"
                )
        if self.hedge_delay_s is not None and self.hedge_delay_s <= 0:
            raise ValueError("hedge delay must be positive")
        if self.health_check_interval_s is not None and self.health_check_interval_s <= 0:
            raise ValueError("health-check interval must be positive")

    @classmethod
    def none(cls) -> "ResiliencePolicy":
        """No timeouts, no retries, no hedging (the pre-fault stack)."""
        return cls()

    def backoff_s(self, retry_index: int) -> float:
        """Delay before the ``retry_index``-th retry (0-based)."""
        if retry_index < 0:
            raise ValueError("retry index must be non-negative")
        return self.backoff_base_s * (2.0**retry_index)


@dataclass(frozen=True)
class DegradationPolicy:
    """Graceful degradation under overload or partial failure.

    When fewer than ``min_healthy_fraction`` of replicas are admitted, or
    the mean queue depth across admitted replicas reaches
    ``queue_depth_trigger``, new requests are served in degraded mode:
    with the primary config's sparse lookups truncated to
    ``max_lookups_per_table``.

    Attributes:
        max_lookups_per_table: cap on per-table sparse lookups in degraded
            mode.
        queue_depth_trigger: mean admitted-replica queue depth that flips
            degraded mode on.
        min_healthy_fraction: admitted-replica fraction below which
            degraded mode engages regardless of queues.
    """

    max_lookups_per_table: int
    queue_depth_trigger: float = 4.0
    min_healthy_fraction: float = 0.5

    def __post_init__(self) -> None:
        _check_lookup_cap(self.max_lookups_per_table)
        # A nan trigger never fires; an infinite one (degrade on health
        # alone) stays valid.
        if not self.queue_depth_trigger > 0:
            raise ValueError("queue_depth_trigger must be positive")
        if not 0.0 < self.min_healthy_fraction <= 1.0:
            raise ValueError("min_healthy_fraction must be in (0, 1]")

    def degraded_config(self, primary: ModelConfig) -> ModelConfig:
        """The model served in degraded mode."""
        return truncate_lookups(primary, self.max_lookups_per_table)


def degraded_quality(
    primary: ModelConfig,
    degraded: ModelConfig,
    num_candidates: int = 200,
    k: int = 10,
    seed: int = 0,
) -> dict[str, float]:
    """Ranking-quality cost of serving ``degraded`` instead of ``primary``.

    A synthetic candidate set is scored by the primary model (ground
    truth); the degraded model's scores are the truth plus noise whose
    scale grows with the fraction of per-sample work it drops (FLOPs and
    gathered embedding bytes both proxy for capacity). Returns the
    recall@k / NDCG@k of the degraded selection
    (:func:`repro.serving.ranking_quality.pipeline_quality`).
    """
    if num_candidates < k:
        raise ValueError("need at least k candidates")
    flops_kept = degraded.flops_per_sample() / primary.flops_per_sample()
    bytes_kept = degraded.bytes_read_per_sample() / primary.bytes_read_per_sample()
    capacity_kept = min(1.0, 0.5 * (flops_kept + bytes_kept))
    noise_scale = 1.0 - capacity_kept
    rng = np.random.default_rng(seed)
    true_scores = rng.normal(0.0, 1.0, size=num_candidates)
    noisy_scores = true_scores + noise_scale * rng.normal(0.0, 1.0, size=num_candidates)
    selected = list(np.argsort(noisy_scores)[::-1][:k])
    return pipeline_quality(selected, true_scores, k)


# --------------------------------------------------------------- simulator

# Attempt states.
_QUEUED, _RUNNING, _CANCELLED, _DONE = range(4)

# Event kinds (heap entries are ``(t_s, seq, kind, a, b)``; fault
# transitions and health probes come from pre-sorted streams instead).
_EV_ARRIVAL, _EV_COMPLETE, _EV_TIMEOUT, _EV_HEDGE, _EV_FAULT, _EV_HEALTH = range(6)


class _Request:
    """Mutable per-request state (client side)."""

    __slots__ = (
        "arrival_s", "done", "failed", "degraded", "tier", "latency_s",
        "retries_used", "hedged", "live_attempts",
    )

    def __init__(self, arrival_s: float) -> None:
        self.arrival_s = arrival_s
        self.done = False
        self.failed = False
        self.degraded = False
        self.tier = 0
        self.latency_s = 0.0
        self.retries_used = 0
        self.hedged = False
        self.live_attempts = 0


class _Attempt:
    """One routed attempt of a request (server side)."""

    __slots__ = ("request_id", "machine", "state", "enqueued_s")

    def __init__(self, request_id: int, machine: int, enqueued_s: float) -> None:
        self.request_id = request_id
        self.machine = machine
        self.state = _QUEUED
        self.enqueued_s = enqueued_s


@dataclass
class FaultyServingResult:
    """Outcome of one :class:`ResilientRouter` run."""

    policy: ResiliencePolicy
    num_machines: int
    offered_qps: float
    duration_s: float
    sla: SLA
    latencies_s: np.ndarray
    offered: int
    failed: int
    retries: int
    hedges: int
    wasted_attempts: int
    fail_fasts: int
    ejections: int
    degraded_completions: int
    time_in_degraded_s: float
    quality: dict[str, float] | None = None
    #: Overload-protection accounting; ``None`` when ``overload`` was off.
    overload: "OverloadStats | None" = None
    #: Per-brownout-tier ranking quality (tiers 1..N); ``None`` without
    #: a brownout policy.
    brownout_quality: tuple[dict[str, float], ...] | None = None

    @property
    def completed(self) -> int:
        """Requests that received a response."""
        return int(self.latencies_s.size)

    @property
    def unresolved(self) -> int:
        """Offered requests still in flight at the horizon."""
        return self.offered - self.completed - self.failed

    def summary(self) -> LatencySummary:
        """Percentile summary of completed-request latencies."""
        return summarize(self.latencies_s)

    def throughput_qps(self) -> float:
        """Completed requests per second (regardless of the SLA)."""
        return self.completed / self.duration_s

    def goodput_qps(self) -> float:
        """In-SLO completions per second."""
        return goodput_qps(self.latencies_s, self.sla, self.duration_s)

    def availability(self) -> float:
        """Fraction of offered requests that completed."""
        if self.offered == 0:
            return 1.0
        return self.completed / self.offered

    def stats(self) -> ResilienceStats:
        """The accounting record for this run."""
        return ResilienceStats(
            offered=self.offered,
            completed=self.completed,
            failed=self.failed,
            retries=self.retries,
            hedges=self.hedges,
            wasted_attempts=self.wasted_attempts,
            degraded_completions=self.degraded_completions,
            time_in_degraded_s=self.time_in_degraded_s,
            duration_s=self.duration_s,
            throughput_qps=self.throughput_qps(),
            goodput_qps=self.goodput_qps(),
        )


class ResilientRouter:
    """Fleet-level DES with fault injection and resilience policies.

    M replicas of one model behind a router; Poisson query arrivals;
    faults from a :class:`FaultSchedule`; timeouts, retries, hedging,
    health checks and graceful degradation from the policies. Two runs
    with identical arguments are byte-identical.

    Args:
        server: machine generation (all replicas identical).
        config: the model each replica serves.
        batch_size: items per query.
        num_machines: replica count.
        policy: resilience knobs (default: none — the pre-fault stack).
        degradation: graceful-degradation knobs (default: never degrade).
        overload: overload-protection bundle
            (:class:`~repro.serving.overload.OverloadConfig`): bounded
            admission with shedding, per-replica circuit breakers that
            retries and hedges respect, and SLO-aware brownout through
            quality tiers. ``None`` (the default) reproduces the
            unprotected run byte for byte.
        routing: load-balancing policy (:data:`repro.serving.router.POLICIES`).
        seed: RNG seed for arrivals and service noise. The fault stream is
            seeded separately inside :func:`fault_storm`, so policy
            comparisons can share one storm.
        tracer: optional :class:`~repro.obs.tracer.Tracer`. Records
            ``serving.router.request`` spans on a client track with
            ``serving.router.attempt`` children on per-machine tracks, plus
            instants for retries, hedges, timeouts, fail-fasts, crashes and
            restarts — all on the DES clock. The default nil tracer records
            nothing and tracing never perturbs the run.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`
            filled at the end of every :meth:`run` (counters, latency
            histogram, degraded-time gauge).
        metrics_labels: labels attached to every series this router
            records (e.g. ``{"policy": "retry2"}`` to compare policies in
            one registry).

    :meth:`run` is one event loop that keeps fleet state (queue depths,
    admitted set, tripped breakers) as incrementally maintained
    aggregates, so most events cost O(1) at any fleet size; only health
    probes, candidate-list rebuilds after an ejection or readmission, and
    routing around tripped breakers scan the fleet.
    """

    def __init__(
        self,
        server: ServerSpec,
        config: ModelConfig,
        batch_size: int,
        num_machines: int,
        policy: ResiliencePolicy | None = None,
        degradation: DegradationPolicy | None = None,
        overload: "OverloadConfig | None" = None,
        routing: str = "jsq2",
        seed: int = 0,
        tracer: Tracer | NullTracer | None = None,
        metrics: MetricsRegistry | None = None,
        metrics_labels: dict[str, str] | None = None,
    ) -> None:
        if _integer("num_machines", num_machines) < 1:
            raise ValueError("need at least one machine")
        if routing not in POLICIES:
            raise ValueError(f"unknown policy {routing!r}; valid: {POLICIES}")
        _require_seed("ResilientRouter", seed)
        self.server = server
        self.config = config
        self.batch_size = batch_size
        self.num_machines = num_machines
        self.policy = policy or ResiliencePolicy.none()
        self.degradation = degradation
        self.overload = overload
        self.routing = routing
        self.seed = seed
        self.tracer = as_tracer(tracer)
        self.metrics = metrics
        self.metrics_labels = dict(metrics_labels or {})
        self._last_backend: str | None = None
        timing = TimingModel(server)
        base = timing.model_latency(config, batch_size)
        self._base_service_s = base.total_seconds
        #: Memory-bound share of an inference — the part a bandwidth fault
        #: stretches (SLS dominates DRAM traffic in the paper's profile).
        self._memory_fraction = base.fraction_by_op_type().get(OP_SLS, 0.0)
        if degradation is not None:
            degraded = degradation.degraded_config(config)
            self._degraded_service_s = timing.model_seconds(degraded, batch_size)
            self._quality = degraded_quality(config, degraded, seed=seed)
        else:
            self._degraded_service_s = self._base_service_s
            self._quality = None
        # Brownout tiers: per-tier service time and quality cost, priced
        # once up front. Index 0 is full quality.
        if overload is not None and overload.brownout is not None:
            tier_configs = [
                tier.degraded_config(config)
                for tier in overload.brownout.tiers
            ]
            self._tier_service_s = [self._base_service_s] + [
                timing.model_seconds(c, batch_size)
                for c in tier_configs
            ]
            self._brownout_quality = tuple(
                degraded_quality(config, c, seed=seed) for c in tier_configs
            )
        else:
            self._tier_service_s = [self._base_service_s]
            self._brownout_quality = None

    def max_stable_qps(self) -> float:
        """Arrival rate at 100% fleet utilization (no faults)."""
        return self.num_machines / self._base_service_s

    @property
    def last_backend(self) -> str | None:
        """Which loop the most recent :meth:`run` took.

        ``"native"`` (the C kernel) or ``"reference"`` (the Python loop);
        ``None`` before the first run.
        """
        return self._last_backend

    def _record_metrics(
        self,
        n_offered: int,
        completed: int,
        failed: int,
        retries: int,
        hedges: int,
        wasted_attempts: int,
        fail_fasts: int,
        ejections: int,
        degraded_completions: int,
        time_in_degraded_s: float,
        latencies: list[float],
        overload_stats: "OverloadStats | None" = None,
    ) -> None:
        """Publish one run's accounting into the attached registry."""
        registry = self.metrics
        assert registry is not None
        labels = self.metrics_labels
        if overload_stats is not None:
            registry.counter("serving.overload.offered", **labels).inc(
                overload_stats.offered
            )
            registry.counter("serving.overload.admitted", **labels).inc(
                overload_stats.admitted
            )
            for reason in sorted(overload_stats.shed_by_reason):
                registry.counter(
                    "serving.overload.shed", reason=reason, **labels
                ).inc(overload_stats.shed_by_reason[reason])
            registry.counter("serving.breaker.opens", **labels).inc(
                overload_stats.breaker_opens
            )
            registry.counter("serving.breaker.rejections", **labels).inc(
                overload_stats.breaker_rejections
            )
            registry.counter("serving.brownout.switches", **labels).inc(
                overload_stats.brownout_switches
            )
            registry.gauge("serving.brownout.max_tier", **labels).set(
                overload_stats.max_brownout_tier
            )
            registry.gauge("serving.queue.max_depth", **labels).set(
                overload_stats.max_queue_depth
            )
            registry.gauge("serving.overload.time_degraded_s", **labels).set(
                overload_stats.time_degraded_s
            )
        counts = {
            "serving.router.offered": n_offered,
            "serving.router.completed": completed,
            "serving.router.failed": failed,
            "serving.router.retries": retries,
            "serving.router.hedges": hedges,
            "serving.router.wasted_attempts": wasted_attempts,
            "serving.router.fail_fasts": fail_fasts,
            "serving.router.ejections": ejections,
            "serving.router.degraded_completions": degraded_completions,
        }
        for name, value in counts.items():
            registry.counter(name, **labels).inc(value)
        registry.gauge("serving.router.time_in_degraded_s", **labels).set(
            time_in_degraded_s
        )
        histogram = registry.histogram("serving.router.latency_s", **labels)
        for latency_s in latencies:
            histogram.observe(latency_s)

    # ------------------------------------------------------------------ run

    def run(
        self,
        offered_qps: float,
        duration_s: float = 1.0,
        faults: FaultSchedule | None = None,
        sla: SLA | None = None,
        arrival_times_s: Sequence[float] | None = None,
    ) -> FaultyServingResult:
        """Simulate ``duration_s`` of Poisson arrivals under ``faults``.

        ``arrival_times_s`` replaces the internal Poisson process with an
        explicit arrival trace (e.g. a flash crowd: the arrival times of a
        :class:`~repro.serving.loadgen.DiurnalLoadGenerator` with a
        :class:`~repro.serving.loadgen.LoadSpike`); every time must lie in
        ``[0, duration_s)``. ``offered_qps`` is then only the nominal rate
        recorded in the result.

        One event loop over O(1) fleet state: queue depths, candidate
        lists, waiting depths and brownout pressure are kept as
        incrementally maintained aggregates, and static events (arrivals,
        fault transitions, health probes) are pre-sorted once and merged
        against a heap of dynamic ones. The per-event loop in
        ``tests/oracles/resilient_router.py`` recomputes all of that with
        O(M) scans and one heap; it is the executable spec this loop is
        proven byte-identical to (``tests/test_des_equivalence.py``).

        The loop runs in the C kernel of :mod:`repro.serving._des_native`
        (``route_native``), a transliteration that draws from the same
        generator and returns the same result field for field, whenever
        the kernel loads and no tracer observes the run. Otherwise (no
        compiler, no ``libnpyrandom.a``, ``REPRO_DISABLE_NATIVE=1``, or a
        tracer attached) it runs in Python (``_run_python``). The choice
        is made after the arrival draws, which both share;
        :attr:`last_backend` records it.
        """
        if not (0 < offered_qps < math.inf and 0 < duration_s < math.inf):
            raise ValueError("rate and duration must be positive")
        faults = faults or FaultSchedule.zero()
        sla = sla or SLA(deadline_s=10.0 * self._base_service_s, percentile=0.99)
        rng = np.random.default_rng(self.seed)

        # Arrivals are materialized up front so the arrival stream is
        # independent of policy decisions (one storm, comparable policies).
        # Requests are numbered in trace order; the loops visit them in
        # time order (``arrival_t`` with ``arrival_id``).
        if arrival_times_s is None:
            arrival_t = poisson_arrival_times(rng, offered_qps, duration_s)
            arrival_id = np.arange(arrival_t.size, dtype=np.int64)
            request_arrival_s = arrival_t
        else:
            request_arrival_s = np.asarray(
                [float(t_s) for t_s in arrival_times_s], dtype=np.float64
            )
            if request_arrival_s.size and (
                not np.all(request_arrival_s >= 0.0)
                or not np.all(request_arrival_s < duration_s)
            ):
                raise ValueError("arrival times must lie in [0, duration_s)")
            order = np.argsort(request_arrival_s, kind="stable")
            arrival_t = request_arrival_s[order]
            arrival_id = order.astype(np.int64)
        transitions = faults.transition_events(self.num_machines)

        args = (
            rng, offered_qps, duration_s, faults, sla,
            arrival_t, arrival_id, request_arrival_s, transitions,
        )
        if not self.tracer.enabled and native_available():
            self._last_backend = "native"
            result = route_native(self, *args)
        else:
            self._last_backend = "reference"
            result = self._run_python(*args)
        if self.metrics is not None:
            self._record_metrics(
                n_offered=result.offered,
                completed=result.completed,
                failed=result.failed,
                retries=result.retries,
                hedges=result.hedges,
                wasted_attempts=result.wasted_attempts,
                fail_fasts=result.fail_fasts,
                ejections=result.ejections,
                degraded_completions=result.degraded_completions,
                time_in_degraded_s=result.time_in_degraded_s,
                latencies=result.latencies_s.tolist(),
                overload_stats=result.overload,
            )
        return result

    def _run_python(
        self,
        rng: np.random.Generator,
        offered_qps: float,
        duration_s: float,
        faults: FaultSchedule,
        sla: SLA,
        arrival_t: np.ndarray,
        arrival_id: np.ndarray,
        request_arrival_s: np.ndarray,
        transitions: list[tuple[float, int, bool]],
    ) -> FaultyServingResult:
        """The Python event loop of :meth:`run` (see there)."""
        policy = self.policy
        num_machines = self.num_machines

        # Overload protection: admission bound + CoDel per machine, one
        # circuit breaker per machine, one brownout controller. All are
        # None when unconfigured, and every branch below that touches them
        # is skipped — the unprotected run is byte-identical.
        overload = self.overload
        admission = overload.admission if overload is not None else None
        expected_service_s = self._base_service_s
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

        attempts: list = []
        up = [True] * num_machines
        admitted_flags = [True] * num_machines
        running: list[int | None] = [None] * num_machines
        queues: list[deque] = [deque() for _ in range(num_machines)]
        rr_state = [0]

        # Incremental fleet aggregates (the spec recomputes these with
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

        # Observability: request spans live on a dedicated client track,
        # attempt spans on per-machine tracks. Everything below is guarded
        # by ``tracer.enabled`` and touches neither the RNG nor the event
        # queue, so the nil tracer reproduces the untraced run exactly.
        tracer = self.tracer
        client_track = num_machines
        request_span: dict[int, int] = {}
        attempt_span: dict[int, int] = {}
        if tracer.enabled:
            tracer.set_track_name(client_track, "client")
            for m in range(num_machines):
                tracer.set_track_name(m, f"machine {m}")

        # ---- static event streams (pre-sorted; merged against a lazy heap) --
        requests = [_Request(t_s) for t_s in request_arrival_s.tolist()]
        arr_t_list: list[float] = arrival_t.tolist()
        arr_id_list: list[int] = arrival_id.tolist()
        # Routing draws share the generator with the service noise; the stream
        # opens once the arrivals are drawn and closes after the loop.
        draws = RoutingDraws(rng)

        fault_t: list[float] = [e[0] for e in transitions]
        fault_machine: list[int] = [e[1] for e in transitions]
        fault_down: list[bool] = [e[2] for e in transitions]

        probe_ts: list[float] = []
        if policy.health_check_interval_s is not None:
            probe_t_s = policy.health_check_interval_s
            horizon_s = duration_s + 10.0 * self._base_service_s
            while probe_t_s < horizon_s:
                probe_ts.append(probe_t_s)
                probe_t_s += policy.health_check_interval_s

        # Dynamic events: (t_s, dseq, kind, a, b). In the spec's single heap
        # all static events carry lower seqs than any dynamic push, and
        # within the statics arrivals < faults < health probes; the <=
        # comparisons below encode exactly that tie order.
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
            """Evaluate + account the degraded-mode state at ``now_s``."""
            nonlocal degraded_on, degraded_since_s, time_in_degraded_s
            if self.degradation is None:
                return False
            healthy_frac = n_admitted / num_machines
            mean_depth = (
                adm_depth_sum / n_admitted if n_admitted else float("inf")
            )
            on = (
                healthy_frac < self.degradation.min_healthy_fraction
                or mean_depth >= self.degradation.queue_depth_trigger
            )
            if on and not degraded_on:
                degraded_since_s = now_s
            elif not on and degraded_on:
                time_in_degraded_s += now_s - degraded_since_s
            degraded_on = on
            return on

        def start_next(machine: int, now_s: float) -> None:
            """Dispatch the machine's queue head, skipping dead attempts."""
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
                        # Standing queue: CoDel sheds the head-of-line
                        # request to drain delay, not just length.
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
                    self._degraded_service_s
                    if request.degraded
                    else self._tier_service_s[request.tier]
                )
                multiplier = faults.service_multiplier(
                    machine, now_s, self._memory_fraction
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
            """Route one attempt; fail fast when no healthy target exists."""
            nonlocal fail_fasts
            request = requests[request_id]
            if request.done or request.failed:
                return
            if ovl_stats is not None:
                ovl_stats.offered += 1
            cands = candidates()
            if breakers is not None and cands:
                # Retries and hedges route through here too, so every
                # attempt respects open breakers.
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
                self.routing, draws, depth, rr_state, candidates=cands
            )
            if not up[machine]:
                # Connection refused: passive health detection.
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
                    # Shed arrivals that cannot meet the deadline given
                    # the queue already ahead of them: the work is dead
                    # on arrival, serving it only delays live requests.
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
            """An attempt died; retry with backoff or fail the request."""
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
                if ai >= n_arr:
                    break  # every head is inf: nothing left fires
                now_s = t_a
                request_id = arr_id_list[ai]
                ai += 1
                kind, a, b = _EV_ARRIVAL, request_id, 0
            elif t_f <= t_h and t_f <= t_d:
                now_s = t_f
                kind, a, b = _EV_FAULT, fault_machine[fi], int(fault_down[fi])
                fi += 1
            elif t_h <= t_d:
                now_s = t_h
                hi += 1
                kind, a, b = _EV_HEALTH, 0, 0
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
                    # Abandoned by a timeout but ran to completion anyway:
                    # the occupancy was real, the response is discarded.
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
                # The client abandons this attempt. Queued work is dropped;
                # in-flight work cannot be yanked back — it keeps occupying
                # the machine and completes as waste (see _EV_COMPLETE).
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

            elif kind == _EV_FAULT:
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
                    # Queued work fails fast (connection reset).
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

            else:  # _EV_HEALTH
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
        # Unresolved requests at drain end (e.g. waiting forever on a down
        # replica with no timeout) are neither completed nor failed; they
        # count against availability via ``offered``.
        if tracer.enabled and tracer.open_spans():
            tracer.close_all(max(now_s, duration_s), outcome="unresolved")
        return FaultyServingResult(
            policy=policy,
            num_machines=num_machines,
            offered_qps=offered_qps,
            duration_s=duration_s,
            sla=sla,
            latencies_s=np.asarray(latencies, dtype=np.float64),
            offered=len(requests),
            failed=failed,
            retries=retries,
            hedges=hedges,
            wasted_attempts=wasted_attempts,
            fail_fasts=fail_fasts,
            ejections=ejections,
            degraded_completions=degraded_completions,
            time_in_degraded_s=time_in_degraded_s,
            quality=self._quality,
            overload=ovl_stats,
            brownout_quality=(
                self._brownout_quality if brownout is not None else None
            ),
        )
