"""Overload protection: admission control, load shedding, circuit breaking,
and SLO-aware brownout for the serving simulators.

The paper's serving story is latency-bounded throughput (Section III,
Figures 10-11): past the knee of the latency/throughput frontier, every
additional queued request is a request that will miss its SLA *and* delay
everyone behind it. The fault layer (:mod:`repro.serving.faults`) hardened
the stack against component failure; this module hardens it against
*traffic* — the flash crowds, retry storms and diurnal peaks that drive an
unprotected queue to unbounded length and p99 to infinity.

Four composable mechanisms, all declarative policies interpreted by the
simulators on their own event clocks (two runs with the same seeds are
byte-identical, and ``overload=None`` reproduces the unprotected run
record for record):

* **Admission control** (:class:`AdmissionPolicy`) — bounded queues with a
  shed policy: ``reject_newest`` (classic tail drop), ``reject_oldest``
  (LIFO-drain: shed the request that has already waited longest, since it
  is the most likely to be abandoned upstream), or ``deadline_aware``
  (drop arrivals that cannot meet their deadline given the current queue
  delay — shedding work that is already dead). Optionally a CoDel-style
  controller (:class:`CoDelController`) sheds at dequeue time whenever
  queue *sojourn* stays above a target for a full interval, which bounds
  standing-queue delay even when the queue never fills.
* **Circuit breaking** (:class:`BreakerPolicy` / :class:`CircuitBreaker`)
  — a per-replica closed → open → half-open state machine fed by
  timeout/failure events. Routing (including retries and hedges from
  :class:`~repro.serving.faults.ResiliencePolicy`) treats open breakers
  as inadmissible, so a struggling replica stops receiving traffic until
  a half-open probe proves it healthy again.
* **Brownout** (:class:`BrownoutPolicy` / :class:`BrownoutController`) —
  an SLO-aware feedback controller that, under sustained queue pressure,
  steps the service down a ladder of quality tiers (truncated sparse
  lookups, the same transform as
  :class:`~repro.serving.faults.DegradationPolicy`) and steps back up on
  recovery. Each tier's recall/NDCG cost is priced by
  :func:`~repro.serving.faults.degraded_quality`, exporting the
  quality/goodput tradeoff instead of hiding it.
* **Backpressure** — a bounded queue turns "absorb unbounded work" into
  an explicit refusal: the router's admission sheds reach the client as
  failed attempts its retry policy can back off on.

Accounting lives in :class:`OverloadStats`; the conservation invariant
every protected run must satisfy is checked by
:func:`repro.serving.metrics.check_conservation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from ..config.model_config import ModelConfig
from ..data.sparse import _integer
from .loadgen import _require_finite

__all__ = [
    "SHED_POLICIES",
    "SHED_QUEUE_FULL",
    "SHED_OLDEST",
    "SHED_DEADLINE",
    "SHED_CODEL",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "AdmissionPolicy",
    "BreakerPolicy",
    "BrownoutPolicy",
    "BrownoutTier",
    "CircuitBreaker",
    "CoDelController",
    "OverloadConfig",
    "OverloadStats",
    "default_brownout_tiers",
    "truncate_lookups",
]

#: Admission shed policies: what a full queue does with the overflow.
SHED_POLICIES = ("reject_newest", "reject_oldest", "deadline_aware")

#: Shed reasons (stable keys in :class:`OverloadStats.shed_by_reason`).
SHED_QUEUE_FULL = "queue_full"
SHED_OLDEST = "oldest_dropped"
SHED_DEADLINE = "deadline_hopeless"
SHED_CODEL = "codel_sojourn"

#: Circuit-breaker states.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


# ------------------------------------------------------------- admission


@dataclass(frozen=True)
class AdmissionPolicy:
    """Bounded-queue admission control for one serving queue.

    Attributes:
        queue_capacity: maximum *waiting* requests per queue (the running
            request does not count). Arrivals beyond it are shed per
            ``shed_policy``.
        shed_policy: one of :data:`SHED_POLICIES`. ``reject_newest`` sheds
            the arrival; ``reject_oldest`` sheds the longest-waiting
            queued request and admits the arrival (fresh work is the most
            likely to still matter upstream); ``deadline_aware``
            additionally sheds any arrival whose projected completion
            (queue delay + service) already misses ``deadline_s``.
        deadline_s: latency budget used by ``deadline_aware`` shedding
            (typically the SLA deadline). Required for that policy.
        codel_target_s: target queue sojourn for the CoDel controller;
            ``None`` disables CoDel.
        codel_interval_s: CoDel evaluation interval (sojourn must exceed
            the target for this long before dropping starts; 100 ms is
            the classic default, scale it to the service time here).
    """

    queue_capacity: int = 16
    shed_policy: str = "reject_newest"
    deadline_s: float | None = None
    codel_target_s: float | None = None
    codel_interval_s: float = 0.1

    def __post_init__(self) -> None:
        if _integer("queue_capacity", self.queue_capacity) < 1:
            raise ValueError("queue_capacity must be positive")
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shed policy {self.shed_policy!r}; "
                f"valid: {SHED_POLICIES}"
            )
        if self.shed_policy == "deadline_aware" and self.deadline_s is None:
            raise ValueError("deadline_aware shedding needs deadline_s")
        _require_finite(
            "AdmissionPolicy",
            deadline_s=self.deadline_s,
            codel_target_s=self.codel_target_s,
            codel_interval_s=self.codel_interval_s,
        )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if self.codel_target_s is not None and self.codel_target_s <= 0:
            raise ValueError("codel_target_s must be positive")
        if self.codel_interval_s <= 0:
            raise ValueError("codel_interval_s must be positive")

    def make_codel(self) -> "CoDelController | None":
        """A fresh CoDel controller, or ``None`` when CoDel is disabled."""
        if self.codel_target_s is None:
            return None
        return CoDelController(self.codel_target_s, self.codel_interval_s)


class CoDelController:
    """CoDel ("Controlled Delay") adapted from AQM to request queues.

    Tracks queue *sojourn time* observed at dequeue. When sojourn stays
    above ``target_s`` for a full ``interval_s``, the controller enters a
    dropping state and sheds the head-of-line request, then again after
    ``interval_s / sqrt(drop_count)`` — the classic control law whose drop
    rate accelerates until the standing queue drains. Any dequeue whose
    sojourn is back under target exits the dropping state.

    Unlike a size bound, CoDel bounds *delay*: a queue that is short but
    draining slowly (a straggling replica) still triggers it.
    """

    def __init__(self, target_s: float, interval_s: float) -> None:
        if target_s <= 0 or interval_s <= 0:
            raise ValueError("CoDel target and interval must be positive")
        self.target_s = target_s
        self.interval_s = interval_s
        self._first_above_s: float | None = None
        self._dropping = False
        self._drop_next_s = 0.0
        self.drop_count = 0

    def on_dequeue(self, sojourn_s: float, now_s: float) -> bool:
        """Feed one dequeue's sojourn; True means shed this request."""
        if sojourn_s < self.target_s:
            self._first_above_s = None
            self._dropping = False
            return False
        if self._dropping:
            if now_s >= self._drop_next_s:
                self.drop_count += 1
                self._drop_next_s = now_s + self.interval_s / math.sqrt(
                    self.drop_count
                )
                return True
            return False
        if self._first_above_s is None:
            self._first_above_s = now_s + self.interval_s
            return False
        if now_s >= self._first_above_s:
            self._dropping = True
            self.drop_count += 1
            self._drop_next_s = now_s + self.interval_s / math.sqrt(
                self.drop_count
            )
            return True
        return False


# --------------------------------------------------------------- breaker


@dataclass(frozen=True)
class BreakerPolicy:
    """Per-replica circuit-breaker tuning.

    Attributes:
        failure_threshold: failures within ``window_s`` that trip the
            breaker from closed to open.
        window_s: sliding window over which failures are counted.
        open_duration_s: how long an open breaker rejects traffic before
            transitioning to half-open.
        half_open_probes: requests admitted in half-open state; one
            success closes the breaker, one failure re-opens it.
    """

    failure_threshold: int = 5
    window_s: float = 0.1
    open_duration_s: float = 0.2
    half_open_probes: int = 1

    def __post_init__(self) -> None:
        if _integer("failure_threshold", self.failure_threshold) < 1:
            raise ValueError("failure_threshold must be positive")
        _require_finite(
            "BreakerPolicy",
            window_s=self.window_s,
            open_duration_s=self.open_duration_s,
        )
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")
        if self.open_duration_s <= 0:
            raise ValueError("open_duration_s must be positive")
        if _integer("half_open_probes", self.half_open_probes) < 1:
            raise ValueError("half_open_probes must be positive")


class CircuitBreaker:
    """Closed → open → half-open state machine on the DES clock.

    The router feeds it ``record_failure`` (timeouts, fail-fasts, crash
    kills) and ``record_success`` (completions); routing calls
    :meth:`allows` to filter candidates and :meth:`note_probe` when it
    actually sends a half-open probe. Deterministic: state depends only on
    the event sequence, never on an RNG.
    """

    def __init__(self, policy: BreakerPolicy) -> None:
        self.policy = policy
        self.state = BREAKER_CLOSED
        self.opens = 0
        self._failure_times_s: list[float] = []
        self._opened_at_s = 0.0
        self._probes_in_flight = 0

    def _trip(self, now_s: float) -> None:
        self.state = BREAKER_OPEN
        self.opens += 1
        self._opened_at_s = now_s
        self._failure_times_s.clear()
        self._probes_in_flight = 0

    def allows(self, now_s: float) -> bool:
        """Whether routing may target this replica at ``now_s``."""
        if self.state == BREAKER_OPEN:
            if now_s - self._opened_at_s >= self.policy.open_duration_s:
                self.state = BREAKER_HALF_OPEN
                self._probes_in_flight = 0
            else:
                return False
        if self.state == BREAKER_HALF_OPEN:
            return self._probes_in_flight < self.policy.half_open_probes
        return True

    def note_probe(self) -> None:
        """Record that a half-open probe request was actually dispatched."""
        if self.state == BREAKER_HALF_OPEN:
            self._probes_in_flight += 1

    def record_success(self, now_s: float) -> None:
        """A request on this replica completed."""
        if self.state == BREAKER_HALF_OPEN:
            self.state = BREAKER_CLOSED
            self._failure_times_s.clear()
            self._probes_in_flight = 0
        elif self.state == BREAKER_CLOSED and self._failure_times_s:
            cutoff_s = now_s - self.policy.window_s
            self._failure_times_s = [
                t_s for t_s in self._failure_times_s if t_s > cutoff_s
            ]

    def record_failure(self, now_s: float) -> None:
        """A request on this replica timed out, failed fast, or was killed."""
        if self.state == BREAKER_HALF_OPEN:
            self._trip(now_s)
            return
        if self.state == BREAKER_OPEN:
            return
        cutoff_s = now_s - self.policy.window_s
        self._failure_times_s = [
            t_s for t_s in self._failure_times_s if t_s > cutoff_s
        ]
        self._failure_times_s.append(now_s)
        if len(self._failure_times_s) >= self.policy.failure_threshold:
            self._trip(now_s)


# ----------------------------------------------------- degraded models


def _check_lookup_cap(max_lookups_per_table) -> None:
    if _integer("max_lookups_per_table", max_lookups_per_table) < 1:
        raise ValueError("max_lookups_per_table must be positive")


def truncate_lookups(config: ModelConfig, max_lookups_per_table: int) -> ModelConfig:
    """A copy of ``config`` with per-table sparse lookups capped.

    Pooling fewer sparse IDs cuts SLS time (the memory-bound share)
    roughly linearly at a bounded quality cost — the classic
    recommendation degraded mode.
    """
    _check_lookup_cap(max_lookups_per_table)
    tables = tuple(
        replace(t, lookups_per_sample=min(t.lookups_per_sample, max_lookups_per_table))
        for t in config.embedding_tables
    )
    return ModelConfig(
        name=f"{config.name}-trunc{max_lookups_per_table}",
        model_class=config.model_class,
        dense_features=config.dense_features,
        bottom_mlp=config.bottom_mlp,
        embedding_tables=tables,
        top_mlp=config.top_mlp,
        dtype=config.dtype,
        interaction=config.interaction,
    )


# -------------------------------------------------------------- brownout


@dataclass(frozen=True)
class BrownoutTier:
    """One rung of the brownout quality ladder: the primary config with
    sparse lookups truncated to ``max_lookups_per_table``.

    The same model transform as
    :class:`~repro.serving.faults.DegradationPolicy`, minus the trigger
    logic (the :class:`BrownoutController` owns when to engage).
    """

    name: str
    max_lookups_per_table: int

    def __post_init__(self) -> None:
        _check_lookup_cap(self.max_lookups_per_table)

    def degraded_config(self, primary: ModelConfig) -> ModelConfig:
        """The model served on this rung."""
        return truncate_lookups(primary, self.max_lookups_per_table)


def default_brownout_tiers(
    config: ModelConfig, lookup_caps: tuple[int, ...] = (8, 2)
) -> tuple[BrownoutTier, ...]:
    """A lookup-truncation ladder for ``config`` (mild → aggressive).

    Each cap must be strictly decreasing so every rung is strictly
    cheaper than the one above it.
    """
    if not lookup_caps:
        raise ValueError("need at least one lookup cap")
    if any(b >= a for a, b in zip(lookup_caps, lookup_caps[1:])):
        raise ValueError("lookup caps must be strictly decreasing")
    return tuple(
        BrownoutTier(name=f"trunc{cap}", max_lookups_per_table=cap)
        for cap in lookup_caps
    )


@dataclass(frozen=True)
class BrownoutPolicy:
    """SLO-aware brownout: step down the quality ladder under pressure.

    The pressure signal is mean queue depth across admitted replicas —
    the same signal :class:`~repro.serving.faults.DegradationPolicy`
    triggers on, but driven through a multi-tier ladder with hysteresis
    instead of a single on/off switch.

    Attributes:
        tiers: the quality ladder, mildest first. Tier 0 (implicit) is
            full quality; tier ``k`` serves ``tiers[k-1]``.
        step_up_depth: mean queue depth at or above which the controller
            degrades one tier further.
        step_down_depth: mean queue depth at or below which it recovers
            one tier. Must be below ``step_up_depth`` (hysteresis band).
        dwell_s: minimum time between tier changes, so one bursty sample
            cannot thrash the ladder.
    """

    tiers: tuple[BrownoutTier, ...]
    step_up_depth: float = 6.0
    step_down_depth: float = 1.0
    dwell_s: float = 0.05

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ValueError("brownout needs at least one tier")
        if self.step_up_depth <= 0:
            raise ValueError("step_up_depth must be positive")
        if not 0.0 <= self.step_down_depth < self.step_up_depth:
            raise ValueError(
                "step_down_depth must be in [0, step_up_depth) for hysteresis"
            )
        # Not _require_finite: an infinite dwell (one switch, then hold)
        # is a usable setting; a nan one is never enforced.
        if not self.dwell_s >= 0:
            raise ValueError(
                f"BrownoutPolicy.dwell_s must be non-negative, got {self.dwell_s!r}"
            )

    @property
    def num_tiers(self) -> int:
        """Ladder length including the implicit full-quality tier 0."""
        return len(self.tiers) + 1


class BrownoutController:
    """Feedback controller walking the brownout ladder on the DES clock.

    One step per :meth:`update` at most, rate-limited by ``dwell_s``:
    pressure at/above ``step_up_depth`` degrades one tier, pressure
    at/below ``step_down_depth`` recovers one. Deterministic and
    RNG-free.
    """

    def __init__(self, policy: BrownoutPolicy) -> None:
        self.policy = policy
        self.tier = 0
        self.switches = 0
        self._last_change_s = -math.inf
        #: Per-tier occupancy accounting (index 0 = full quality).
        self.time_in_tier_s = [0.0] * policy.num_tiers
        self._entered_tier_s = 0.0

    def update(self, now_s: float, pressure_depth: float) -> int:
        """Advance the controller; returns the tier for new arrivals."""
        policy = self.policy
        if now_s - self._last_change_s < policy.dwell_s:
            return self.tier
        new_tier = self.tier
        if pressure_depth >= policy.step_up_depth and self.tier < len(policy.tiers):
            new_tier = self.tier + 1
        elif pressure_depth <= policy.step_down_depth and self.tier > 0:
            new_tier = self.tier - 1
        if new_tier != self.tier:
            self.time_in_tier_s[self.tier] += now_s - self._entered_tier_s
            self._entered_tier_s = now_s
            self._last_change_s = now_s
            self.tier = new_tier
            self.switches += 1
        return self.tier

    def finish(self, horizon_s: float) -> None:
        """Close the occupancy accounting at the end of the run."""
        self.time_in_tier_s[self.tier] += max(
            0.0, horizon_s - self._entered_tier_s
        )
        self._entered_tier_s = horizon_s


# ------------------------------------------------------------- composite


@dataclass(frozen=True)
class OverloadConfig:
    """The composable overload-protection bundle a simulator accepts.

    Every mechanism defaults off; ``OverloadConfig()`` with all three
    ``None`` is equivalent to passing ``overload=None`` (the historical,
    unprotected behaviour, bit-identical).
    """

    admission: AdmissionPolicy | None = None
    breaker: BreakerPolicy | None = None
    brownout: BrownoutPolicy | None = None

    @property
    def is_noop(self) -> bool:
        """True when no mechanism is configured."""
        return (
            self.admission is None
            and self.breaker is None
            and self.brownout is None
        )


@dataclass
class OverloadStats:
    """Accounting record of one overload-protected run.

    ``shed_by_reason`` keys are the ``SHED_*`` constants; ``shed`` is
    their sum. ``time_in_tier_s[0]`` is full-quality time, so the list
    always sums to (approximately) the run duration when brownout is
    configured.
    """

    offered: int = 0
    admitted: int = 0
    shed_by_reason: dict[str, int] = field(default_factory=dict)
    breaker_rejections: int = 0
    breaker_opens: int = 0
    brownout_switches: int = 0
    max_brownout_tier: int = 0
    time_in_tier_s: list[float] = field(default_factory=list)
    completions_by_tier: list[int] = field(default_factory=list)
    max_queue_depth: int = 0

    @property
    def shed(self) -> int:
        """Total requests shed, across every reason."""
        return sum(self.shed_by_reason.values())

    def count_shed(self, reason: str) -> None:
        """Record one shed event under ``reason``."""
        self.shed_by_reason[reason] = self.shed_by_reason.get(reason, 0) + 1

    @property
    def time_degraded_s(self) -> float:
        """Total time spent below full quality (tiers >= 1)."""
        return float(sum(self.time_in_tier_s[1:]))
