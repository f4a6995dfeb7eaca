"""Heterogeneous multi-model serving: residency, swaps, and a model-aware
router.

The paper's fleet (Section II, Figure 1) serves RMC1/RMC2/RMC3 side by
side on mixed server generations; Hsia et al. (arXiv:2010.05037) show the
per-model traffic mix and cross-model interference dominate at-scale
behaviour. Everything before this module simulated one model class per
run. Here a replica's DRAM is carved into *slots*, each big enough to
hold any registered model's embedding tables resident
(:class:`MultiModelPool`), and a fleet-level router
(:class:`MultiModelRouter`) dispatches a mixed arrival stream across a
heterogeneous replica pool.

Three mechanisms, all deterministic on the DES clock:

* **Residency accounting** — each replica holds
  ``dram_capacity_bytes * dram_headroom`` of usable DRAM, validated
  through :func:`~repro.serving.distributed.min_shards_for_capacity`
  (every registered model must fit a single replica un-sharded). Slots
  are uniformly sized to the largest registered model, so any model can
  load into any free slot. A model swap costs its embedding-table bytes
  at the replica's DRAM bandwidth, stretched by any active bandwidth
  fault.
* **Drain-before-swap guard** — the router takes slots through three
  pool calls. A hit is :meth:`MultiModelPool.idle_resident_slot` then
  :meth:`MultiModelPool.begin_service`; a load is
  :meth:`MultiModelPool.acquire_for_load`, which starts a table load
  into an empty or *idle* slot only; a drain is
  :meth:`MultiModelPool.claim_drain` then
  :meth:`MultiModelPool.start_pending_load`. A slot that is busy serving
  another model is never reassigned; at most it is claimed, which stops
  new dispatches and swaps only after the in-flight request drains.
  ``begin_service`` is the guard's hard edge: dispatching a model to a
  slot resident with a different one raises.
* **Model-aware routing with head-of-line rotation** — arrivals go to
  the least-loaded replica among those with affinity for the model
  (resident, loading, or drain-pending), falling back to the least
  loaded overall. At dispatch the per-replica queue is scanned (bounded
  window) for the first request whose model is already resident in an
  idle slot, so one cold model does not head-of-line-block warm traffic;
  a per-request skip cap bounds how often the queue head may be bypassed
  before it locks the queue and forces its swap.

One event loop drives the DES: a single heap holds arrivals, fault
transitions, completions and load-dones, and service noise is drawn one
scalar lognormal at a time. Overload protection is admission-only here,
mirroring :class:`~repro.serving.simulator.ServingSimulator`: circuit
breakers and brownout stay router-per-model concerns
(:class:`~repro.serving.faults.ResilientRouter`).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from ..config.model_config import ModelConfig
from ..core.operators.base import OP_SLS
from ..data.sparse import _integer
from ..hw.server import ServerSpec
from ..hw.timing import TimingModel
from ..obs.quantiles import quantile
from ..obs.tracer import as_tracer
from .distributed import min_shards_for_capacity
from .loadgen import _require_finite, _require_seed
from .overload import (
    SHED_CODEL,
    SHED_DEADLINE,
    SHED_OLDEST,
    SHED_QUEUE_FULL,
    OverloadConfig,
    OverloadStats,
)
from .router import SERVICE_NOISE_SIGMA

__all__ = [
    "SLOT_EMPTY",
    "SLOT_LOADING",
    "SLOT_RESIDENT",
    "MultiModelPool",
    "MultiModelResult",
    "MultiModelRouter",
]

#: Slot lifecycle states (``draining`` is a flag on a busy resident slot).
SLOT_EMPTY = 0
SLOT_LOADING = 1
SLOT_RESIDENT = 2

# Dynamic DES event kinds (the event loop tags arrivals -1 and fault
# transitions -2).
_EV_COMPLETE = 0
_EV_LOAD_DONE = 1

_NO_MODEL = -1


class _Slot:
    """One residency slot on one replica (mutable DES state)."""

    __slots__ = (
        "state",
        "model",
        "busy",
        "draining",
        "pending_model",
        "loaded_at_s",
        "last_used_s",
    )

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.state = SLOT_EMPTY
        self.model = _NO_MODEL
        self.busy = False
        self.draining = False
        self.pending_model = _NO_MODEL
        self.loaded_at_s = 0.0
        self.last_used_s = 0.0


@dataclass(frozen=True)
class _LoadStart:
    """What one accepted table load looks like to the caller."""

    slot: int
    swap_base_s: float
    evicted_model: int
    thrash: bool


class MultiModelPool:
    """Slot-based residency pool over a heterogeneous replica set.

    Each replica's usable DRAM (``dram_capacity_bytes * dram_headroom``)
    is divided into uniform slots sized to the largest registered model,
    so any model can occupy any slot. The pool owns all residency state
    and its accounting: per-model slot counters, swap and thrash
    counters, and time-integrated occupancy. It never touches an RNG —
    every transition is a deterministic function of the call sequence.

    Args:
        replicas: one :class:`~repro.hw.server.ServerSpec` per replica
            (generations may differ — that is the point).
        models: the model classes this pool may serve. Every model must
            fit a single replica un-sharded
            (:func:`~repro.serving.distributed.min_shards_for_capacity`
            must return 1), otherwise sharded serving
            (:mod:`repro.serving.distributed`) is the right layer.
        dram_headroom: fraction of DRAM usable for embedding tables
            (validated by ``min_shards_for_capacity``).
        slots_per_replica: residency slots per replica; ``None`` derives
            the capacity bound ``budget_bytes // slot_bytes``. Explicit
            values beyond a replica's capacity raise.
        thrash_window_s: a swap evicting a model loaded into that slot
            less than this long ago counts as *thrash* (the pool is
            churning, not converging). ``None`` derives eight times the
            slowest swap.
    """

    def __init__(
        self,
        replicas: tuple[ServerSpec, ...] | list[ServerSpec],
        models: tuple[ModelConfig, ...] | list[ModelConfig],
        dram_headroom: float = 0.8,
        slots_per_replica: int | None = None,
        thrash_window_s: float | None = None,
    ) -> None:
        if not replicas:
            raise ValueError("need at least one replica")
        if not models:
            raise ValueError("need at least one model")
        names = [config.name for config in models]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate model names in pool: {names}")
        self.replicas = tuple(replicas)
        self.models = tuple(models)
        self.model_names = tuple(names)
        self.dram_headroom = dram_headroom
        self.resident_bytes = tuple(
            config.embedding_storage_bytes() for config in models
        )
        for config in self.models:
            for server in set(self.replicas):
                shards = min_shards_for_capacity(config, server, dram_headroom)
                if shards != 1:
                    raise ValueError(
                        f"model {config.name!r} needs {shards} shards on "
                        f"{server.name}; a residency pool holds whole "
                        "models only (shard it via serving.distributed)"
                    )
        self.slot_bytes = max(self.resident_bytes)
        self.num_slots: tuple[int, ...] = tuple(
            self._slot_count(server, slots_per_replica)
            for server in self.replicas
        )
        # Swap cost: embedding tables stream in at DRAM bandwidth.
        self.swap_base_s = [
            [bytes_ / server.dram_bw_bytes_per_s for bytes_ in self.resident_bytes]
            for server in self.replicas
        ]
        if thrash_window_s is None:
            thrash_window_s = 8.0 * max(max(row) for row in self.swap_base_s)
        _require_finite("MultiModelPool", thrash_window_s=thrash_window_s)
        if thrash_window_s <= 0:
            raise ValueError("thrash window must be positive")
        self.thrash_window_s = thrash_window_s
        self.reset()

    def _slot_count(self, server: ServerSpec, requested: int | None) -> int:
        budget_bytes = int(server.dram_capacity_bytes * self.dram_headroom)
        capacity = budget_bytes // self.slot_bytes
        if requested is None:
            return max(1, int(capacity))
        if _integer("slots_per_replica", requested) < 1:
            raise ValueError("slots_per_replica must be positive")
        if requested > capacity:
            raise ValueError(
                f"slots_per_replica={requested} exceeds {server.name}'s "
                f"capacity of {capacity} slots of {self.slot_bytes} bytes"
            )
        return requested

    # ------------------------------------------------------------- state

    @property
    def num_replicas(self) -> int:
        return len(self.replicas)

    @property
    def total_slots(self) -> int:
        return sum(self.num_slots)

    def reset(self) -> None:
        """Fresh run: all slots empty, counters and integrals zeroed."""
        self._slots: list[list[_Slot]] = [
            [_Slot() for _ in range(n)] for n in self.num_slots
        ]
        self.loads = 0
        self.swaps = 0
        self.thrash = 0
        self.loads_by_model = [0] * len(self.models)
        self.swaps_by_model = [0] * len(self.models)
        self._n_resident = 0
        self._n_loading = 0
        self._n_draining = 0
        self._n_busy = 0
        self._clock_s = 0.0
        self.resident_slot_s = 0.0
        self.loading_slot_s = 0.0
        self.draining_slot_s = 0.0
        self.busy_slot_s = 0.0

    def slot(self, replica: int, slot: int) -> _Slot:
        return self._slots[replica][slot]

    def _integrate(self, now_s: float) -> None:
        dt_s = now_s - self._clock_s
        if dt_s > 0.0:
            self.resident_slot_s += dt_s * self._n_resident
            self.loading_slot_s += dt_s * self._n_loading
            self.draining_slot_s += dt_s * self._n_draining
            self.busy_slot_s += dt_s * self._n_busy
            self._clock_s = now_s

    def finalize(self, end_s: float) -> None:
        """Integrate occupancy up to the end of the run."""
        self._integrate(end_s)

    # ------------------------------------------------------ introspection

    def occupancy(self, replica: int | None = None) -> tuple[int, int, int, int]:
        """``(resident, loading, draining, slots)`` — disjoint states.

        ``resident + loading + draining <= slots`` always holds (the
        remainder is empty slots); the property suite checks it after
        every chaos run.
        """
        groups = (
            self._slots if replica is None else [self._slots[replica]]
        )
        resident = loading = draining = slots = 0
        for group in groups:
            for s in group:
                slots += 1
                if s.draining:
                    draining += 1
                elif s.state == SLOT_LOADING:
                    loading += 1
                elif s.state == SLOT_RESIDENT:
                    resident += 1
        return resident, loading, draining, slots

    def verify_occupancy(self) -> None:
        """Cross-check incremental counters against a fresh slot scan."""
        resident, loading, draining, slots = self.occupancy()
        busy = sum(s.busy for group in self._slots for s in group)
        counts = (self._n_resident, self._n_loading, self._n_draining, self._n_busy)
        if counts != (resident, loading, draining, busy):
            raise AssertionError(
                f"occupancy counters {counts} diverged from slot scan "
                f"{(resident, loading, draining, busy)}"
            )
        if resident + loading + draining > slots:
            raise AssertionError("occupancy exceeds slot count")

    def resident_slots_by_model(self) -> list[int]:
        """Per-model count of slots currently resident (non-draining)."""
        counts = [0] * len(self.models)
        for group in self._slots:
            for s in group:
                if s.state == SLOT_RESIDENT and not s.draining:
                    counts[s.model] += 1
        return counts

    def has_affinity(self, replica: int, model: int) -> bool:
        """Whether ``model`` is resident, loading, or drain-pending here."""
        for s in self._slots[replica]:
            if s.draining:
                if s.pending_model == model:
                    return True
            elif s.state != SLOT_EMPTY and s.model == model:
                return True
        return False

    def has_pending_load(self, replica: int, model: int) -> bool:
        """Whether a load of ``model`` is already underway or claimed."""
        for s in self._slots[replica]:
            if s.state == SLOT_LOADING and s.model == model:
                return True
            if s.draining and s.pending_model == model:
                return True
        return False

    def idle_resident_slot(self, replica: int, model: int) -> int:
        """Lowest idle slot resident with ``model``, or -1."""
        for idx, s in enumerate(self._slots[replica]):
            if (
                s.state == SLOT_RESIDENT
                and s.model == model
                and not s.busy
                and not s.draining
            ):
                return idx
        return -1

    # -------------------------------------------------------- transitions

    def acquire_for_load(self, replica: int, model: int, now_s: float):
        """Start loading ``model`` into an empty or idle slot.

        Returns a :class:`_LoadStart` (slot, base swap time, evicted
        model, thrash flag) or ``None`` when no idle slot exists — the
        drain-before-swap refusal.
        """
        slots = self._slots[replica]
        target = -1
        for idx, s in enumerate(slots):
            if s.state == SLOT_EMPTY:
                target = idx
                break
        if target < 0:
            # LRU victim among idle resident slots; lowest index on ties.
            best_used_s = math.inf
            for idx, s in enumerate(slots):
                if (
                    s.state == SLOT_RESIDENT
                    and not s.busy
                    and not s.draining
                    and s.last_used_s < best_used_s
                ):
                    best_used_s = s.last_used_s
                    target = idx
        if target < 0:
            return None
        return self._start_load(replica, target, model, now_s)

    def _start_load(self, replica: int, idx: int, model: int, now_s: float):
        self._integrate(now_s)
        s = self._slots[replica][idx]
        evicted = _NO_MODEL
        thrash = False
        if s.state == SLOT_RESIDENT:
            evicted = s.model
            thrash = (now_s - s.loaded_at_s) < self.thrash_window_s
            self.swaps += 1
            if thrash:
                self.thrash += 1
            self._n_resident -= 1
        s.state = SLOT_LOADING
        s.model = model
        s.busy = False
        s.draining = False
        s.pending_model = _NO_MODEL
        self._n_loading += 1
        self.loads += 1
        self.loads_by_model[model] += 1
        if evicted != _NO_MODEL:
            self.swaps_by_model[model] += 1
        return _LoadStart(
            slot=idx,
            swap_base_s=self.swap_base_s[replica][model],
            evicted_model=evicted,
            thrash=thrash,
        )

    def claim_drain(self, replica: int, model: int, now_s: float) -> int:
        """Claim the LRU busy slot for ``model`` once its work drains.

        The slot keeps serving its in-flight request but refuses any new
        dispatch; :meth:`start_pending_load` begins the swap after the
        drain. Returns the claimed slot index, or -1 when every busy
        slot already serves ``model`` or is already claimed.
        """
        target = -1
        best_used_s = math.inf
        for idx, s in enumerate(self._slots[replica]):
            if (
                s.state == SLOT_RESIDENT
                and s.busy
                and not s.draining
                and s.model != model
                and s.last_used_s < best_used_s
            ):
                best_used_s = s.last_used_s
                target = idx
        if target < 0:
            return -1
        self._integrate(now_s)
        s = self._slots[replica][target]
        s.draining = True
        s.pending_model = model
        self._n_resident -= 1
        self._n_draining += 1
        return target

    def start_pending_load(self, replica: int, idx: int, now_s: float):
        """Begin the claimed swap on a drained slot (returns a load)."""
        s = self._slots[replica][idx]
        if not s.draining or s.busy:
            raise RuntimeError(
                f"slot {idx} on replica {replica} has no drained claim"
            )
        self._integrate(now_s)
        # Hand the slot back to the resident count so _start_load's
        # resident→loading bookkeeping applies uniformly.
        self._n_draining -= 1
        self._n_resident += 1
        pending = s.pending_model
        s.draining = False
        return self._start_load(replica, idx, pending, now_s)

    def finish_load(self, replica: int, idx: int, now_s: float) -> None:
        """A table load completed: the slot is resident and idle."""
        s = self._slots[replica][idx]
        if s.state != SLOT_LOADING:
            raise RuntimeError(f"slot {idx} on replica {replica} is not loading")
        self._integrate(now_s)
        s.state = SLOT_RESIDENT
        s.loaded_at_s = now_s
        s.last_used_s = now_s
        self._n_loading -= 1
        self._n_resident += 1

    def begin_service(
        self, replica: int, idx: int, model: int, now_s: float
    ) -> None:
        """Dispatch ``model`` onto a slot — the drain guard's hard edge.

        Raises unless the slot is idle and resident with exactly this
        model: a mismatched dispatch is the bug class the guard exists
        to make impossible.
        """
        s = self._slots[replica][idx]
        if (
            s.state != SLOT_RESIDENT
            or s.busy
            or s.draining
            or s.model != model
        ):
            raise RuntimeError(
                f"drain guard: slot {idx} on replica {replica} "
                f"(state={s.state}, model={s.model}, busy={s.busy}, "
                f"draining={s.draining}) cannot serve model {model}"
            )
        self._integrate(now_s)
        s.busy = True
        s.last_used_s = now_s
        self._n_busy += 1

    def release(self, replica: int, idx: int, now_s: float) -> None:
        """The in-flight request on ``idx`` completed."""
        s = self._slots[replica][idx]
        if not s.busy:
            raise RuntimeError(f"slot {idx} on replica {replica} is not busy")
        self._integrate(now_s)
        s.busy = False
        s.last_used_s = now_s
        self._n_busy -= 1

    def crash(self, replica: int, now_s: float) -> None:
        """Cold restart: residency is lost, every slot back to empty."""
        self._integrate(now_s)
        for s in self._slots[replica]:
            if s.draining:
                self._n_draining -= 1
            elif s.state == SLOT_LOADING:
                self._n_loading -= 1
            elif s.state == SLOT_RESIDENT:
                self._n_resident -= 1
            if s.busy:
                self._n_busy -= 1
            s.clear()

    def residency_utilization(self, duration_s: float) -> float:
        """Time-weighted fraction of slot-time holding a resident model."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        return self.resident_slot_s / (self.total_slots * duration_s)


# ---------------------------------------------------------------- result


@dataclass(frozen=True)
class MultiModelResult:
    """Outcome of one mixed-traffic run.

    Per-model tuples are indexed like ``model_names``. ``latencies_by_model``
    holds completion-ordered latencies (seconds). Conservation: per
    model, ``offered == completed + shed + killed`` (every request
    reaches a terminal state; crashes kill both in-flight and queued
    work).
    """

    duration_s: float
    model_names: tuple[str, ...]
    replica_names: tuple[str, ...]
    offered_by_model: tuple[int, ...]
    completed_by_model: tuple[int, ...]
    shed_by_model: tuple[int, ...]
    killed_by_model: tuple[int, ...]
    latencies_by_model: tuple
    loads: int
    swaps: int
    thrash: int
    swaps_by_model: tuple[int, ...]
    resident_slots_by_model: tuple[int, ...]
    residency_utilization: float
    busy_utilization: float
    max_queue_depth: int
    hol_bypasses: int
    drain_claims: int
    overload: OverloadStats | None

    @property
    def offered(self) -> int:
        return sum(self.offered_by_model)

    @property
    def completed(self) -> int:
        return sum(self.completed_by_model)

    @property
    def shed(self) -> int:
        return sum(self.shed_by_model)

    @property
    def killed(self) -> int:
        return sum(self.killed_by_model)

    @property
    def throughput_qps(self) -> float:
        return self.completed / self.duration_s

    def latencies_s(self, model: int | None = None) -> np.ndarray:
        """Latencies for one model index, or all models concatenated."""
        if model is not None:
            return np.asarray(self.latencies_by_model[model], dtype=np.float64)
        parts = [
            np.asarray(lats, dtype=np.float64)
            for lats in self.latencies_by_model
        ]
        return np.concatenate(parts) if parts else np.empty(0)

    def p99_s(self, model: int) -> float:
        """p99 latency of one model class (NaN when nothing completed)."""
        lats = self.latencies_s(model)
        if len(lats) == 0:
            return float("nan")
        return quantile(lats, 0.99)

    def summary(self) -> dict:
        """Compact jsonable digest (used by goldens and ``--json``)."""
        return {
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "killed": self.killed,
            "throughput_qps": self.throughput_qps,
            "loads": self.loads,
            "swaps": self.swaps,
            "thrash": self.thrash,
            "residency_utilization": self.residency_utilization,
            "max_queue_depth": self.max_queue_depth,
            "per_model": {
                name: {
                    "offered": self.offered_by_model[i],
                    "completed": self.completed_by_model[i],
                    "shed": self.shed_by_model[i],
                    "killed": self.killed_by_model[i],
                    "p99_s": self.p99_s(i),
                }
                for i, name in enumerate(self.model_names)
            },
        }


# ------------------------------------------------------- transition core


class _Core:
    """DES state and every state transition, driven by the router's loop."""

    def __init__(self, router, arrivals_s, model_ids, duration_s, faults, noise_factor, tracer):
        self.router = router
        self.pool = router.pool
        self.arrivals_s = arrivals_s
        self.model_ids = model_ids
        self.duration_s = duration_s
        self.faults = faults
        self.noise_factor = noise_factor
        self.tracer = tracer
        num_models = len(self.pool.models)
        num_replicas = self.pool.num_replicas
        self.up = [True] * num_replicas
        self.epoch = [0] * num_replicas
        self.queues: list[list[int]] = [[] for _ in range(num_replicas)]
        self.serving_count = [0] * num_replicas
        self.active = [[-1] * n for n in self.pool.num_slots]
        self.skips = [0] * len(arrivals_s)
        self.start_s = [0.0] * len(arrivals_s)
        self.offered_by_model = [0] * num_models
        self.completed_by_model = [0] * num_models
        self.shed_by_model = [0] * num_models
        self.killed_by_model = [0] * num_models
        self.latencies_by_model: list[list[float]] = [[] for _ in range(num_models)]
        self.max_queue_depth = 0
        self.hol_bypasses = 0
        self.drain_claims = 0
        self.end_s = 0.0
        admission = router.admission
        self.admission = admission
        self.ovl = OverloadStats() if admission is not None else None
        self.codel = [
            admission.make_codel() if admission is not None else None
            for _ in range(num_replicas)
        ]
        # The driving loop installs `push(t_s, kind, replica, slot, epoch)`.
        self.push = None

    # ------------------------------------------------------------ helpers

    def _backlog(self, replica: int) -> int:
        return len(self.queues[replica]) + self.serving_count[replica]

    def _bw_stretch(self, replica: int, now_s: float) -> float:
        """Bandwidth-fault stretch on table loads (stragglers excluded).

        ``service_multiplier`` composes straggler and bandwidth effects;
        the fully-memory-bound over compute-bound ratio isolates the
        bandwidth term, which is the one that throttles a DRAM-rate
        table load.
        """
        if self.faults is None:
            return 1.0
        full = self.faults.service_multiplier(replica, now_s, 1.0)
        none = self.faults.service_multiplier(replica, now_s, 0.0)
        return full / none

    def _shed(self, qid: int, replica: int, reason: str, now_s: float) -> None:
        model = self.model_ids[qid]
        self.shed_by_model[model] += 1
        if self.ovl is not None:
            self.ovl.count_shed(reason)
        if self.tracer.enabled:
            self.tracer.instant(
                "serving.multimodel.shed",
                now_s,
                track=replica,
                reason=reason,
                model=self.pool.model_names[model],
            )

    def _start_swap(self, replica: int, start, now_s: float) -> None:
        """Schedule the load-done event and record one swap's telemetry."""
        swap_s = start.swap_base_s * self._bw_stretch(replica, now_s)
        self.push(now_s + swap_s, _EV_LOAD_DONE, replica, start.slot, self.epoch[replica])
        if self.tracer.enabled:
            names = self.pool.model_names
            self.tracer.complete(
                "serving.multimodel.swap",
                now_s,
                now_s + swap_s,
                track=replica,
                slot=start.slot,
                model=names[self.pool.slot(replica, start.slot).model],
                evicted=(
                    names[start.evicted_model]
                    if start.evicted_model != _NO_MODEL
                    else ""
                ),
                thrash=start.thrash,
            )

    # ------------------------------------------------------------- events

    def on_arrival(self, qid: int, now_s: float) -> None:
        model = self.model_ids[qid]
        self.offered_by_model[model] += 1
        candidates = [r for r in range(self.pool.num_replicas) if self.up[r]]
        if not candidates:
            self.killed_by_model[model] += 1
            return
        affine = [r for r in candidates if self.pool.has_affinity(r, model)]
        group = affine if affine else candidates
        pick = min(group, key=lambda r: (self._backlog(r), r))
        queue = self.queues[pick]
        if self.admission is not None:
            self.ovl.offered += 1
            policy = self.admission
            if policy.shed_policy == "deadline_aware":
                expected_s = self.router.service_s[pick][model]
                waiting = len(queue) + self.serving_count[pick]
                projected_s = (
                    waiting * expected_s / self.pool.num_slots[pick]
                    + expected_s
                )
                if projected_s > policy.deadline_s:
                    self._shed(qid, pick, SHED_DEADLINE, now_s)
                    return
            if len(queue) >= policy.queue_capacity:
                if policy.shed_policy == "reject_oldest":
                    oldest = queue.pop(0)
                    self._shed(oldest, pick, SHED_OLDEST, now_s)
                else:
                    self._shed(qid, pick, SHED_QUEUE_FULL, now_s)
                    return
            self.ovl.admitted += 1
        queue.append(qid)
        depth = len(queue)
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
        if self.ovl is not None and depth > self.ovl.max_queue_depth:
            self.ovl.max_queue_depth = depth
        self.try_dispatch(pick, now_s)

    def on_complete(self, replica: int, slot: int, epoch: int, now_s: float) -> None:
        if epoch != self.epoch[replica] or not self.up[replica]:
            return
        qid = self.active[replica][slot]
        self.active[replica][slot] = -1
        model = self.model_ids[qid]
        latency_s = now_s - self.arrivals_s[qid]
        self.latencies_by_model[model].append(latency_s)
        self.completed_by_model[model] += 1
        self.serving_count[replica] -= 1
        self.end_s = now_s
        if self.tracer.enabled:
            self.tracer.complete(
                "serving.multimodel.request",
                self.arrivals_s[qid],
                now_s,
                track=replica,
                model=self.pool.model_names[model],
                slot=slot,
                queue_s=self.start_s[qid] - self.arrivals_s[qid],
                service_s=now_s - self.start_s[qid],
            )
        self.pool.release(replica, slot, now_s)
        state = self.pool.slot(replica, slot)
        if state.draining:
            start = self.pool.start_pending_load(replica, slot, now_s)
            self._start_swap(replica, start, now_s)
            return
        self.try_dispatch(replica, now_s)

    def on_load_done(self, replica: int, slot: int, epoch: int, now_s: float) -> None:
        if epoch != self.epoch[replica] or not self.up[replica]:
            return
        self.pool.finish_load(replica, slot, now_s)
        self.end_s = now_s
        self.try_dispatch(replica, now_s)

    def on_fault(self, replica: int, goes_down: bool, now_s: float) -> None:
        if goes_down:
            if not self.up[replica]:
                return
            self.up[replica] = False
            self.epoch[replica] += 1
            self.end_s = now_s
            for slot, qid in enumerate(self.active[replica]):
                if qid >= 0:
                    self.killed_by_model[self.model_ids[qid]] += 1
                    self.active[replica][slot] = -1
            for qid in self.queues[replica]:
                self.killed_by_model[self.model_ids[qid]] += 1
            self.queues[replica].clear()
            self.serving_count[replica] = 0
            self.pool.crash(replica, now_s)
            if self.tracer.enabled:
                self.tracer.instant(
                    "serving.multimodel.crash", now_s, track=replica
                )
        else:
            if self.up[replica]:
                return
            self.up[replica] = True
            if self.tracer.enabled:
                self.tracer.instant(
                    "serving.multimodel.restart", now_s, track=replica
                )

    # ----------------------------------------------------------- dispatch

    def try_dispatch(self, replica: int, now_s: float) -> None:
        """Serve, load, or claim — the head-of-line rotation loop."""
        if not self.up[replica]:
            return
        pool = self.pool
        model_ids = self.model_ids
        router = self.router
        queue = self.queues[replica]
        while queue:
            head = queue[0]
            # Rotation window: a head that exhausted its skip budget locks
            # the queue (starvation guard) — only it may dispatch or swap.
            if self.skips[head] < router.hol_skip_cap:
                window = min(len(queue), router.hol_scan_window)
            else:
                window = 1
            served = False
            for pos in range(window):
                qid = queue[pos]
                slot = pool.idle_resident_slot(replica, model_ids[qid])
                if slot < 0:
                    continue
                del queue[pos]
                if pos > 0:
                    self.skips[head] += 1
                    self.hol_bypasses += 1
                codel = self.codel[replica]
                if codel is not None and codel.on_dequeue(
                    now_s - self.arrivals_s[qid], now_s
                ):
                    self._shed(qid, replica, SHED_CODEL, now_s)
                else:
                    self._dispatch(replica, slot, qid, now_s)
                served = True
                break
            if served:
                continue
            # Nothing in the window is warm: start table loads, head first.
            loads_started = False
            seen = set()
            for pos in range(window):
                model = model_ids[queue[pos]]
                if model in seen:
                    continue
                seen.add(model)
                if pool.has_pending_load(replica, model):
                    continue
                start = pool.acquire_for_load(replica, model, now_s)
                if start is None:
                    break
                self._start_swap(replica, start, now_s)
                loads_started = True
            if loads_started:
                return
            # Every slot is busy/loading/draining: claim a drain for the
            # head's model so the swap begins the moment work drains.
            head_model = model_ids[queue[0]]
            if not pool.has_affinity(replica, head_model):
                claimed = pool.claim_drain(replica, head_model, now_s)
                if claimed >= 0:
                    self.drain_claims += 1
                    if self.tracer.enabled:
                        self.tracer.instant(
                            "serving.multimodel.drain",
                            now_s,
                            track=replica,
                            slot=claimed,
                            model=pool.model_names[head_model],
                        )
            return

    def _dispatch(self, replica: int, slot: int, qid: int, now_s: float) -> None:
        model = self.model_ids[qid]
        self.pool.begin_service(replica, slot, model, now_s)
        self.active[replica][slot] = qid
        self.serving_count[replica] += 1
        self.start_s[qid] = now_s
        base_s = self.router.service_s[replica][model]
        if self.faults is not None:
            base_s *= self.faults.service_multiplier(
                replica, now_s, self.router.memory_fraction[replica][model]
            )
        service_s = base_s * self.noise_factor()
        self.push(
            now_s + service_s, _EV_COMPLETE, replica, slot, self.epoch[replica]
        )


# ---------------------------------------------------------------- router


class MultiModelRouter:
    """Least-loaded, model-aware router over a :class:`MultiModelPool`.

    Args:
        pool: the residency pool to route over; it fixes the replicas,
            the models and the slot layout.
        batch_size: inference batch per request (prices service times).
        hol_skip_cap: how many times the queue head may be bypassed by
            warm-resident work before it locks the queue.
        hol_scan_window: how deep the rotation scans the queue.
        overload: optional :class:`~repro.serving.overload.OverloadConfig`.
            Admission control only — circuit breakers and brownout are
            per-model router concerns
            (:class:`~repro.serving.faults.ResilientRouter`); passing
            them raises, mirroring ``ServingSimulator``.
        seed: RNG seed (service noise).
        tracer: optional :class:`~repro.obs.tracer.Tracer`; spans/instants
            under ``serving.multimodel.*``. Purely observational.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            swap/thrash counters and slot-occupancy gauges recorded at
            the end of each run. Purely observational.
    """

    def __init__(
        self,
        pool: MultiModelPool,
        *,
        batch_size: int = 8,
        hol_skip_cap: int = 4,
        hol_scan_window: int = 16,
        overload: OverloadConfig | None = None,
        seed: int = 0,
        tracer=None,
        metrics=None,
    ) -> None:
        if _integer("batch_size", batch_size) < 1:
            raise ValueError("batch_size must be positive")
        if _integer("hol_skip_cap", hol_skip_cap) < 0:
            raise ValueError("hol_skip_cap must be non-negative")
        if _integer("hol_scan_window", hol_scan_window) < 1:
            raise ValueError("hol_scan_window must be positive")
        _require_seed("MultiModelRouter", seed)
        self.admission = None
        if overload is not None:
            if overload.breaker is not None or overload.brownout is not None:
                raise ValueError(
                    "MultiModelRouter supports only admission control; "
                    "circuit breakers and brownout live in ResilientRouter"
                )
            self.admission = overload.admission
        self.pool = pool
        self.batch_size = batch_size
        self.hol_skip_cap = hol_skip_cap
        self.hol_scan_window = hol_scan_window
        self.seed = seed
        self.tracer = as_tracer(tracer)
        self.metrics = metrics
        timings: dict[str, TimingModel] = {}
        for spec in pool.replicas:
            if spec.name not in timings:
                timings[spec.name] = TimingModel(spec)
        self.service_s: list[list[float]] = []
        self.memory_fraction: list[list[float]] = []
        for spec in pool.replicas:
            row_s = []
            row_frac = []
            for config in pool.models:
                latency = timings[spec.name].model_latency(config, batch_size)
                row_s.append(latency.total_seconds)
                row_frac.append(
                    latency.fraction_by_op_type().get(OP_SLS, 0.0)
                )
            self.service_s.append(row_s)
            self.memory_fraction.append(row_frac)

    # ------------------------------------------------------------ arrivals

    def _queries_to_arrays(self, queries, duration_s: float):
        index = {name: i for i, name in enumerate(self.pool.model_names)}
        arrivals_s: list[float] = []
        model_ids: list[int] = []
        last_s = 0.0
        for query in queries:
            model = getattr(query, "model", None)
            if model is None and len(index) == 1:
                model = self.pool.model_names[0]
            if model not in index:
                raise ValueError(f"query model {model!r} not in pool")
            if query.arrival_s < last_s:
                raise ValueError("queries must be sorted by arrival time")
            if query.arrival_s >= duration_s:
                break
            last_s = query.arrival_s
            arrivals_s.append(float(query.arrival_s))
            model_ids.append(index[model])
        return arrivals_s, model_ids

    # ----------------------------------------------------------------- run

    def run(
        self, duration_s: float, queries, *, faults=None
    ) -> MultiModelResult:
        """Serve a time-ordered trace for ``duration_s`` seconds.

        ``queries`` are :class:`~repro.serving.loadgen.MixedQuery` (e.g.
        the output of
        :meth:`~repro.serving.loadgen.MixedModelLoadGenerator.generate`);
        a single-model pool also takes untagged queries. Queries arriving
        at or after ``duration_s`` are not served.
        """
        if not 0 < duration_s < math.inf:
            raise ValueError("duration must be positive")
        rng = np.random.default_rng(self.seed)
        arrivals_s, model_ids = self._queries_to_arrays(queries, duration_s)
        self.pool.reset()
        fault_events = (
            faults.transition_events(self.pool.num_replicas)
            if faults is not None
            else []
        )
        tracer = self.tracer
        if tracer.enabled:
            for r, spec in enumerate(self.pool.replicas):
                tracer.set_track_name(r, f"replica {r} ({spec.name})")
        log_mean = -0.5 * SERVICE_NOISE_SIGMA**2
        core = _Core(
            self,
            arrivals_s,
            model_ids,
            duration_s,
            faults,
            lambda: float(
                rng.lognormal(mean=log_mean, sigma=SERVICE_NOISE_SIGMA)
            ),
            tracer,
        )
        self._drive(core, fault_events)
        end_s = max(duration_s, core.end_s)
        self.pool.finalize(end_s)
        result = MultiModelResult(
            duration_s=duration_s,
            model_names=self.pool.model_names,
            replica_names=tuple(spec.name for spec in self.pool.replicas),
            offered_by_model=tuple(core.offered_by_model),
            completed_by_model=tuple(core.completed_by_model),
            shed_by_model=tuple(core.shed_by_model),
            killed_by_model=tuple(core.killed_by_model),
            latencies_by_model=tuple(
                tuple(lats) for lats in core.latencies_by_model
            ),
            loads=self.pool.loads,
            swaps=self.pool.swaps,
            thrash=self.pool.thrash,
            swaps_by_model=tuple(self.pool.swaps_by_model),
            resident_slots_by_model=tuple(
                self.pool.resident_slots_by_model()
            ),
            residency_utilization=self.pool.residency_utilization(end_s),
            busy_utilization=self.pool.busy_slot_s
            / (self.pool.total_slots * end_s),
            max_queue_depth=core.max_queue_depth,
            hol_bypasses=core.hol_bypasses,
            drain_claims=core.drain_claims,
            overload=core.ovl,
        )
        if self.metrics is not None:
            self._record_metrics(result)
        return result

    # -------------------------------------------------------- event loop

    def _drive(self, core: _Core, fault_events) -> None:
        """One heap, every event."""
        heap = []
        seq = 0
        for qid, t_s in enumerate(core.arrivals_s):
            heap.append((t_s, seq, -1, qid, 0, 0))
            seq += 1
        for t_s, replica, goes_down in fault_events:
            heap.append((t_s, seq, -2, replica, int(goes_down), 0))
            seq += 1
        heapq.heapify(heap)
        counter = [seq]

        def push(t_s, kind, replica, slot, epoch):
            counter[0] += 1
            heapq.heappush(heap, (t_s, counter[0], kind, replica, slot, epoch))

        core.push = push
        while heap:
            t_s, _, kind, a, b, epoch = heapq.heappop(heap)
            if kind == -1:
                core.on_arrival(a, t_s)
            elif kind == -2:
                core.on_fault(a, bool(b), t_s)
            elif kind == _EV_COMPLETE:
                core.on_complete(a, b, epoch, t_s)
            else:
                core.on_load_done(a, b, epoch, t_s)

    # ----------------------------------------------------------- metrics

    def _record_metrics(self, result: MultiModelResult) -> None:
        registry = self.metrics
        registry.counter("serving.multimodel.loads").inc(result.loads)
        registry.counter("serving.multimodel.swaps").inc(result.swaps)
        registry.counter("serving.multimodel.thrash").inc(result.thrash)
        registry.gauge("serving.multimodel.residency").set(
            result.residency_utilization
        )
        registry.gauge("serving.multimodel.max_queue_depth").set(
            result.max_queue_depth
        )
        for i, name in enumerate(result.model_names):
            registry.counter(
                "serving.multimodel.completed", model=name
            ).inc(result.completed_by_model[i])
            registry.gauge(
                "serving.multimodel.slot_occupancy", model=name
            ).set(result.resident_slots_by_model[i])
        if result.overload is not None:
            registry.counter("serving.overload.shed").inc(
                result.overload.shed
            )
