"""ctypes bindings of the fleet router's C kernel (``repro/native/router.c``).

``repro_router`` is an exact transliteration of the Python loop of
:meth:`repro.serving.faults.ResilientRouter.run`: the same merge of
pre-sorted arrivals, crash/restart edges and health probes against a
heap of dynamic events, the same O(1) fleet aggregates, routing
policies, timeouts, retries, hedges, degradation, admission with every
shed policy, CoDel, circuit breakers and brownout.

Two rules keep it bitwise-faithful:

* Every random draw comes from the caller's own generator. The kernel
  receives its ``bitgen_t*`` (``rng.bit_generator.ctypes.bit_generator``)
  and calls numpy's own ``random_lognormal`` from ``libnpyrandom.a``, the
  function ``Generator.lognormal`` calls. Routing picks run the
  Lemire/Floyd/shuffle steps of :class:`repro.serving.router.RoutingDraws`
  on ``next_uint32``, which honours PCG64's buffered half-word. The
  generator is left in exactly the state the Python loop leaves it in.
* :mod:`repro.native` builds it so that no ``a + b*c`` is fused into an
  FMA; ``exp``/``sqrt`` resolve to the same libm that numpy and
  CPython's :mod:`math` use in-process.

When no C compiler or no ``libnpyrandom.a`` is available (or
``REPRO_DISABLE_NATIVE=1``), :func:`native_available` is false and the
router runs its Python loop instead.
"""

from __future__ import annotations

import ctypes
from typing import TYPE_CHECKING

import numpy as np

from .. import native
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

__all__ = ["native_available", "route_native"]

_F64P = ctypes.POINTER(ctypes.c_double)
_I64P = ctypes.POINTER(ctypes.c_int64)
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


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    lib.repro_router.restype = _I64
    lib.repro_router.argtypes = [ctypes.POINTER(_RouterRun)]
    lib.repro_router_run_size.restype = _I64
    lib.repro_router_run_size.argtypes = []
    if lib.repro_router_run_size() != ctypes.sizeof(_RouterRun):
        raise RuntimeError("_RouterRun does not match the kernel's RouterRun")
    return lib


def native_available() -> bool:
    """Whether the router kernel can be (or was) built on this host."""
    return native.load("repro_router", _bind) is not None


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

    lib = native.load("repro_router", _bind)
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
