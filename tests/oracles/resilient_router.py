"""Executable spec of :meth:`repro.serving.faults.ResilientRouter.run`.

:func:`run_reference` is the router's per-event reference loop: one heap
for every event, and fleet state (queue depths, candidate lists, waiting
depths, brownout pressure) recomputed with O(M) scans whenever it is
read. ``ResilientRouter.run`` keeps that state as O(1) aggregates and
merges pre-sorted static streams against a dynamic heap; the equivalence
and edge-case suites (``tests/test_des_equivalence.py``,
``tests/test_des_edge_cases.py``) and the routing-policies golden prove
the two byte-identical on latencies, counters, overload books, spans and
RNG draws.

The loop is test-only: reading it settles what the router should do,
and nothing in ``src/`` calls it. Call it like the method, with the
router first::

    run_reference(router, offered_qps, duration_s, faults=..., sla=...)
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from repro.serving.faults import (
    _CANCELLED,
    _DONE,
    _EV_ARRIVAL,
    _EV_COMPLETE,
    _EV_FAULT,
    _EV_HEALTH,
    _EV_HEDGE,
    _EV_TIMEOUT,
    _QUEUED,
    _RUNNING,
    FaultSchedule,
    FaultyServingResult,
    ResilientRouter,
    _Attempt,
    _Request,
)
from repro.serving.metrics import SLA
from repro.serving.overload import (
    SHED_CODEL,
    SHED_DEADLINE,
    SHED_OLDEST,
    SHED_QUEUE_FULL,
    BrownoutController,
    CircuitBreaker,
    OverloadStats,
)
from repro.serving.router import SERVICE_NOISE_SIGMA, RoutingDraws, pick_machine


def run_reference(
    router: ResilientRouter,
    offered_qps: float,
    duration_s: float = 1.0,
    faults: FaultSchedule | None = None,
    sla: SLA | None = None,
    arrival_times_s: Sequence[float] | None = None,
) -> FaultyServingResult:
    """The per-event reference loop (the executable spec)."""
    if offered_qps <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    faults = faults or FaultSchedule.zero()
    sla = sla or SLA(deadline_s=10.0 * router._base_service_s, percentile=0.99)
    policy = router.policy
    rng = np.random.default_rng(router.seed)

    # Overload protection: admission bound + CoDel per machine, one
    # circuit breaker per machine, one brownout controller. All are
    # None when unconfigured, and every branch below that touches them
    # is skipped — the unprotected run is byte-identical.
    overload = router.overload
    admission = overload.admission if overload is not None else None
    expected_service_s = router._base_service_s
    codels = (
        [admission.make_codel() for _ in range(router.num_machines)]
        if admission is not None
        else None
    )
    breakers = (
        [CircuitBreaker(overload.breaker) for _ in range(router.num_machines)]
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

    requests: list[_Request] = []
    attempts: list[_Attempt] = []
    up = [True] * router.num_machines
    admitted = [True] * router.num_machines
    running: list[int | None] = [None] * router.num_machines
    queues: list[list[int]] = [[] for _ in range(router.num_machines)]
    rr_state = [0]

    retries = hedges = wasted_attempts = fail_fasts = ejections = 0
    failed = 0
    degraded_completions = 0
    time_in_degraded_s = 0.0
    degraded_on = False
    degraded_since_s = 0.0
    latencies: list[float] = []

    events: list[tuple[float, int, int, int, int]] = []
    seq = 0

    # Observability: request spans live on a dedicated client track,
    # attempt spans on per-machine tracks. Everything below is guarded
    # by ``tracer.enabled`` and touches neither the RNG nor the event
    # queue, so the nil tracer reproduces the historical run exactly.
    tracer = router.tracer
    client_track = router.num_machines
    request_span: dict[int, int] = {}
    attempt_span: dict[int, int] = {}
    if tracer.enabled:
        tracer.set_track_name(client_track, "client")
        for m in range(router.num_machines):
            tracer.set_track_name(m, f"machine {m}")

    def push(t_s: float, kind: int, a: int = 0, b: int = 0) -> None:
        nonlocal seq
        heapq.heappush(events, (t_s, seq, kind, a, b))
        seq += 1

    # Pre-materialize arrivals so the arrival stream is independent of
    # policy decisions (one storm, comparable policies).
    n_offered = 0
    if arrival_times_s is None:
        t_s = 0.0
        while True:
            t_s += float(rng.exponential(1.0 / offered_qps))
            if t_s >= duration_s:
                break
            push(t_s, _EV_ARRIVAL, n_offered)
            requests.append(_Request(arrival_s=t_s))
            n_offered += 1
    else:
        for raw_t_s in arrival_times_s:
            t_s = float(raw_t_s)
            if not 0.0 <= t_s < duration_s:
                raise ValueError(
                    "arrival times must lie in [0, duration_s)"
                )
            push(t_s, _EV_ARRIVAL, n_offered)
            requests.append(_Request(arrival_s=t_s))
            n_offered += 1
    # Routing draws share the generator with the service noise; the
    # stream opens once the arrivals are drawn and closes after the loop.
    draws = RoutingDraws(rng)

    for edge_t_s, replica_id, goes_down in faults.transition_events(
        router.num_machines
    ):
        push(edge_t_s, _EV_FAULT, replica_id, int(goes_down))
    if policy.health_check_interval_s is not None:
        probe_t_s = policy.health_check_interval_s
        horizon_s = duration_s + 10.0 * router._base_service_s
        while probe_t_s < horizon_s:
            push(probe_t_s, _EV_HEALTH)
            probe_t_s += policy.health_check_interval_s

    # --------------------------------------------------------- helpers

    def queue_len(machine: int) -> int:
        return len(queues[machine]) + (running[machine] is not None)

    def eject(machine: int) -> None:
        nonlocal ejections
        if admitted[machine]:
            admitted[machine] = False
            ejections += 1

    def shed(reason: str, machine: int, now_s: float) -> None:
        """Account one shed event (admission/CoDel drop)."""
        assert ovl_stats is not None
        ovl_stats.count_shed(reason)
        if tracer.enabled:
            tracer.instant(
                "serving.overload.shed", now_s, track=machine, reason=reason
            )

    def breaker_note(machine: int, before: str, now_s: float) -> None:
        """Emit an instant when a breaker changed state."""
        assert breakers is not None
        after = breakers[machine].state
        if tracer.enabled and after != before:
            tracer.instant(f"serving.breaker.{after}", now_s, track=machine)

    def breaker_failure(machine: int, now_s: float) -> None:
        if breakers is None:
            return
        before = breakers[machine].state
        breakers[machine].record_failure(now_s)
        breaker_note(machine, before, now_s)

    def breaker_success(machine: int, now_s: float) -> None:
        if breakers is None:
            return
        before = breakers[machine].state
        breakers[machine].record_success(now_s)
        breaker_note(machine, before, now_s)

    def waiting_depth(machine: int) -> int:
        """Live queued attempts (stale entries excluded)."""
        return sum(
            1 for aid in queues[machine] if attempts[aid].state == _QUEUED
        )

    def degraded_now(now_s: float) -> bool:
        """Evaluate + account the degraded-mode state at ``now_s``."""
        nonlocal degraded_on, degraded_since_s, time_in_degraded_s
        if router.degradation is None:
            return False
        candidates = [m for m in range(router.num_machines) if admitted[m]]
        healthy_frac = len(candidates) / router.num_machines
        mean_depth = (
            sum(queue_len(m) for m in candidates) / len(candidates)
            if candidates
            else float("inf")
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
        """Dispatch the machine's queue head, skipping dead attempts."""
        if running[machine] is not None or not up[machine]:
            return
        while queues[machine]:
            attempt_id = queues[machine].pop(0)
            attempt = attempts[attempt_id]
            request = requests[attempt.request_id]
            if attempt.state != _QUEUED or request.done or request.failed:
                if attempt.state == _QUEUED:
                    attempt.state = _CANCELLED
                    request.live_attempts -= 1
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
        """Route one attempt; fail fast when no healthy target exists."""
        nonlocal fail_fasts
        request = requests[request_id]
        if request.done or request.failed:
            return
        if ovl_stats is not None:
            ovl_stats.offered += 1
        candidates = [m for m in range(router.num_machines) if admitted[m]]
        if breakers is not None and candidates:
            # Retries and hedges route through here too, so every
            # attempt respects open breakers.
            closed = [m for m in candidates if breakers[m].allows(now_s)]
            if not closed:
                ovl_stats.breaker_rejections += 1
                attempt_failed(request_id, now_s)
                return
            candidates = closed
        if not candidates:
            attempt_failed(request_id, now_s)
            return
        depths = [queue_len(m) for m in range(router.num_machines)]
        machine = pick_machine(
            router.routing, draws, depths, rr_state, candidates=candidates
        )
        if not up[machine]:
            # Connection refused: passive health detection.
            fail_fasts += 1
            eject(machine)
            breaker_failure(machine, now_s)
            if tracer.enabled:
                tracer.instant(
                    "serving.router.failfast", now_s, track=machine
                )
            attempt_failed(request_id, now_s)
            return
        if admission is not None:
            waiting = waiting_depth(machine)
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
                        victim = attempts[victim_id]
                        victim.state = _CANCELLED
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
        if ovl_stats is not None:
            ovl_stats.admitted += 1
            depth = waiting_depth(machine)
            if depth > ovl_stats.max_queue_depth:
                ovl_stats.max_queue_depth = depth
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

    # ------------------------------------------------------- event loop

    while events:
        now_s, _, kind, a, b = heapq.heappop(events)

        if kind == _EV_ARRIVAL:
            request_id, is_retry = a, bool(b)
            request = requests[request_id]
            if request.done or request.failed:
                continue
            if not is_retry:
                if brownout is not None:
                    cands = [
                        m for m in range(router.num_machines) if admitted[m]
                    ]
                    pressure = (
                        sum(queue_len(m) for m in cands) / len(cands)
                        if cands
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
            if (
                not is_retry
                and policy.hedge_delay_s is not None
            ):
                push(now_s + policy.hedge_delay_s, _EV_HEDGE, request_id)
            route_attempt(request_id, now_s)

        elif kind == _EV_COMPLETE:
            attempt_id, machine = a, b
            attempt = attempts[attempt_id]
            if running[machine] != attempt_id:
                continue  # killed by a crash; the restart superseded it
            running[machine] = None
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
                        attempt_span.pop(attempt_id),
                        now_s,
                        outcome="wasted",
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
                            attempt_span.pop(attempt_id),
                            now_s,
                            outcome="ok",
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
            if request.done or request.failed or attempt.state in (_CANCELLED, _DONE):
                continue
            # The client abandons this attempt. Queued work is dropped;
            # in-flight work cannot be yanked back — it keeps occupying
            # the machine and completes as waste (see _EV_COMPLETE).
            breaker_failure(attempt.machine, now_s)
            attempt.state = _CANCELLED
            request.live_attempts -= 1
            if tracer.enabled:
                tracer.instant(
                    "serving.router.timeout", now_s, track=attempt.machine
                )
                if attempt_id in attempt_span:
                    tracer.end(
                        attempt_span.pop(attempt_id),
                        now_s,
                        outcome="timeout",
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
                    tracer.instant(
                        "serving.router.crash", now_s, track=machine
                    )
                if policy.health_check_interval_s is None:
                    eject(machine)
                attempt_id = running[machine]
                if attempt_id is not None:
                    running[machine] = None
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
                dead, queues[machine] = queues[machine], []
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
                    admitted[machine] = True

        elif kind == _EV_HEALTH:
            for machine in range(router.num_machines):
                admitted[machine] = up[machine]
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
        num_machines=router.num_machines,
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
        brownout_quality=router._brownout_quality if brownout is not None else None,
    )
