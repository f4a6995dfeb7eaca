"""Batched serving simulation: query streams → batches → inference.

Connects the paper's two levers (Section III): *batching* raises FC
compute density (Figure 8) but adds queueing delay; the SLA decides how
much batching a service can afford. :class:`BatchedServer` simulates an
open-loop query stream through a size/timeout batcher feeding one model
instance, and reports per-query latency (wait + service) plus
latency-bounded throughput — letting users sweep ``max_batch`` and find
the SLA-optimal operating point per server generation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..analysis.distributions import LatencySummary, summarize
from ..config.model_config import ModelConfig
from ..hw.server import ServerSpec
from ..hw.timing import TimingModel
from ..obs.tracer import NullTracer, Tracer, as_tracer
from .batcher import Batch, Batcher, batch_stream
from .loadgen import PoissonLoadGenerator, _require_seed
from .metrics import SLA


@dataclass(frozen=True)
class BatchedServingResult:
    """Outcome of one batched-serving simulation.

    ``shed`` counts queries refused by backpressure (the model's batch
    backlog was at ``queue_capacity`` when they arrived); 0 when
    unbounded.
    """

    server_name: str
    model_name: str
    max_batch: int
    offered_qps: float
    query_latencies_s: np.ndarray
    items_served: int
    duration_s: float
    mean_batch_size: float
    shed: int = 0

    def summary(self) -> LatencySummary:
        """Per-query latency percentiles (wait + inference)."""
        return summarize(self.query_latencies_s)

    def throughput_items_per_s(self) -> float:
        """Items ranked per second."""
        return self.items_served / self.duration_s

    def meets(self, sla: SLA) -> bool:
        """Whether the query-latency distribution satisfies the SLA."""
        return sla.is_met(self.query_latencies_s)


class BatchedServer:
    """One model instance behind a batcher on a simulated server.

    Args:
        server: server generation.
        config: model served.
        max_batch: batcher size threshold (items).
        max_wait_s: batcher timeout.
        items_per_query: user-post pairs carried by each query.
        tracer: optional :class:`~repro.obs.tracer.Tracer`. Each simulated
            batch becomes a ``serving.batch.request`` span (first arrival
            to completion) with ``collect``/``wait``/``service`` children
            on the batcher and model tracks. The default nil tracer
            records nothing and never perturbs the simulation.
        queue_capacity: backpressure bound on formed-but-unfinished
            batches. When the model instance already has this many
            batches in flight, the batcher stops accepting and new
            queries are shed at arrival (propagated upstream) instead of
            queueing without bound. ``None`` (the default) reproduces the
            historical unbounded run bit for bit.
    """

    def __init__(
        self,
        server: ServerSpec,
        config: ModelConfig,
        max_batch: int = 32,
        max_wait_s: float = 0.001,
        items_per_query: int = 1,
        tracer: Tracer | NullTracer | None = None,
        queue_capacity: int | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if queue_capacity is not None and queue_capacity < 1:
            raise ValueError("queue_capacity must be positive")
        self.queue_capacity = queue_capacity
        self.server = server
        self.config = config
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.items_per_query = items_per_query
        self.tracer = as_tracer(tracer)
        self.timing = TimingModel(server)
        self._latency_cache: dict[int, float] = {}

    def _service_s(self, items: int) -> float:
        if items not in self._latency_cache:
            self._latency_cache[items] = self.timing.model_seconds(
                self.config, items
            )
        return self._latency_cache[items]

    def simulate(
        self, offered_qps: float, duration_s: float = 1.0, seed: int = 0
    ) -> BatchedServingResult:
        """Run an open-loop Poisson stream through batcher + model."""
        if offered_qps <= 0 or duration_s <= 0:
            raise ValueError("rate and duration must be positive")
        _require_seed("BatchedServer.simulate", seed)
        queries = PoissonLoadGenerator(
            offered_qps, num_items=self.items_per_query, seed=seed
        ).generate(duration_s)
        if not queries:
            raise ValueError("no queries generated; raise rate or duration")

        tracer = self.tracer
        if tracer.enabled:
            tracer.set_track_name(0, "batcher")
            tracer.set_track_name(1, "model")

        free_at = 0.0
        latencies: list[float] = []
        items = 0
        batch_sizes: list[int] = []
        shed = 0

        def serve(batch: Batch) -> float:
            """Run one batch on the model; returns its completion time."""
            nonlocal free_at, items
            start = max(batch.formed_at_s, free_at)
            service = self._service_s(batch.num_items)
            done = start + service
            free_at = done
            for query in batch.queries:
                latencies.append(done - query.arrival_s)
            items += batch.num_items
            batch_sizes.append(batch.num_items)
            if tracer.enabled:
                first_arrival_s = batch.queries[0].arrival_s
                batch_id = tracer.begin(
                    "serving.batch.request",
                    first_arrival_s,
                    track=0,
                    num_items=batch.num_items,
                )
                tracer.complete(
                    "serving.batch.collect",
                    first_arrival_s,
                    batch.formed_at_s,
                    parent_id=batch_id,
                    track=0,
                )
                if start > batch.formed_at_s:
                    tracer.complete(
                        "serving.batch.wait",
                        batch.formed_at_s,
                        start,
                        parent_id=batch_id,
                        track=0,
                    )
                tracer.complete(
                    "serving.batch.service",
                    start,
                    done,
                    parent_id=batch_id,
                    track=1,
                    num_items=batch.num_items,
                )
                tracer.end(batch_id, done)
            return done

        if self.queue_capacity is None:
            for batch in batch_stream(queries, self.max_batch, self.max_wait_s):
                serve(batch)
        else:
            # Backpressure path: the batcher only dispatches into a
            # bounded backlog of formed batches; while the model has
            # ``queue_capacity`` batches in flight, arriving queries are
            # refused at admission (shed upstream) rather than absorbed.
            batcher = Batcher(max_items=self.max_batch, max_wait_s=self.max_wait_s)
            # Completion-time min-heap. The monotonic sequence number makes
            # ties at equal completion times pop in push order explicitly,
            # so the heap's order never depends on heapq internals.
            in_flight: list[tuple[float, int]] = []
            seq = 0
            for query in sorted(queries, key=lambda q: q.arrival_s):
                now = query.arrival_s
                while in_flight and in_flight[0][0] <= now:
                    heapq.heappop(in_flight)
                timed_out = batcher.poll(now)
                if timed_out is not None:
                    heapq.heappush(in_flight, (serve(timed_out), seq))
                    seq += 1
                    while in_flight and in_flight[0][0] <= now:
                        heapq.heappop(in_flight)
                if len(in_flight) >= self.queue_capacity:
                    shed += 1
                    continue
                formed = batcher.offer(query)
                if formed is not None:
                    heapq.heappush(in_flight, (serve(formed), seq))
                    seq += 1
            tail = batcher.flush(queries[-1].arrival_s + self.max_wait_s)
            if tail is not None:
                serve(tail)

        return BatchedServingResult(
            server_name=self.server.name,
            model_name=self.config.name,
            max_batch=self.max_batch,
            offered_qps=offered_qps,
            query_latencies_s=np.asarray(latencies),
            items_served=items,
            duration_s=duration_s,
            mean_batch_size=float(np.mean(batch_sizes)) if batch_sizes else 0.0,
            shed=shed,
        )


def batching_sweep(
    server: ServerSpec,
    config: ModelConfig,
    offered_qps: float,
    max_batches: list[int],
    sla: SLA,
    duration_s: float = 1.0,
    max_wait_s: float = 0.002,
    seed: int = 0,
) -> list[BatchedServingResult]:
    """Simulate a sweep of batcher size limits at fixed offered load."""
    return [
        BatchedServer(server, config, max_batch=b, max_wait_s=max_wait_s).simulate(
            offered_qps, duration_s, seed
        )
        for b in max_batches
    ]


def best_max_batch(
    results: list[BatchedServingResult], sla: SLA
) -> BatchedServingResult | None:
    """The highest-throughput sweep point that meets the SLA."""
    feasible = [r for r in results if r.meets(sla)]
    if not feasible:
        return None
    return max(feasible, key=lambda r: r.throughput_items_per_s())
