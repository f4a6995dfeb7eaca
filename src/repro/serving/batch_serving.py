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

from dataclasses import dataclass

import numpy as np

from ..analysis.distributions import LatencySummary, summarize
from ..config.model_config import ModelConfig
from ..data.sparse import _integer
from ..hw.server import ServerSpec
from ..hw.timing import TimingModel
from ..obs.tracer import NullTracer, Tracer, as_tracer
from .batcher import batch_stream
from .loadgen import PoissonLoadGenerator, _require_finite, _require_seed
from .metrics import SLA


@dataclass(frozen=True)
class BatchedServingResult:
    """Outcome of one batched-serving simulation."""

    server_name: str
    model_name: str
    max_batch: int
    offered_qps: float
    query_latencies_s: np.ndarray
    items_served: int
    duration_s: float
    mean_batch_size: float

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
    """

    def __init__(
        self,
        server: ServerSpec,
        config: ModelConfig,
        max_batch: int = 32,
        max_wait_s: float = 0.001,
        items_per_query: int = 1,
        tracer: Tracer | NullTracer | None = None,
    ) -> None:
        if _integer("max_batch", max_batch) < 1:
            raise ValueError("max_batch must be positive")
        if _integer("items_per_query", items_per_query) < 1:
            raise ValueError("items_per_query must be positive")
        _require_finite("BatchedServer", max_wait_s=max_wait_s)
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be non-negative")
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

        for batch in batch_stream(queries, self.max_batch, self.max_wait_s):
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

        return BatchedServingResult(
            server_name=self.server.name,
            model_name=self.config.name,
            max_batch=self.max_batch,
            offered_qps=offered_qps,
            query_latencies_s=np.asarray(latencies),
            items_served=items,
            duration_s=duration_s,
            mean_batch_size=float(np.mean(batch_sizes)) if batch_sizes else 0.0,
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
