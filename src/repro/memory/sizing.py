"""Embedding-cache capacity planning from reuse profiles.

Connects the Mattson analysis (:mod:`repro.data.reuse`) to the server
timing model: given a lookup trace and a model, compute — for each
candidate cache capacity — the LRU hit ratio, the resulting predicted
inference latency, and the bytes of cache spent per percentage point of
latency saved; then recommend the knee capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config.model_config import ModelConfig
from ..data.reuse import ReuseProfile, reuse_profile
from ..hw.server import ServerSpec
from ..hw.timing import TimingModel


@dataclass(frozen=True)
class SizingPoint:
    """One cache-capacity option."""

    capacity_rows: int
    cache_bytes: int
    hit_ratio: float
    latency_s: float
    latency_reduction: float  # vs no cache, in [0, 1)


@dataclass(frozen=True)
class SizingPlan:
    """The evaluated capacity sweep and the recommendation."""

    model_name: str
    server_name: str
    points: list[SizingPoint]
    recommended: SizingPoint | None


def plan_cache_size(
    server: ServerSpec,
    config: ModelConfig,
    trace_ids: np.ndarray,
    capacities: list[int],
    batch_size: int = 16,
    min_marginal_gain: float = 0.02,
    profile: ReuseProfile | None = None,
) -> SizingPlan:
    """Evaluate cache capacities against a trace and pick the knee.

    The recommended capacity is the largest one whose step up from the
    previous candidate still bought at least ``min_marginal_gain`` of
    additional latency reduction — beyond the knee, capacity is wasted on
    the trace's compulsory tail.
    """
    if not capacities:
        raise ValueError("need at least one capacity")
    if sorted(capacities) != list(capacities):
        raise ValueError("capacities must be sorted ascending")
    profile = profile or reuse_profile(trace_ids)
    timing = TimingModel(server)
    row_bytes = max(t.dim for t in config.embedding_tables) * 4
    baseline = timing.model_seconds(config, batch_size)

    points = []
    for capacity in capacities:
        hit = profile.hit_ratio(capacity)
        latency_s = timing.model_seconds(
            config, batch_size, locality_hit_ratio=hit
        )
        points.append(
            SizingPoint(
                capacity_rows=capacity,
                cache_bytes=capacity * row_bytes,
                hit_ratio=hit,
                latency_s=latency_s,
                latency_reduction=1.0 - latency_s / baseline,
            )
        )

    recommended: SizingPoint | None = None
    previous_reduction = 0.0
    for point in points:
        if point.latency_reduction - previous_reduction >= min_marginal_gain:
            recommended = point
        previous_reduction = point.latency_reduction
    return SizingPlan(
        model_name=config.name,
        server_name=server.name,
        points=points,
        recommended=recommended,
    )
