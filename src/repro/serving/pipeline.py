"""The two-step filtering → ranking recommendation pipeline (Figure 6).

Content is ranked hierarchically: a lightweight model (RMC1) filters
thousands of candidate posts down by orders of magnitude, then a
heavyweight model (RMC2/RMC3) ranks the survivors and the top tens are
shown. This module provides both an *executable* pipeline over real
:class:`~repro.core.model.RecommendationModel` instances and an analytical
latency estimate over production-scale configs via the timing model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config.model_config import ModelConfig
from ..core.model import RecommendationModel
from ..data.dataset import InputGenerator
from ..data.sparse import _integer
from ..hw.server import ServerSpec
from ..hw.timing import TimingModel
from .loadgen import _require_seed


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of one filtering → ranking pass."""

    candidate_count: int
    filtered_count: int
    returned_count: int
    selected_indices: tuple[int, ...]
    scores: tuple[float, ...]
    filter_seconds: float
    rank_seconds: float

    @property
    def total_seconds(self) -> float:
        """End-to-end pipeline wall time."""
        return self.filter_seconds + self.rank_seconds


class FilterRankPipeline:
    """Executable two-stage recommendation over synthetic candidates.

    Args:
        filter_model: lightweight scoring model (RMC1-class).
        rank_model: heavyweight ranking model (RMC2/RMC3-class).
        filter_keep: candidates surviving the filtering step.
        final_keep: posts ultimately returned ("top tens").
        batch_size: inference batch for both stages.
    """

    def __init__(
        self,
        filter_model: RecommendationModel,
        rank_model: RecommendationModel,
        filter_keep: int = 64,
        final_keep: int = 10,
        batch_size: int = 64,
    ) -> None:
        if min(
            _integer("filter_keep", filter_keep),
            _integer("final_keep", final_keep),
            _integer("batch_size", batch_size),
        ) < 1:
            raise ValueError("pipeline sizes must be positive")
        if final_keep > filter_keep:
            raise ValueError("final_keep cannot exceed filter_keep")
        self.filter_model = filter_model
        self.rank_model = rank_model
        self.filter_keep = filter_keep
        self.final_keep = final_keep
        self.batch_size = batch_size

    def _score(self, model: RecommendationModel, generator: InputGenerator, count: int):
        """Score ``count`` candidates in batches; returns scores + seconds."""
        scores = np.empty(count, dtype=np.float32)
        seconds = 0.0
        done = 0
        while done < count:
            size = min(self.batch_size, count - done)
            dense, sparse = generator.batch(size)
            out, profile = model.forward_profiled(dense, sparse)
            scores[done : done + size] = out
            seconds += profile.total_seconds
            done += size
        return scores, seconds

    def recommend(self, candidate_count: int, seed: int = 0) -> PipelineResult:
        """Filter and rank ``candidate_count`` synthetic candidates."""
        _require_seed("FilterRankPipeline.recommend", seed)
        if _integer("candidate_count", candidate_count) < self.filter_keep:
            raise ValueError("candidate_count must be at least filter_keep")
        filter_gen = InputGenerator(self.filter_model.config, seed=seed)
        filter_scores, filter_seconds = self._score(
            self.filter_model, filter_gen, candidate_count
        )
        keep = np.argsort(filter_scores)[::-1][: self.filter_keep]

        rank_gen = InputGenerator(self.rank_model.config, seed=seed + 1)
        rank_scores, rank_seconds = self._score(
            self.rank_model, rank_gen, self.filter_keep
        )
        order = np.argsort(rank_scores)[::-1][: self.final_keep]
        selected = keep[order]
        return PipelineResult(
            candidate_count=candidate_count,
            filtered_count=self.filter_keep,
            returned_count=self.final_keep,
            selected_indices=tuple(int(i) for i in selected),
            scores=tuple(float(rank_scores[i]) for i in order),
            filter_seconds=filter_seconds,
            rank_seconds=rank_seconds,
        )


@dataclass(frozen=True)
class PipelineLatencyEstimate:
    """Analytic per-query latency of the two-stage pipeline on a server."""

    server_name: str
    filter_seconds: float
    rank_seconds: float

    @property
    def total_seconds(self) -> float:
        """End-to-end pipeline latency."""
        return self.filter_seconds + self.rank_seconds


def estimate_pipeline_latency(
    server: ServerSpec,
    filter_config: ModelConfig,
    rank_config: ModelConfig,
    candidate_count: int = 1024,
    filter_keep: int = 64,
    batch_size: int = 64,
) -> PipelineLatencyEstimate:
    """Predict the pipeline's latency at production scale (no allocation).

    The filtering stage scores every candidate with the light model; the
    ranking stage scores the survivors with the heavy model.
    """
    if candidate_count < filter_keep:
        raise ValueError("candidate_count must be at least filter_keep")
    timing = TimingModel(server)

    def stage_seconds(config: ModelConfig, items: int) -> float:
        full, rem = divmod(items, batch_size)
        seconds = full * timing.model_seconds(config, batch_size)
        if rem:
            seconds += timing.model_seconds(config, rem)
        return seconds

    return PipelineLatencyEstimate(
        server_name=server.name,
        filter_seconds=stage_seconds(filter_config, candidate_count),
        rank_seconds=stage_seconds(rank_config, filter_keep),
    )
