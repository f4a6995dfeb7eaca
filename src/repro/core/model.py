"""The DLRM-style recommendation model (Figure 3 of the paper).

Dense features flow through the Bottom-MLP; each sparse feature is pooled by
a SparseLengthsSum over its embedding table; the dense representation and
all embedding vectors are concatenated and fed to the Top-MLP, whose final
sigmoid emits the predicted click-through rate (CTR).

The model is assembled from a :class:`~repro.config.model_config.ModelConfig`
so that every preset in :mod:`repro.config.presets` — and any configuration a
user writes — becomes runnable without further code.
"""

from __future__ import annotations

import numpy as np

from ..config.model_config import ModelConfig
from .operators import (
    Activation,
    Concat,
    DotInteraction,
    EmbeddingTable,
    FullyConnected,
    SparseBatch,
    SparseLengthsSum,
)
from .operators.base import Operator, OperatorCost, sum_costs
from .profiler import Profile, Profiler


def _build_mlp(
    prefix: str,
    input_dim: int,
    mlp_config,
    rng: np.random.Generator,
) -> list[Operator]:
    """Expand an MLPConfig into alternating FC and activation operators."""
    ops: list[Operator] = []
    fan_in = input_dim
    last = len(mlp_config.layer_sizes) - 1
    for i, width in enumerate(mlp_config.layer_sizes):
        ops.append(FullyConnected(f"{prefix}:fc{i}", fan_in, width, rng=rng))
        if i < last:
            kind = mlp_config.activation
        else:
            kind = mlp_config.final_activation or mlp_config.activation
        if kind and kind != "none":
            ops.append(Activation(f"{prefix}:{kind}{i}", kind, width))
        fan_in = width
    return ops


class RecommendationModel:
    """An executable DLRM instance built from a :class:`ModelConfig`.

    Args:
        config: the model architecture. Tables with millions of rows allocate
            real memory — use
            :func:`repro.config.presets.scaled_for_execution` for production
            presets.
        rng: parameter-initialization generator (deterministic default).
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None = None) -> None:
        self.config = config
        rng = rng or np.random.default_rng(2020)

        self.bottom_ops = _build_mlp(
            "bottom", config.dense_features, config.bottom_mlp, rng
        )
        self.tables: list[EmbeddingTable] = []
        self.sls_ops: list[SparseLengthsSum] = []
        for i, table_cfg in enumerate(config.embedding_tables):
            table = EmbeddingTable(table_cfg.rows, table_cfg.dim, rng=rng)
            self.tables.append(table)
            self.sls_ops.append(
                SparseLengthsSum(f"emb{i}:sls", table, table_cfg.lookups_per_sample)
            )
        self.interaction_op: DotInteraction | None = None
        if config.interaction == "dot":
            self.interaction_op = DotInteraction(
                "interaction",
                num_vectors=config.num_interaction_vectors,
                dim=config.bottom_mlp.output_dim,
            )
            concat_dims = [
                config.bottom_mlp.output_dim,
                self.interaction_op.output_dim,
            ]
        else:
            concat_dims = [config.bottom_mlp.output_dim] + [
                t.dim for t in config.embedding_tables
            ]
        self.concat_op = Concat("concat", concat_dims)
        self.top_ops = _build_mlp("top", config.top_mlp_input_dim, config.top_mlp, rng)

    # ----------------------------------------------------------------- shape

    def operators(self) -> list[Operator]:
        """All operators in execution order."""
        ops: list[Operator] = [*self.bottom_ops, *self.sls_ops]
        if self.interaction_op is not None:
            ops.append(self.interaction_op)
        ops.append(self.concat_op)
        ops.extend(self.top_ops)
        return ops

    def storage_bytes(self) -> int:
        """Resident parameter bytes of this (possibly scaled) instance."""
        return sum(op.parameter_bytes() for op in self.operators())

    def cost(self, batch_size: int) -> OperatorCost:
        """Aggregate analytical cost of one forward pass."""
        return sum_costs(op.cost(batch_size) for op in self.operators())

    # --------------------------------------------------------------- execute

    def _validate_inputs(
        self, dense: np.ndarray, sparse: list[SparseBatch]
    ) -> int:
        if dense.ndim != 2 or dense.shape[1] != self.config.dense_features:
            raise ValueError(
                f"dense input must be (batch, {self.config.dense_features}), "
                f"got {dense.shape}"
            )
        if len(sparse) != len(self.sls_ops):
            raise ValueError(
                f"model has {len(self.sls_ops)} embedding tables but got "
                f"{len(sparse)} sparse inputs"
            )
        batch = dense.shape[0]
        for i, sp in enumerate(sparse):
            if sp.batch_size != batch:
                raise ValueError(
                    f"sparse input {i} has batch {sp.batch_size}, dense has {batch}"
                )
        return batch

    def forward(self, dense: np.ndarray, sparse: list[SparseBatch]) -> np.ndarray:
        """Predict CTR for a batch of user-post pairs.

        Returns a ``(batch,)`` float32 array of probabilities.
        """
        output, _ = self._forward(dense, sparse, profiler=None)
        return output

    def forward_profiled(
        self, dense: np.ndarray, sparse: list[SparseBatch]
    ) -> tuple[np.ndarray, Profile]:
        """Forward pass returning per-operator wall-clock timing."""
        profiler = Profiler()
        output, _ = self._forward(dense, sparse, profiler=profiler)
        return output, profiler.reset()

    def _forward(
        self,
        dense: np.ndarray,
        sparse: list[SparseBatch],
        profiler: Profiler | None,
    ) -> tuple[np.ndarray, None]:
        batch = self._validate_inputs(dense, sparse)

        def run(op: Operator, *inputs):
            if profiler is not None:
                return profiler.run(op, batch, *inputs)
            return op.forward(*inputs)

        x = dense.astype(np.float32, copy=False)
        for op in self.bottom_ops:
            x = run(op, x)

        pooled = [run(sls, sp) for sls, sp in zip(self.sls_ops, sparse)]
        if self.interaction_op is not None:
            stacked = np.stack([x, *pooled], axis=1)
            interactions = run(self.interaction_op, stacked)
            combined = run(self.concat_op, x, interactions)
        else:
            combined = run(self.concat_op, x, *pooled)

        y = combined
        for op in self.top_ops:
            y = run(op, y)
        return y.reshape(-1), None
