"""figNMP: near-memory SLS (RecNMP) speedup across models and trace locality.

The paper's SLS-dominated classes are bound by irregular embedding gathers
(Figures 5/14); RecNMP (Ke et al., arXiv:1912.12953) moves the gather into
the DIMMs. This experiment composes the full trace-driven
:class:`~repro.memory.near_memory.NearMemorySystem` with the Figure 14
trace axis: for each model class (RMC1/RMC2/RMC3) and each locality trace,
every SLS operator replays its pooled lookups through the rank-parallel
engine while non-SLS operators keep their baseline cost. Three readouts per
cell: the engine's end-to-end speedup, the flat-factor
:func:`~repro.memory.near_memory.nmp_speedup` estimate (the Amdahl column —
blind to hot-row locality and rank skew, so the gap between the two columns
*is* the locality/contention effect), and the engine's hot-hit ratio and
rank imbalance that explain the gap.

The fleet projection weights each class's speedup (on a designated
production-like trace) by :func:`repro.serving.fleet.production_fleet`
cycle shares — the Figure 1 mix — to estimate the fraction of fleet AI
cycles a RecNMP deployment returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.tables import format_table
from ..config.model_config import ModelConfig
from ..config.presets import RMC1_SMALL, RMC2_SMALL, RMC3_SMALL
from ..core.graph import config_ops
from ..core.operators.base import OP_SLS
from ..data.traces import EmbeddingTrace, random_trace, synthetic_production_traces
from ..hw.server import BROADWELL, ServerSpec
from ..hw.timing import OP_OVERHEAD_S, TimingModel
from ..memory.near_memory import (
    NearMemorySystem,
    NmpConfig,
    NmpGeometry,
    nmp_speedup,
)
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer
from ..serving.fleet import production_fleet


@dataclass(frozen=True)
class NmpCell:
    """One (model, trace) cell of the sweep."""

    model_name: str
    trace_name: str
    unique_fraction: float
    sls_share: float
    baseline_seconds: float
    nmp_seconds: float
    amdahl_seconds: float
    hot_hit_ratio: float
    rank_imbalance: float

    @property
    def engine_speedup(self) -> float:
        """End-to-end speedup from the full trace-driven engine."""
        return self.baseline_seconds / self.nmp_seconds

    @property
    def amdahl_speedup(self) -> float:
        """End-to-end speedup from the flat-factor quick estimate."""
        return self.baseline_seconds / self.amdahl_seconds


@dataclass(frozen=True)
class FleetProjection:
    """Fleet-wide effect of deploying NMP under the Figure 1 cycle mix."""

    class_shares: dict[str, float]
    class_speedups: dict[str, float]
    projection_trace: str

    @property
    def fleet_speedup(self) -> float:
        """Fleet cycle speedup; classes without NMP keep speedup 1."""
        remaining = sum(
            share / self.class_speedups.get(model_class, 1.0)
            for model_class, share in self.class_shares.items()
        )
        return 1.0 / remaining

    @property
    def cycles_returned(self) -> float:
        """Fraction of fleet AI-inference cycles NMP hands back."""
        return 1.0 - 1.0 / self.fleet_speedup


@dataclass(frozen=True)
class FigNmpResult:
    """Near-memory speedups across the model × trace-locality grid."""

    server_name: str
    batch_size: int
    geometry: NmpGeometry
    cells: list[NmpCell]
    fleet: FleetProjection

    def cell(self, model_name: str, trace_name: str) -> NmpCell:
        """Look up one sweep cell."""
        for cell in self.cells:
            if cell.model_name == model_name and cell.trace_name == trace_name:
                return cell
        raise KeyError(f"no cell for ({model_name!r}, {trace_name!r})")

    def model_names(self) -> list[str]:
        """Model classes in sweep order."""
        seen: list[str] = []
        for cell in self.cells:
            if cell.model_name not in seen:
                seen.append(cell.model_name)
        return seen

    def trace_names(self) -> list[str]:
        """Traces in sweep order."""
        seen: list[str] = []
        for cell in self.cells:
            if cell.trace_name not in seen:
                seen.append(cell.trace_name)
        return seen


def _cell_traces(
    table_rows: int, trace_length: int, seed: int
) -> list[EmbeddingTrace]:
    """The Figure 14 axis: the random baseline plus the synthetic suite."""
    traces = [random_trace(table_rows, trace_length)]
    traces.extend(synthetic_production_traces(table_rows, trace_length, seed=seed))
    return traces


def _replay_model(
    server: ServerSpec,
    config: ModelConfig,
    batch_size: int,
    trace: EmbeddingTrace,
    geometry: NmpGeometry,
    tracer: Tracer | None,
    metrics: MetricsRegistry | None,
    track: int,
) -> NmpCell:
    """Price one model on one trace: engine vs Amdahl vs baseline."""
    baseline = TimingModel(server).model_latency(config, batch_size)
    system = NearMemorySystem(
        geometry, tracer=tracer, metrics=metrics, track=track
    )
    nmp_seconds = 0.0
    hits = 0
    lookups = 0
    rank_busy_ns = np.zeros(geometry.num_ranks, dtype=np.int64)
    cursor = 0
    ids = trace.ids
    for spec, op in zip(config_ops(config), baseline.per_op):
        if spec.op_type != OP_SLS:
            nmp_seconds += op.seconds
            continue
        count = batch_size * spec.lookups_per_sample
        # Walk the trace cyclically so every operator sees its locality.
        rows = np.take(
            ids, np.arange(cursor, cursor + count, dtype=np.int64), mode="wrap"
        )
        cursor = (cursor + count) % ids.size
        lengths = np.full(batch_size, spec.lookups_per_sample, dtype=np.int64)
        result = system.replay(rows, lengths)
        nmp_seconds += result.elapsed_s + OP_OVERHEAD_S
        hits += result.hot_hits
        lookups += result.num_lookups
        rank_busy_ns += result.per_rank_busy_ns
    amdahl = nmp_speedup(
        server,
        config,
        batch_size,
        NmpConfig.from_geometry(server, geometry, config, batch_size),
    )
    mean_busy = float(rank_busy_ns.mean()) if rank_busy_ns.size else 0.0
    return NmpCell(
        model_name=config.name,
        trace_name=trace.name,
        unique_fraction=trace.unique_fraction(),
        sls_share=baseline.fraction_by_op_type().get("SLS", 0.0),
        baseline_seconds=baseline.total_seconds,
        nmp_seconds=nmp_seconds,
        amdahl_seconds=amdahl.accelerated_seconds,
        hot_hit_ratio=hits / lookups if lookups else 0.0,
        rank_imbalance=(
            float(rank_busy_ns.max()) / mean_busy if mean_busy > 0.0 else 1.0
        ),
    )


def run(
    server: ServerSpec = BROADWELL,
    configs: tuple[ModelConfig, ...] = (RMC1_SMALL, RMC2_SMALL, RMC3_SMALL),
    batch_size: int = 16,
    geometry: NmpGeometry = NmpGeometry(),
    table_rows: int = 200_000,
    trace_length: int = 30_000,
    seed: int = 2020,
    projection_trace: str = "trace-6",
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> FigNmpResult:
    """Sweep model classes × Figure 14 traces through the NMP engine.

    Each cell replays every SLS operator's pooled lookups (batch ×
    lookups-per-sample, walked cyclically through the trace) on a fresh
    :class:`~repro.memory.near_memory.NearMemorySystem`; non-SLS operators
    keep their host cost. ``projection_trace`` names the trace whose
    per-class speedups feed the fleet projection. With a ``tracer``, each
    cell's replays land on their own track; tracing and metrics are
    observational only — results are bit-identical with them off.
    """
    traces = _cell_traces(table_rows, trace_length, seed)
    trace_names = [trace.name for trace in traces]
    if projection_trace not in trace_names:
        raise ValueError(
            f"projection_trace {projection_trace!r} not in {trace_names}"
        )
    cells: list[NmpCell] = []
    track = 0
    for config in configs:
        for trace in traces:
            if tracer is not None:
                tracer.set_track_name(track, f"{config.name}/{trace.name}")
            cells.append(
                _replay_model(
                    server,
                    config,
                    batch_size,
                    trace,
                    geometry,
                    tracer,
                    metrics,
                    track,
                )
            )
            track += 1
    class_speedups = {
        config.name.split("-")[0]: cell.engine_speedup
        for config in configs
        for cell in cells
        if cell.model_name == config.name and cell.trace_name == projection_trace
    }
    fleet = FleetProjection(
        class_shares=production_fleet().cycles_by_model_class(),
        class_speedups=class_speedups,
        projection_trace=projection_trace,
    )
    return FigNmpResult(
        server_name=server.name,
        batch_size=batch_size,
        geometry=geometry,
        cells=cells,
        fleet=fleet,
    )


def render(result: FigNmpResult) -> str:
    """Text rendering of the sweep plus the fleet projection."""
    rows = [
        [
            cell.model_name,
            cell.trace_name,
            f"{100 * cell.unique_fraction:.1f}",
            f"{100 * cell.sls_share:.1f}",
            f"{100 * cell.hot_hit_ratio:.1f}",
            f"{cell.rank_imbalance:.2f}",
            f"{cell.engine_speedup:.2f}x",
            f"{cell.amdahl_speedup:.2f}x",
        ]
        for cell in result.cells
    ]
    table = format_table(
        [
            "model",
            "trace",
            "unique %",
            "SLS %",
            "hot-hit %",
            "imbalance",
            "engine",
            "Amdahl",
        ],
        rows,
        title=(
            f"figNMP: RecNMP speedup on {result.server_name}, "
            f"batch {result.batch_size}, {result.geometry.num_ranks} ranks"
        ),
    )
    fleet = result.fleet
    lines = [table, ""]
    lines.append(
        f"Fleet projection (speedups from {fleet.projection_trace}, "
        "Figure 1 cycle mix):"
    )
    for model_class in sorted(fleet.class_shares):
        share = fleet.class_shares[model_class]
        speedup = fleet.class_speedups.get(model_class)
        note = f"{speedup:.2f}x" if speedup is not None else "1.00x (no NMP)"
        lines.append(f"  {model_class:<8} {100 * share:4.1f}% of cycles  {note}")
    lines.append(
        f"  fleet speedup {fleet.fleet_speedup:.3f}x — returns "
        f"{100 * fleet.cycles_returned:.1f}% of AI-inference cycles"
    )
    return "\n".join(lines)
