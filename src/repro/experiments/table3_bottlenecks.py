"""Table III: model classes and their micro-architectural bottlenecks.

Paper: dense-feature-dominated models (RMC1, RMC3) are MLP-dominated and
sensitive to core frequency/count, SIMD performance and cache size;
sparse-feature models (RMC1, RMC2) are embedding-dominated and sensitive to
DRAM frequency/bandwidth and cache contention. Rather than hard-coding the
table, this module derives each class's dominant operator and bottleneck
sensitivities from the timing model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..analysis.tables import format_table
from ..config.model_config import ModelConfig
from ..config.presets import RMC1_SMALL, RMC2_SMALL, RMC3_SMALL
from ..hw.server import BROADWELL, ServerSpec
from ..hw.timing import TimingModel


@dataclass(frozen=True)
class BottleneckRow:
    """Derived bottleneck profile of one model class."""

    model_class: str
    dominant_operator: str
    frequency_sensitivity: float
    dram_sensitivity: float
    simd_class: str

    @property
    def classification(self) -> str:
        """"MLP dominated" or "Embedding dominated" (Table III wording)."""
        return (
            "Embedding dominated"
            if self.dominant_operator == "SLS"
            else "MLP dominated"
        )


@dataclass(frozen=True)
class Table3Result:
    """All derived rows."""

    rows: list[BottleneckRow]

    def by_class(self) -> dict[str, BottleneckRow]:
        """Index rows by model class."""
        return {r.model_class: r for r in self.rows}


def _sensitivity(base: float, perturbed: float) -> float:
    """Relative speedup from a 20% resource improvement, normalized to 1."""
    return base / perturbed


def run(
    server: ServerSpec = BROADWELL,
    configs: list[ModelConfig] | None = None,
    batch_size: int = 16,
) -> Table3Result:
    """Derive Table III by perturbing server resources by +20%."""
    configs = configs or [RMC1_SMALL, RMC2_SMALL, RMC3_SMALL]
    faster_clock = replace(server, frequency_ghz=server.frequency_ghz * 1.2)
    faster_dram = replace(
        server,
        dram_bw_bytes_per_s=server.dram_bw_bytes_per_s * 1.2,
        dram_random_ns=server.dram_random_ns / 1.2,
    )
    rows = []
    for config in configs:
        base = TimingModel(server).model_seconds(config, batch_size)
        clock = TimingModel(faster_clock).model_seconds(config, batch_size)
        dram = TimingModel(faster_dram).model_seconds(config, batch_size)
        breakdown = (
            TimingModel(server).model_latency(config, batch_size).seconds_by_op_type()
        )
        dominant = max(breakdown, key=breakdown.get)
        rows.append(
            BottleneckRow(
                model_class=config.model_class,
                dominant_operator=dominant,
                frequency_sensitivity=_sensitivity(base, clock),
                dram_sensitivity=_sensitivity(base, dram),
                simd_class=server.simd.name,
            )
        )
    return Table3Result(rows=rows)


def render(result: Table3Result) -> str:
    """Text rendering of Table III."""
    rows = [
        [
            r.model_class,
            r.classification,
            r.dominant_operator,
            f"{r.frequency_sensitivity:.2f}x",
            f"{r.dram_sensitivity:.2f}x",
        ]
        for r in result.rows
    ]
    return format_table(
        ["model", "class", "dominant op", "+20% clock", "+20% DRAM"],
        rows,
        title="Table III: derived micro-architectural bottlenecks",
    )
