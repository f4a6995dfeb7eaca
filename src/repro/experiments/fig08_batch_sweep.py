"""Figure 8: latency vs batch size across server generations.

Paper: at batch 16, Broadwell beats Haswell/Skylake by 1.4x/1.5x (RMC1),
1.3x/1.4x (RMC2) and 1.32x/1.65x (RMC3); Skylake overtakes from batch ~64
for the compute-bound RMC3 and ~128 for the memory-bound RMC1/RMC2, thanks
to AVX-512 — the SLA line determines the largest usable batch.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.tables import format_table
from ..config.model_config import ModelConfig
from ..config.presets import RMC1_SMALL, RMC2_SMALL, RMC3_SMALL
from ..hw.server import ALL_SERVERS, ServerSpec
from ..hw.timing import TimingModel

DEFAULT_BATCHES = (1, 4, 16, 64, 128, 256)


@dataclass(frozen=True)
class SweepCell:
    """One (model, server, batch) latency measurement."""

    model_name: str
    server_name: str
    batch_size: int
    latency_s: float


@dataclass(frozen=True)
class Figure8Result:
    """The full latency grid."""

    cells: list[SweepCell]

    def latency(self, model: str, server: str, batch: int) -> float:
        """Latency of one grid cell (seconds)."""
        for cell in self.cells:
            if (
                cell.model_name == model
                and cell.server_name == server
                and cell.batch_size == batch
            ):
                return cell.latency_s
        raise KeyError(f"no cell ({model}, {server}, {batch})")

    def best_server(self, model: str, batch: int) -> str:
        """Server with the lowest latency for (model, batch)."""
        candidates = [
            c for c in self.cells if c.model_name == model and c.batch_size == batch
        ]
        if not candidates:
            raise KeyError(f"no cells for ({model}, {batch})")
        return min(candidates, key=lambda c: c.latency_s).server_name


def run(
    configs: list[ModelConfig] | None = None,
    servers: tuple[ServerSpec, ...] = ALL_SERVERS,
    batches: tuple[int, ...] = DEFAULT_BATCHES,
) -> Figure8Result:
    """Sweep latency across models x servers x batch sizes."""
    configs = configs or [RMC1_SMALL, RMC2_SMALL, RMC3_SMALL]
    cells = []
    for server in servers:
        timing = TimingModel(server)
        for config in configs:
            for batch in batches:
                cells.append(
                    SweepCell(
                        model_name=config.name,
                        server_name=server.name,
                        batch_size=batch,
                        latency_s=timing.model_seconds(config, batch),
                    )
                )
    return Figure8Result(cells=cells)


def render(result: Figure8Result) -> str:
    """Text rendering of Figure 8."""
    models = sorted({c.model_name for c in result.cells})
    servers = sorted({c.server_name for c in result.cells})
    batches = sorted({c.batch_size for c in result.cells})
    sections = []
    for model in models:
        rows = []
        for batch in batches:
            row: list[object] = [batch]
            for server in servers:
                row.append(f"{result.latency(model, server, batch) * 1e3:.3f}")
            row.append(result.best_server(model, batch))
            rows.append(row)
        sections.append(
            format_table(
                ["batch"] + [f"{s} ms" for s in servers] + ["best"],
                rows,
                title=f"Figure 8: {model} latency vs batch and server",
            )
        )
    return "\n\n".join(sections)
