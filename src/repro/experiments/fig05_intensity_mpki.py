"""Figure 5: compute density (left) and LLC MPKI (right) per operator.

Paper, on Broadwell: SLS has ~0.25 FLOPs/byte vs RNN 5.5, FC 18, CNN 141;
and an LLC miss rate of ~8 MPKI (1-10 across configurations) vs RNN 0.5,
FC 0.2, CNN 0.06 — misses are compulsory (low row reuse), not capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.mpki import MpkiResult, measure_mpki, measure_sls_trace_mpki
from ..analysis.roofline import IntensityPoint, figure5_intensity_points
from ..analysis.tables import format_table
from ..core.operators import (
    Conv2D,
    EmbeddingTable,
    FullyConnected,
    RecurrentCell,
    SparseLengthsSum,
)
from ..data.sparse import TemporalReuseGenerator
from ..hw.server import BROADWELL, ServerSpec


@dataclass(frozen=True)
class Figure5Result:
    """Intensity and MPKI for the operator comparison set."""

    intensity: list[IntensityPoint]
    mpki: list[MpkiResult]

    def intensity_by_name(self) -> dict[str, float]:
        """Operational intensity per operator name."""
        return {p.name: p.operational_intensity for p in self.intensity}

    def mpki_by_name(self) -> dict[str, float]:
        """LLC MPKI per operator name."""
        return {m.name: m.mpki for m in self.mpki}


def run(
    server: ServerSpec = BROADWELL,
    trace_length: int = 20_000,
    iterations: int = 4,
    seed: int = 7,
) -> Figure5Result:
    """Measure Figure 5 on a simulated ``server``.

    The SLS trace uses production-like locality (moderate temporal reuse —
    see Figure 14); FC/CNN/RNN run their natural streaming/reuse patterns
    through the same cache hierarchy. Operator shapes are moderated so the
    line-accurate Python cache simulation stays fast; the *ratios* are what
    Figure 5 is about.
    """
    rng = np.random.default_rng(seed)
    intensity = figure5_intensity_points()

    table = EmbeddingTable(1_000_000, 32)
    sls = SparseLengthsSum("SLS", table, lookups_per_sample=80)
    generator = TemporalReuseGenerator(table.rows, 1, reuse_probability=0.55)
    rows = generator.ids(trace_length, rng)
    mpki = [
        measure_sls_trace_mpki(sls, server, rows),
        measure_mpki(
            RecurrentCell("RNN", 256, 512, 8),
            server,
            batch_size=2,
            iterations=iterations,
            warmup=1,
        ),
        measure_mpki(
            FullyConnected("FC", 2048, 1000),
            server,
            batch_size=32,
            iterations=iterations,
            warmup=1,
        ),
        measure_mpki(
            Conv2D("CNN", 64, 64, 3, 56),
            server,
            batch_size=1,
            iterations=iterations,
            warmup=1,
        ),
    ]
    return Figure5Result(intensity=intensity, mpki=mpki)


def render(result: Figure5Result) -> str:
    """Text rendering of Figure 5."""
    intensity = result.intensity_by_name()
    mpki = result.mpki_by_name()
    paper_intensity = {"SLS": 0.25, "RNN": 5.5, "FC": 18.0, "CNN": 141.0}
    paper_mpki = {"SLS": 8.0, "RNN": 0.5, "FC": 0.2, "CNN": 0.06}
    rows = []
    for name in ("SLS", "RNN", "FC", "CNN"):
        rows.append(
            [
                name,
                f"{intensity[name]:.2f}",
                f"{paper_intensity[name]:.2f}",
                f"{mpki[name]:.2f}",
                f"{paper_mpki[name]:.2f}",
            ]
        )
    return format_table(
        ["operator", "FLOPs/B", "paper FLOPs/B", "LLC MPKI", "paper MPKI"],
        rows,
        title="Figure 5: operator compute density and LLC miss rates",
    )
