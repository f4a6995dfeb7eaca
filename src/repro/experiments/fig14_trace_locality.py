"""Figure 14: unique sparse-ID fraction across production traces.

Paper: the percentage of unique sparse IDs (embedding-table lookups) varies
widely across ten production use cases — from near-random to heavily
reusing — enabling intelligent caching and prefetching. We regenerate the
spread with synthetic traces and additionally quantify the caching
opportunity: LLC MPKI of an SLS replaying each trace through the simulated
Broadwell hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.mpki import measure_sls_trace_mpki
from ..analysis.tables import format_table
from ..core.operators import EmbeddingTable, SparseLengthsSum
from ..data.traces import EmbeddingTrace, random_trace, synthetic_production_traces
from ..hw.server import BROADWELL, ServerSpec
from ..obs.tracer import Tracer


@dataclass(frozen=True)
class TraceLocalityRow:
    """One trace's locality and cache behaviour."""

    name: str
    unique_fraction: float
    llc_mpki: float


@dataclass(frozen=True)
class Figure14Result:
    """Per-trace locality measurements."""

    rows: list[TraceLocalityRow]

    def unique_fractions(self) -> dict[str, float]:
        """Unique-ID fraction per trace name."""
        return {r.name: r.unique_fraction for r in self.rows}


def run(
    server: ServerSpec = BROADWELL,
    table_rows: int = 1_000_000,
    trace_length: int = 30_000,
    seed: int = 2020,
    tracer: Tracer | None = None,
) -> Figure14Result:
    """Generate the trace suite and measure locality + cache behaviour.

    With a ``tracer``, each trace's replay is recorded as ``hw.replay.*``
    spans on its own track, so ``python -m repro trace figure14`` renders
    the per-trace cache-level waterfall. Tracing off is bit-identical.
    """
    traces: list[EmbeddingTrace] = [random_trace(table_rows, trace_length)]
    traces.extend(
        synthetic_production_traces(table_rows, trace_length, seed=seed)
    )
    table = EmbeddingTable(table_rows, 32)
    sls = SparseLengthsSum("sls", table, lookups_per_sample=80)
    rows = []
    for track, trace in enumerate(traces):
        if tracer is not None:
            tracer.set_track_name(track, trace.name)
        mpki = measure_sls_trace_mpki(
            sls, server, trace.ids, tracer=tracer, track=track
        )
        rows.append(
            TraceLocalityRow(
                name=trace.name,
                unique_fraction=trace.unique_fraction(),
                llc_mpki=mpki.mpki,
            )
        )
    return Figure14Result(rows=rows)


def render(result: Figure14Result) -> str:
    """Text rendering of Figure 14."""
    rows = [
        [r.name, f"{100 * r.unique_fraction:.1f}", f"{r.llc_mpki:.2f}"]
        for r in result.rows
    ]
    return format_table(
        ["trace", "unique IDs %", "LLC MPKI"],
        rows,
        title="Figure 14: sparse-ID locality across traces",
    )
