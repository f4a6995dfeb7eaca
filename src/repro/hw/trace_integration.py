"""Closing the loop: trace-driven cache simulation → analytic timing.

The analytic timing model takes an SLS hit ratio as a parameter; the
mechanistic cache hierarchy can *measure* that hit ratio for a concrete
trace. This module runs a lookup trace through the Table-II hierarchy and
feeds the measured hit ratio back into ``model_latency``, so users with
real traces get trace-faithful latency predictions without choosing a
locality number by hand.

:func:`replay_line_trace` is the batch entry point: it feeds an int64
line-index array (e.g. ``SparseLengthsSum.line_trace_for_rows``) through
``CacheHierarchy.access_lines`` in one kernel call per chunk, and
optionally emits ``hw.replay.*`` spans / per-op attribution so replays
show up in ``python -m repro trace`` waterfalls. Tracing off
(``tracer=None``) is the default and leaves the replay bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..config.model_config import ModelConfig
from ..core.operators.base import OP_SLS
from ..core.operators.sls import EmbeddingTable, SparseLengthsSum
from ..obs.profile import OpProfiler
from ..obs.tracer import Tracer
from .hierarchy import CacheHierarchy, HierarchyStats
from .server import ServerSpec
from .timing import ModelLatency, TimingModel

#: Simulated hit latencies used only to lay replay spans on the trace
#: timeline (L3/DRAM latencies come from the ServerSpec).
L1_HIT_CYCLES = 4
L2_HIT_CYCLES = 14


def _stats_delta(after: HierarchyStats, before: HierarchyStats) -> HierarchyStats:
    return HierarchyStats(
        l1_hits=after.l1_hits - before.l1_hits,
        l2_hits=after.l2_hits - before.l2_hits,
        l3_hits=after.l3_hits - before.l3_hits,
        dram_accesses=after.dram_accesses - before.dram_accesses,
        l2_back_invalidations=(
            after.l2_back_invalidations - before.l2_back_invalidations
        ),
        prefetches_issued=after.prefetches_issued - before.prefetches_issued,
        prefetch_hits=after.prefetch_hits - before.prefetch_hits,
    )


def replay_line_trace(
    hierarchy: CacheHierarchy,
    lines: np.ndarray,
    tracer: Tracer | None = None,
    profiler: OpProfiler | None = None,
    track: int = 0,
    t0_s: float = 0.0,
    op_type: str = OP_SLS,
) -> HierarchyStats:
    """Replay a line-index array through ``hierarchy``; return delta stats.

    The replay itself is one ``access_lines`` batch. When a ``tracer`` is
    supplied, the replay is recorded as a ``hw.replay.trace`` span (at
    simulated time ``t0_s`` on ``track``) with per-level child spans whose
    durations are the levels' simulated cycle shares — the same waterfall
    treatment every other serving component gets. A ``profiler``
    attributes the replay's simulated cycles and line bytes to
    ``op_type``. Both default to off and leave the stats bit-identical.
    """
    before = replace(hierarchy.stats)
    hierarchy.access_lines(lines)
    delta = _stats_delta(hierarchy.stats, before)
    if tracer is None and profiler is None:
        return delta
    server = hierarchy.server
    dram_cycles = server.dram_random_ns / server.cycle_ns
    level_cycles = (
        ("hw.replay.l1", delta.l1_hits * L1_HIT_CYCLES, delta.l1_hits),
        ("hw.replay.l2", delta.l2_hits * L2_HIT_CYCLES, delta.l2_hits),
        ("hw.replay.l3", delta.l3_hits * server.llc_latency_cycles, delta.l3_hits),
        ("hw.replay.dram", delta.dram_accesses * dram_cycles, delta.dram_accesses),
    )
    total_cycles = sum(cycles for _, cycles, _ in level_cycles)
    moved_bytes = delta.total_line_accesses * hierarchy.line_bytes
    if profiler is not None:
        profiler.record_op(op_type, total_cycles, moved_bytes)
    if tracer is not None:
        total_s = total_cycles * server.cycle_ns * 1e-9
        parent = tracer.complete(
            "hw.replay.trace",
            begin_s=t0_s,
            end_s=t0_s + total_s,
            track=track,
            lines=int(np.asarray(lines).size),
            backend=hierarchy.backend,
            dram_accesses=delta.dram_accesses,
        )
        cursor_s = t0_s
        for name, cycles, count in level_cycles:
            if count == 0:
                continue
            span_s = cycles * server.cycle_ns * 1e-9
            tracer.complete(
                name,
                begin_s=cursor_s,
                end_s=cursor_s + span_s,
                parent_id=parent,
                track=track,
                count=count,
            )
            cursor_s += span_s
    return delta


@dataclass(frozen=True)
class TraceDrivenResult:
    """Measured cache behaviour plus the resulting latency prediction."""

    measured_hit_ratio: float
    l1_hits: int
    l2_hits: int
    l3_hits: int
    dram_accesses: int
    latency: ModelLatency


def measure_trace_hit_ratio(
    server: ServerSpec,
    table_rows: int,
    embedding_dim: int,
    trace_ids: np.ndarray,
    l3_share: float = 1.0,
    tracer: Tracer | None = None,
    profiler: OpProfiler | None = None,
    track: int = 0,
    t0_s: float = 0.0,
) -> tuple[float, CacheHierarchy]:
    """Replay a lookup trace through the hierarchy; return the hit ratio.

    A "hit" here means the row was served from any cache level — the
    quantity the analytic SLS model blends against its DRAM-miss path.
    The replay runs in the cache-replay kernel when it loads, and in the
    bit-identical reference loop otherwise (see ``docs/PERFORMANCE.md``).
    """
    trace_ids = np.asarray(trace_ids).reshape(-1)
    if trace_ids.size == 0:
        raise ValueError("trace must contain lookups")
    table = EmbeddingTable(table_rows, embedding_dim)
    sls = SparseLengthsSum("trace", table, lookups_per_sample=1)
    hierarchy = CacheHierarchy(server, l3_share=l3_share)
    replay_line_trace(
        hierarchy,
        sls.line_trace_for_rows(trace_ids, line_bytes=hierarchy.line_bytes),
        tracer=tracer,
        profiler=profiler,
        track=track,
        t0_s=t0_s,
    )
    stats = hierarchy.stats
    total = stats.total_line_accesses
    hit_ratio = 1.0 - stats.dram_accesses / total if total else 0.0
    return hit_ratio, hierarchy


def trace_driven_latency(
    server: ServerSpec,
    config: ModelConfig,
    trace_ids: np.ndarray,
    batch_size: int = 16,
    l3_share: float = 1.0,
) -> TraceDrivenResult:
    """Predict inference latency using a measured, trace-specific hit ratio.

    The trace is replayed against a table of the model's (per-table) size;
    the measured hit ratio replaces the analytic capacity heuristic.
    """
    table = config.embedding_tables[0]
    hit_ratio, hierarchy = measure_trace_hit_ratio(
        server, table.rows, table.dim, trace_ids, l3_share
    )
    latency = TimingModel(server).model_latency(
        config, batch_size, sls_hit_ratio=hit_ratio
    )
    stats = hierarchy.stats
    return TraceDrivenResult(
        measured_hit_ratio=hit_ratio,
        l1_hits=stats.l1_hits,
        l2_hits=stats.l2_hits,
        l3_hits=stats.l3_hits,
        dram_accesses=stats.dram_accesses,
        latency=latency,
    )
