"""LLC miss-rate (MPKI) measurement through the cache simulator (Fig 5 right).

The paper reports LLC misses per kilo-instruction for representative
operators on Broadwell: ~8 MPKI for a production SparseLengthsSum (1-10
across configurations) versus 0.5 (RNN), 0.2 (FC) and 0.06 (CNN). We
reproduce the measurement mechanistically: generate each operator's address
trace, run it through the Table-II cache hierarchy, count DRAM fills, and
divide by an instruction estimate.

The instruction model charges SIMD arithmetic (FLOPs / per-instruction
width), one load/store per 32 contiguous bytes, and a fixed per-lookup
overhead for SLS (address generation, bounds checks, loop control in the
framework's scalar gather loop — calibrated so production-like SLS traces
land in the paper's 1-10 MPKI band).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.operators.base import Operator, OP_SLS
from ..core.operators.sls import SparseLengthsSum
from ..data.sparse import _integer
from ..hw.hierarchy import CacheHierarchy
from ..hw.server import ServerSpec
from ..hw.trace_integration import _check_row_ids, replay_line_trace
from ..obs.tracer import Tracer

#: fp32 FLOPs per SIMD arithmetic instruction charged (AVX-2 FMA).
FLOPS_PER_INSTRUCTION = 16

#: Contiguous bytes per load/store instruction charged.
BYTES_PER_ACCESS_INSTRUCTION = 32

#: Scalar-loop overhead instructions per sparse lookup (Caffe2-style SLS).
SLS_INSTRUCTIONS_PER_LOOKUP = 80


@dataclass(frozen=True)
class MpkiResult:
    """LLC miss rate of one operator trace."""

    name: str
    op_type: str
    instructions: int
    llc_misses: int
    l1_hits: int
    l2_hits: int
    l3_hits: int

    @property
    def mpki(self) -> float:
        """LLC misses per kilo-instruction."""
        return 1000.0 * self.llc_misses / self.instructions


def instruction_estimate(operator: Operator, batch_size: int) -> int:
    """Estimate retired instructions for one operator invocation."""
    cost = operator.cost(batch_size)
    instructions = cost.flops // FLOPS_PER_INSTRUCTION
    instructions += cost.total_bytes // BYTES_PER_ACCESS_INSTRUCTION
    if operator.op_type == OP_SLS and isinstance(operator, SparseLengthsSum):
        lookups = batch_size * operator.lookups_per_sample
        instructions += lookups * SLS_INSTRUCTIONS_PER_LOOKUP
    return max(1, int(instructions))


def measure_mpki(
    operator: Operator,
    server: ServerSpec,
    batch_size: int = 1,
    iterations: int = 20,
    warmup: int = 2,
    rng: np.random.Generator | None = None,
) -> MpkiResult:
    """Run ``iterations`` invocations of the operator trace through the
    server's cache hierarchy and report steady-state MPKI.

    The first ``warmup`` iterations populate the caches (so dense operators
    reach their steady, reuse-heavy state) and are excluded from the stats.
    """
    if _integer("batch_size", batch_size) < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if _integer("warmup", warmup) < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    if _integer("iterations", iterations) <= warmup:
        raise ValueError("iterations must exceed warmup")
    rng = rng or np.random.default_rng(0)
    hierarchy = CacheHierarchy(server)
    for _ in range(warmup):
        hierarchy.access_trace(operator.address_trace(batch_size, rng))
    hierarchy.reset_stats()
    for _ in range(iterations - warmup):
        hierarchy.access_trace(operator.address_trace(batch_size, rng))
    stats = hierarchy.stats
    instructions = instruction_estimate(operator, batch_size) * (iterations - warmup)
    return MpkiResult(
        name=operator.name,
        op_type=operator.op_type,
        instructions=instructions,
        llc_misses=stats.dram_accesses,
        l1_hits=stats.l1_hits,
        l2_hits=stats.l2_hits,
        l3_hits=stats.l3_hits,
    )


def measure_sls_trace_mpki(
    sls: SparseLengthsSum,
    server: ServerSpec,
    rows: np.ndarray,
    *,
    tracer: Tracer | None = None,
    track: int = 0,
) -> MpkiResult:
    """MPKI of an SLS operator replaying a concrete lookup trace.

    Used with :mod:`repro.data.traces` to study how production locality
    (Figure 14) changes cache behaviour. The trace goes through the batch
    replay path (``line_trace_for_rows`` → ``access_lines``), so
    million-lookup traces are practical; pass a ``tracer`` to surface the
    replay as ``hw.replay.*`` spans on ``track`` (off by default, and the
    stats are bit-identical either way).
    """
    if rows.size == 0:
        raise ValueError("trace must contain at least one lookup")
    _check_row_ids("rows", rows)
    hierarchy = CacheHierarchy(server)
    replay_line_trace(
        hierarchy,
        sls.line_trace_for_rows(rows, line_bytes=hierarchy.line_bytes),
        tracer=tracer,
        track=track,
    )
    stats = hierarchy.stats
    lookups = int(rows.size)
    flops = lookups * sls.table.dim
    moved = lookups * sls.table.dim * 4 * 2
    instructions = (
        flops // FLOPS_PER_INSTRUCTION
        + moved // BYTES_PER_ACCESS_INSTRUCTION
        + lookups * SLS_INSTRUCTIONS_PER_LOOKUP
    )
    return MpkiResult(
        name=sls.name,
        op_type=sls.op_type,
        instructions=max(1, instructions),
        llc_misses=stats.dram_accesses,
        l1_hits=stats.l1_hits,
        l2_hits=stats.l2_hits,
        l3_hits=stats.l3_hits,
    )
