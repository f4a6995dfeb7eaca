"""The benchmark's workloads: one seeded unit of work each, plus its checks.

A workload's :meth:`~Workload.run` makes one unit of work from a unit seed
and calls the program's public entry points with their default
``engine=``/``backend=``. :meth:`~Workload.check` then verifies the outputs
and returns the unit's work count and the simulated statistics that the
unit digest hashes. ``check`` raises :class:`CheckFailed` when an output
is wrong. Only ``run`` is timed.

Each workload has a ``"full"`` scale (the measured one) and a ``"tiny"``
scale for the benchmark's own smoke tests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

from repro.analysis.mpki import measure_sls_trace_mpki
from repro.core.operators import EmbeddingTable, SparseLengthsSum
from repro.data.traces import synthetic_production_traces
from repro.experiments import fig11_tail_latency, fig11x_faults, fleet_day
from repro.hw.server import BROADWELL
from repro.memory.near_memory import NearMemorySystem
from repro.serving.metrics import check_conservation

#: Distinct unit seeds per run; unit ``i`` uses seed ``i % CYCLE``, so a run
#: replays the same eight inputs and their digests can be pinned.
CYCLE = 8

#: Unit seed index of the untimed warm-up unit (outside the cycle).
WARMUP = CYCLE


class CheckFailed(Exception):
    """An output check failed for one unit."""


def unit_seed(workload: str, seed: int, index: int) -> int:
    """The seed of unit ``index``, derived from the benchmark seed."""
    key = f"{workload}:{seed}:{index}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "little")


def _canon(value):
    """A JSON-ready form of ``value`` that keeps every digit."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canon(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        return {
            "dtype": str(data.dtype),
            "shape": list(data.shape),
            "sha256": hashlib.sha256(data.tobytes()).hexdigest(),
        }
    if isinstance(value, np.generic):
        return value.item()
    if hasattr(value, "__dict__") and not isinstance(value, type):
        public = {k: v for k, v in vars(value).items() if not k.startswith("_")}
        return {"class": type(value).__name__, **_canon(public)}
    return value


def digest(stats) -> str:
    """Short hash of a unit's simulated statistics."""
    text = json.dumps(_canon(stats), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Workload:
    """One named workload: seeded units of work and their output checks."""

    name = ""
    why = ""
    #: What one unit of work counts: simulated requests or lookups.
    work_unit = ""
    #: Share of a unit's host time bound by memory bandwidth rather than
    #: the interpreter; weights the reference loops in ``calibrate.py``.
    memory_share = 0.0

    def __init__(self, scale: str = "full") -> None:
        if scale not in ("full", "tiny"):
            raise ValueError(f"unknown scale {scale!r}")
        self.scale = scale

    def run(self, seed: int, rec):
        """Execute one unit; returns the raw outputs for :meth:`check`."""
        raise NotImplementedError

    def check(self, raw, books: list) -> tuple[int, object]:
        """Verify ``raw``; returns ``(work, simulated statistics)``.

        ``books`` holds ``(offered, completed, shed, killed, instances)``
        for every simulator run the unit made.
        """
        raise NotImplementedError


def _check_router_books(stats) -> None:
    try:
        check_conservation(
            offered=stats.offered, completed=stats.completed, failed=stats.failed
        )
    except ValueError as exc:
        raise CheckFailed(str(exc)) from exc


class FigureLadder(Workload):
    """Figure 11x: 8 replicas, a seeded fault storm, the 4-rung ladder."""

    name = "figure_ladder"
    why = (
        "figure-fleet router: the per-event ResilientRouter loop and "
        "pick_machine do nearly all the work, the memory layers none"
    )
    work_unit = "requests"

    def run(self, seed, rec):
        duration_s = 0.03 if self.scale == "full" else 0.002
        return fig11x_faults.run(duration_s=duration_s, seed=seed)

    def check(self, raw, books):
        offered = 0
        for outcome in raw.outcomes.values():
            _check_router_books(outcome.stats)
            offered += outcome.stats.offered
        if tuple(raw.outcomes) != fig11x_faults.POLICY_LADDER:
            raise CheckFailed(f"ladder rungs {tuple(raw.outcomes)}")
        return offered, raw


class FleetPeak(Workload):
    """Fleet day: the serving windows around the ~1,050-replica peak."""

    name = "fleet_peak"
    why = (
        "the same router at 100x the replicas with the overload stack on, "
        "a router built and priced per window, plus storms and autoscaler"
    )
    work_unit = "requests"

    def run(self, seed, rec):
        if self.scale == "full":
            hours, window_sim_s = (11.5, 12.0, 12.5), 0.0003
        else:
            hours, window_sim_s = (12.0,), 0.00002
        return fleet_day.run(hours=hours, window_sim_s=window_sim_s, seed=seed)

    def check(self, raw, books):
        expected = 3 if self.scale == "full" else 1
        if len(raw.windows) != expected:
            raise CheckFailed(f"{len(raw.windows)} windows, expected {expected}")
        for window in raw.windows:
            _check_router_books(window)
            if window.shed < 0 or window.breaker_opens < 0:
                raise CheckFailed("negative overload counts")
        return raw.total_offered, raw


class EmbeddingLocality(Workload):
    """Figure 14 traces at two table sizes, through the cache and NMP."""

    name = "embedding_locality"
    why = (
        "data, hw and memory do all the work and serving none; one table "
        "fits the modelled LLC and one is far larger"
    )
    work_unit = "lookups"
    # Building the large table's popularity CDFs (4M rows) is about half
    # of a unit; the rest is interpreter-bound.
    memory_share = 0.5

    #: Lookups per pooled SLS invocation (the paper's production pooling).
    POOL = 80
    #: fp32 values per embedding row: 128 B, two cache lines.
    DIM = 32

    def __init__(self, scale: str = "full") -> None:
        super().__init__(scale)
        # 8,192 rows x 128 B = 1 MiB: past the 256 KiB L2, inside
        # Broadwell's 35 MiB LLC. 4M rows = 512 MiB, ~15x the LLC.
        if scale == "full":
            self.tables, self.length = (8_192, 4_194_304), 2_000
        else:
            self.tables, self.length = (8_192, 65_536), 160
        # The replay reads only the row width from the operator; the
        # table's contents never enter it, so a one-row table of that
        # width keeps a 512 MiB modelled table out of host memory.
        self.sls = SparseLengthsSum(
            "sls", EmbeddingTable(1, self.DIM), lookups_per_sample=self.POOL
        )

    def run(self, seed, rec):
        out = []
        for table_rows in self.tables:
            with rec.span("data.gen"):
                traces = synthetic_production_traces(
                    table_rows, self.length, seed=seed
                )
            for trace in traces:
                ids = trace.ids
                rec.count("data.ids", ids.size)
                with rec.span("hw.replay"):
                    mpki = measure_sls_trace_mpki(self.sls, BROADWELL, ids)
                pools = ids.size // self.POOL
                lengths = np.full(pools, self.POOL, dtype=np.int64)
                with rec.span("memory.nmp_replay"):
                    system = NearMemorySystem()
                    nmp = system.replay(ids[: pools * self.POOL], lengths)
                rec.count("hw.lines", mpki.l1_hits + mpki.l2_hits
                          + mpki.l3_hits + mpki.llc_misses)
                rec.count("hw.l3_hits", mpki.l3_hits)
                rec.count("hw.dram_accesses", mpki.llc_misses)
                rec.count("memory.nmp_lookups", nmp.num_lookups)
                rec.count("memory.hot_hits", nmp.hot_hits)
                out.append((table_rows, trace, mpki, system, lengths, nmp))
        return out

    def check(self, raw, books):
        lookups = 0
        stats = []
        row_bytes = self.DIM * 4
        for table_rows, trace, mpki, system, lengths, nmp in raw:
            ids = trace.ids
            lookups += ids.size
            first = ids * row_bytes // 64
            last = (ids * row_bytes + row_bytes - 1) // 64
            lines = int((last - first + 1).sum())
            levels = mpki.l1_hits + mpki.l2_hits + mpki.l3_hits + mpki.llc_misses
            if levels != lines:
                raise CheckFailed(
                    f"{trace.name}: cache levels sum to {levels}, "
                    f"{lines} lines replayed"
                )
            d = nmp.digest()
            geo = system.geometry
            busy = d["hot_hits"] * geo.hot_hit_ns + d["hot_misses"] * geo.rank_gather_ns
            consistent = (
                d["num_lookups"] == lengths.sum()
                and d["num_pools"] == lengths.size == len(d["pool_latencies"])
                and d["elapsed_ns"] == sum(d["pool_latencies"])
                and d["hot_hits"] == sum(d["per_dimm_hits"])
                and d["hot_misses"] == sum(d["per_dimm_misses"])
                and d["num_lookups"] == d["hot_hits"] + d["hot_misses"]
                and sum(d["per_rank_busy"]) == busy
                and min(d["pool_latencies"], default=geo.pool_overhead_ns)
                >= geo.pool_overhead_ns
            )
            if not consistent:
                raise CheckFailed(f"{trace.name}: NMP digest is inconsistent")
            stats.append(
                {
                    "table_rows": table_rows,
                    "trace": trace.name,
                    "ids": ids,
                    "mpki": mpki,
                    "nmp": d,
                }
            )
        return 2 * lookups, stats


class ColocationTail(Workload):
    """Figure 11: FC tail latency under co-location on two servers."""

    name = "colocation_tail"
    why = (
        "the paper's own Figure 11 and the only workload that drives "
        "ServingSimulator, so that layer is measured"
    )
    work_unit = "requests"

    def run(self, seed, rec):
        if self.scale == "full":
            return fig11_tail_latency.run(duration_s=0.05, seed=seed)
        return fig11_tail_latency.run(
            duration_s=0.005, seed=seed, regimes=(1, 32), curve_jobs=(1, 32)
        )

    def check(self, raw, books):
        if not books:
            raise CheckFailed("no simulator run was observed")
        offered = 0
        for sim_offered, completed, shed, killed, instances in books:
            try:
                in_flight = check_conservation(
                    offered=sim_offered, completed=completed,
                    shed=shed, killed=killed,
                )
            except ValueError as exc:
                raise CheckFailed(str(exc)) from exc
            # Closed loop: each instance holds at most one request.
            if in_flight > instances:
                raise CheckFailed(
                    f"{in_flight} requests in flight on {instances} instances"
                )
            offered += sim_offered
        return offered, raw


WORKLOADS = {
    cls.name: cls
    for cls in (FigureLadder, FleetPeak, EmbeddingLocality, ColocationTail)
}
