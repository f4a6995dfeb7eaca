"""Near-memory SLS execution (RecNMP): a DIMM-side memory backend.

The paper's SLS-dominated classes (RMC1/RMC2) are bound by irregular,
low-locality embedding gathers that thrash the cache hierarchy (Figures
5/14). RecNMP (Ke et al., arXiv:1912.12953) answers with DIMM-side
SparseLengthsSum: each memory rank executes its share of a pooled gather
locally and ships one pooled vector back over the bus, with a small
DIMM-side hot-entry cache catching trace-temporal reuse. This module
models that memory system end to end, at two fidelities:

* :func:`nmp_speedup` — the original Amdahl quick estimate: SLS operator
  time shrinks by a flat factor, everything else is untouched. Retained
  as the cheap what-if path and cross-checked against the full engine by
  :func:`amdahl_crosscheck`.
* :class:`NearMemorySystem` — a full trace-driven timing backend.
  Embedding rows map to channels/DIMMs/ranks by pure arithmetic
  (low-order interleave, no RNG — the memory-system sibling of
  :class:`repro.serving.domains.FleetTopology`), each rank executes its
  lookups serially while ranks run in parallel, and a per-DIMM LRU
  hot-row cache short-circuits re-referenced rows. Pooling-factor skew
  therefore shows up as *rank contention* — a pool is as slow as its
  busiest rank — not as a flat speedup.

Following the repo's one-object, two-loop pattern (cache replay, serving
DES), the per-access reference loop is the executable specification and
the C kernel in :mod:`repro.memory.nmp_native` (over the SoA state in
:mod:`repro.memory.nmp_vectorized`) is proven bit-identical to it on
every observable by ``tests/test_nmp_equivalence.py``. A system runs the
kernel when it loads and the reference loop otherwise. All costs are
integer nanoseconds, which is what makes bit-identity across the loops
trivial to guarantee.

:class:`~repro.hw.timing.TimingModel` accepts ``nmp=NmpGeometry(...)`` to
price SLS operators on this backend analytically (``nmp=None`` is the
bit-identical off-switch); the ``fignmp`` experiment
(:mod:`repro.experiments.fignmp_near_memory`) composes the engine with
the Figure 14 trace axis and projects the fleet-level win.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..config.model_config import ModelConfig
from ..core.graph import config_ops
from ..core.operators.base import OP_SLS
from ..data.sparse import _integer
from ..hw.server import ServerSpec
from ..hw.timing import OP_OVERHEAD_S, TimingModel
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NullTracer, Tracer, as_tracer
from .nmp_native import load_nmp_kernel
from .nmp_vectorized import VectorizedHotRowState


@dataclass(frozen=True)
class NmpConfig:
    """A near-memory SLS accelerator, as a flat Amdahl factor.

    The quick-estimate sibling of :class:`NmpGeometry`: instead of
    simulating ranks and hot rows, SLS operator time shrinks by
    ``sls_speedup`` and each invocation pays ``offload_overhead_s``.
    Derive one from a geometry with :func:`NmpConfig.from_geometry` to
    keep the two paths consistent.

    Attributes:
        sls_speedup: factor by which SLS operator time shrinks (rank-level
            parallelism + on-DIMM reduction).
        offload_overhead_s: per-SLS-invocation command/launch overhead.
    """

    sls_speedup: float = 8.0
    offload_overhead_s: float = 1e-6

    def __post_init__(self) -> None:
        if self.sls_speedup < 1.0:
            raise ValueError("sls_speedup must be >= 1")
        if self.offload_overhead_s < 0:
            raise ValueError("offload overhead must be non-negative")

    @classmethod
    def from_geometry(
        cls,
        server: ServerSpec,
        geometry: "NmpGeometry",
        config: ModelConfig,
        batch_size: int,
    ) -> "NmpConfig":
        """The Amdahl factor implied by a geometry on one model.

        ``sls_speedup`` is baseline SLS time over the geometry's
        uniform-limit gather time (every pool spread evenly over all
        ranks, zero hot-row hits); ``offload_overhead_s`` is the
        per-invocation pool-launch total. By construction
        :func:`nmp_speedup` with this config agrees with the full
        :class:`NearMemorySystem` in the uniform-locality/no-contention
        limit — :func:`amdahl_crosscheck` asserts it.
        """
        latency = TimingModel(server).model_latency(config, batch_size)
        baseline_sls_s = sum(
            op.seconds for op in latency.per_op if op.op_type == OP_SLS
        )
        gather_s = 0.0
        invocations = 0
        for spec in config_ops(config):
            if spec.op_type != OP_SLS:
                continue
            invocations += 1
            pool_gather_ns = (
                spec.lookups_per_sample
                * geometry.rank_gather_ns
                / geometry.num_ranks
            )
            gather_s += batch_size * pool_gather_ns * 1e-9
        if invocations == 0 or gather_s <= 0.0:
            return cls(sls_speedup=1.0, offload_overhead_s=0.0)
        return cls(
            sls_speedup=max(1.0, baseline_sls_s / gather_s),
            offload_overhead_s=batch_size * geometry.pool_overhead_ns * 1e-9,
        )


@dataclass(frozen=True)
class NmpSpeedupResult:
    """End-to-end effect of near-memory SLS acceleration on one model."""

    model_name: str
    server_name: str
    batch_size: int
    baseline_seconds: float
    accelerated_seconds: float
    sls_share: float

    @property
    def end_to_end_speedup(self) -> float:
        """Total-latency improvement factor."""
        return self.baseline_seconds / self.accelerated_seconds


def nmp_speedup(
    server: ServerSpec,
    config: ModelConfig,
    batch_size: int,
    nmp: NmpConfig = NmpConfig(),
) -> NmpSpeedupResult:
    """Predict end-to-end latency with near-memory SLS execution.

    The Amdahl quick-estimate path: every SLS operator shrinks by
    ``nmp.sls_speedup`` plus a per-invocation offload overhead; nothing
    else moves. Agrees with the full :class:`NearMemorySystem` in the
    uniform-locality/no-contention limit (lookups spread evenly over
    ranks, no hot-row reuse — asserted by :func:`amdahl_crosscheck`) and
    diverges outside it, in both directions:

    * **pooling-factor skew** — when lookups collide on a few ranks, the
      engine's pool critical path grows while the flat factor cannot see
      it: the quick path is *optimistic*;
    * **hot-row locality** — when the trace re-references rows, the
      per-DIMM cache serves them at ``hot_hit_ns`` and the engine beats
      the flat factor: the quick path is *pessimistic*;
    * **non-divisible pooling** — lookups-per-pool not divisible by the
      rank count leaves ceil/floor imbalance the flat factor rounds away.
    """
    latency = TimingModel(server).model_latency(config, batch_size)
    baseline = latency.total_seconds
    accelerated = 0.0
    for op in latency.per_op:
        if op.op_type == OP_SLS:
            accelerated += op.seconds / nmp.sls_speedup + nmp.offload_overhead_s
        else:
            accelerated += op.seconds
    return NmpSpeedupResult(
        model_name=config.name,
        server_name=server.name,
        batch_size=batch_size,
        baseline_seconds=baseline,
        accelerated_seconds=accelerated,
        sls_share=latency.fraction_by_op_type().get("SLS", 0.0),
    )


# ----------------------------------------------------------------- geometry


@dataclass(frozen=True)
class NmpGeometry:
    """Channel/DIMM/rank shape and service times of the NMP memory system.

    Row placement is pure arithmetic: row ``r`` lives on rank
    ``r % num_ranks``, which puts it on DIMM ``rank // ranks_per_dimm``
    and channel ``dimm // dimms_per_channel`` (low-order interleave, the
    standard DRAM address-mapping default). No RNG — a table of a given
    size always maps to the same ranks, so two runs agree byte for byte.

    Service times are integer nanoseconds, which keeps every replay
    observable an exact integer sum.

    Attributes:
        channels: memory channels per socket.
        dimms_per_channel: DIMMs on each channel.
        ranks_per_dimm: ranks on each DIMM (each executes gathers locally).
        hot_rows_per_dimm: per-DIMM LRU hot-row cache capacity in rows
            (0 disables the cache).
        rank_gather_ns: rank-local row gather + accumulate service time —
            no off-chip round trip, hence far below the host's exposed
            ``dram_random_ns``.
        hot_hit_ns: service time when the DIMM's hot-row cache holds the
            row (served from the NMP buffer device, no rank access).
        pool_overhead_ns: per-pool NMP command launch + pooled-vector
            return cost, charged once per pool on the critical path.
    """

    channels: int = 4
    dimms_per_channel: int = 2
    ranks_per_dimm: int = 2
    hot_rows_per_dimm: int = 256
    rank_gather_ns: int = 40
    hot_hit_ns: int = 10
    pool_overhead_ns: int = 80

    def __post_init__(self) -> None:
        for name in ("channels", "dimms_per_channel", "ranks_per_dimm"):
            if _integer(name, getattr(self, name)) < 1:
                raise ValueError(f"{name} must be positive")
        if _integer("hot_rows_per_dimm", self.hot_rows_per_dimm) < 0:
            raise ValueError("hot_rows_per_dimm must be non-negative")
        for name in ("rank_gather_ns", "hot_hit_ns", "pool_overhead_ns"):
            if _integer(name, getattr(self, name)) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def num_dimms(self) -> int:
        """DIMMs across every channel."""
        return self.channels * self.dimms_per_channel

    @property
    def num_ranks(self) -> int:
        """Ranks across every DIMM — the gather parallelism."""
        return self.num_dimms * self.ranks_per_dimm

    def rank_of(self, row: int) -> int:
        """Rank holding embedding row ``row``."""
        return row % self.num_ranks

    def dimm_of(self, row: int) -> int:
        """DIMM holding embedding row ``row``."""
        return self.rank_of(row) // self.ranks_per_dimm

    def channel_of(self, row: int) -> int:
        """Channel holding embedding row ``row``."""
        return self.dimm_of(row) // self.dimms_per_channel


# ------------------------------------------------------------------- result


@dataclass(frozen=True, eq=False)
class NmpReplayResult:
    """Observables of one trace replay through :class:`NearMemorySystem`.

    Every field is integer-exact and loop-invariant: the equivalence
    suite compares them record for record between the reference loop and
    the native kernel.
    """

    pool_latencies_ns: np.ndarray
    per_rank_busy_ns: np.ndarray
    per_dimm_hot_hits: np.ndarray
    per_dimm_hot_misses: np.ndarray

    @property
    def num_pools(self) -> int:
        """Pooled SLS invocations replayed."""
        return int(self.pool_latencies_ns.size)

    @property
    def num_lookups(self) -> int:
        """Individual row gathers replayed."""
        return int(self.per_dimm_hot_hits.sum() + self.per_dimm_hot_misses.sum())

    @property
    def elapsed_ns(self) -> int:
        """Total simulated time: pools are serialized by the SLS barrier."""
        return int(self.pool_latencies_ns.sum())

    @property
    def elapsed_s(self) -> float:
        """Total simulated time in seconds."""
        return self.elapsed_ns * 1e-9

    @property
    def hot_hits(self) -> int:
        """Lookups served by the per-DIMM hot-row caches."""
        return int(self.per_dimm_hot_hits.sum())

    @property
    def hot_misses(self) -> int:
        """Lookups that went to a rank."""
        return int(self.per_dimm_hot_misses.sum())

    @property
    def hot_hit_ratio(self) -> float:
        """Fraction of lookups served by the hot-row caches."""
        total = self.num_lookups
        return self.hot_hits / total if total else 0.0

    @property
    def rank_utilization(self) -> float:
        """Mean rank busy time over elapsed time (1.0 = perfectly packed)."""
        elapsed_ns = self.elapsed_ns
        if elapsed_ns == 0 or self.per_rank_busy_ns.size == 0:
            return 0.0
        return float(self.per_rank_busy_ns.mean()) / elapsed_ns

    @property
    def rank_imbalance(self) -> float:
        """Busiest rank over mean rank load (1.0 = perfectly balanced)."""
        if self.per_rank_busy_ns.size == 0:
            return 1.0
        mean_ns = float(self.per_rank_busy_ns.mean())
        if mean_ns == 0.0:
            return 1.0
        return float(self.per_rank_busy_ns.max()) / mean_ns

    def digest(self) -> dict:
        """Canonical int summary for bit-identity assertions."""
        return {
            "num_pools": self.num_pools,
            "num_lookups": self.num_lookups,
            "elapsed_ns": self.elapsed_ns,
            "hot_hits": self.hot_hits,
            "hot_misses": self.hot_misses,
            "pool_latencies": self.pool_latencies_ns.tolist(),
            "per_rank_busy": self.per_rank_busy_ns.tolist(),
            "per_dimm_hits": self.per_dimm_hot_hits.tolist(),
            "per_dimm_misses": self.per_dimm_hot_misses.tolist(),
        }


# ------------------------------------------------------------------- engine


class NearMemorySystem:
    """Rank-parallel DIMM-side SLS execution with per-DIMM hot-row caches.

    Timing semantics (identical in both loops):

    * each lookup is placed on rank ``row % num_ranks``;
    * a lookup first probes its DIMM's LRU hot-row cache — a hit costs
      ``hot_hit_ns``, a miss costs ``rank_gather_ns`` and allocates the
      row (evicting the DIMM's LRU row when full);
    * within a pool, each rank executes its lookups serially and all
      ranks run in parallel, so the pool's latency is its busiest rank's
      busy time plus ``pool_overhead_ns``;
    * pools are serialized (an SLS must reduce before returning), so the
      replay's elapsed time is the sum of pool latencies.

    Hot-row cache state persists across :meth:`replay` calls (call
    :meth:`reset` between independent traces).

    Args:
        geometry: channel/DIMM/rank shape and service times.
        tracer: optional :class:`~repro.obs.tracer.Tracer`; each replay
            is recorded as a ``memory.nmp.replay`` span on the simulated
            clock. Observational only — never changes an observable.
        track: tracer track (viewer lane) the replay spans land on.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            replays increment ``memory.nmp.lookups`` /
            ``memory.nmp.hot_hits`` / ``memory.nmp.hot_misses`` counters
            and set the ``memory.nmp.rank_imbalance`` gauge, each
            labelled with :attr:`backend`.

    A system replays in the native C kernel when it loads, and in the
    per-access reference loop otherwise (no compiler, or
    ``REPRO_DISABLE_NATIVE=1``); :attr:`backend` says which,
    ``"native"`` or ``"reference"``.
    """

    def __init__(
        self,
        geometry: NmpGeometry = NmpGeometry(),
        tracer: "Tracer | NullTracer | None" = None,
        metrics: MetricsRegistry | None = None,
        track: int = 0,
    ) -> None:
        self.geometry = geometry
        self.tracer = as_tracer(tracer)
        self.metrics = metrics
        self.track = track
        self._kernel = load_nmp_kernel()
        self.backend = "reference" if self._kernel is None else "native"
        self._clock_ns = 0
        self.reset()

    # ----------------------------------------------------------------- state

    def reset(self) -> None:
        """Clear hot-row cache state and the simulated clock."""
        geometry = self.geometry
        self._clock_ns = 0
        if self._kernel is None:
            self._hot: list[OrderedDict[int, None]] = [
                OrderedDict() for _ in range(geometry.num_dimms)
            ]
        else:
            self._state = VectorizedHotRowState(
                geometry.num_dimms, geometry.hot_rows_per_dimm
            )

    def resident_hot_rows(self) -> int:
        """Rows currently held across every DIMM's hot cache."""
        if self._kernel is None:
            return sum(len(cache) for cache in self._hot)
        return self._state.resident_rows()

    # ---------------------------------------------------------------- replay

    def _check_trace(
        self, rows: np.ndarray, lengths: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        if rows.size and rows.min() < 0:
            raise ValueError("row ids must be non-negative")
        if lengths is None:
            lengths = np.array([rows.size], dtype=np.int64)
        else:
            lengths = np.asarray(lengths, dtype=np.int64).reshape(-1)
            if lengths.size and lengths.min() < 0:
                raise ValueError("pool lengths must be non-negative")
            if int(lengths.sum()) != rows.size:
                raise ValueError(
                    f"pool lengths sum to {int(lengths.sum())} but the trace "
                    f"has {rows.size} lookups"
                )
        return rows, lengths

    def replay(
        self, rows: np.ndarray, lengths: np.ndarray | None = None
    ) -> NmpReplayResult:
        """Execute a lookup trace; returns loop-invariant observables.

        Args:
            rows: int64 embedding-row ids in trace order.
            lengths: lookups per pooled SLS invocation (``sum == len(rows)``);
                ``None`` treats the whole trace as one pool.
        """
        rows, lengths = self._check_trace(rows, lengths)
        if self._kernel is None:
            result = self._replay_reference(rows, lengths)
        else:
            result = self._replay_native(rows, lengths)
        self._observe(result)
        return result

    def _observe(self, result: NmpReplayResult) -> None:
        """Report a replay to the tracer/metrics (observational only)."""
        begin_ns = self._clock_ns
        self._clock_ns += result.elapsed_ns
        self.tracer.complete(
            "memory.nmp.replay",
            begin_ns * 1e-9,
            self._clock_ns * 1e-9,
            track=self.track,
            pools=result.num_pools,
            lookups=result.num_lookups,
            hot_hits=result.hot_hits,
            rank_imbalance=result.rank_imbalance,
        )
        if self.metrics is not None:
            backend = self.backend
            self.metrics.counter("memory.nmp.lookups", backend=backend).inc(
                result.num_lookups
            )
            self.metrics.counter("memory.nmp.hot_hits", backend=backend).inc(
                result.hot_hits
            )
            self.metrics.counter("memory.nmp.hot_misses", backend=backend).inc(
                result.hot_misses
            )
            self.metrics.gauge("memory.nmp.rank_imbalance", backend=backend).set(
                result.rank_imbalance
            )

    # ------------------------------------------------------------- reference

    def _replay_reference(
        self, rows: np.ndarray, lengths: np.ndarray
    ) -> NmpReplayResult:
        """Per-access specification loop: plain ints and OrderedDicts."""
        geometry = self.geometry
        num_ranks = geometry.num_ranks
        ranks_per_dimm = geometry.ranks_per_dimm
        capacity = geometry.hot_rows_per_dimm
        gather_ns = geometry.rank_gather_ns
        hit_ns = geometry.hot_hit_ns
        pool_latencies = []
        per_rank_busy = [0] * num_ranks
        per_dimm_hits = [0] * geometry.num_dimms
        per_dimm_misses = [0] * geometry.num_dimms
        cursor = 0
        row_list = rows.tolist()
        for pool_size in lengths.tolist():
            rank_load = [0] * num_ranks
            for row in row_list[cursor : cursor + pool_size]:
                rank = row % num_ranks
                dimm = rank // ranks_per_dimm
                cache = self._hot[dimm]
                if row in cache:
                    cache.move_to_end(row)
                    per_dimm_hits[dimm] += 1
                    cost_ns = hit_ns
                else:
                    per_dimm_misses[dimm] += 1
                    cost_ns = gather_ns
                    if capacity > 0:
                        if len(cache) >= capacity:
                            cache.popitem(last=False)
                        cache[row] = None
                rank_load[rank] += cost_ns
                per_rank_busy[rank] += cost_ns
            cursor += pool_size
            pool_latencies.append(max(rank_load) + geometry.pool_overhead_ns)
        return NmpReplayResult(
            pool_latencies_ns=np.asarray(pool_latencies, dtype=np.int64),
            per_rank_busy_ns=np.asarray(per_rank_busy, dtype=np.int64),
            per_dimm_hot_hits=np.asarray(per_dimm_hits, dtype=np.int64),
            per_dimm_hot_misses=np.asarray(per_dimm_misses, dtype=np.int64),
        )

    # ---------------------------------------------------------------- native

    def _replay_native(
        self, rows: np.ndarray, lengths: np.ndarray
    ) -> NmpReplayResult:
        """One C call: hot-row cache, placement and pool/rank accounting."""
        geometry = self.geometry
        pool_latencies, rank_busy, dimm_hits, dimm_misses = self._kernel.replay(
            rows,
            lengths,
            self._state.tags,
            self._state.occupancy,
            geometry.hot_rows_per_dimm,
            geometry.ranks_per_dimm,
            geometry.num_ranks,
            geometry.rank_gather_ns,
            geometry.hot_hit_ns,
            geometry.pool_overhead_ns,
        )
        return NmpReplayResult(
            pool_latencies_ns=pool_latencies,
            per_rank_busy_ns=rank_busy,
            per_dimm_hot_hits=dimm_hits,
            per_dimm_hot_misses=dimm_misses,
        )


# --------------------------------------------------------- Amdahl crosscheck


@dataclass(frozen=True)
class AmdahlCrossCheck:
    """Quick-estimate vs full-engine accelerated latency on one model.

    In the uniform-locality/no-contention limit (every pool's lookups
    spread evenly over all ranks, no hot-row reuse) the three paths must
    agree; ``tests/test_nmp_equivalence.py`` asserts it. See
    :func:`nmp_speedup` for the divergence regimes outside that limit.
    """

    baseline_seconds: float
    amdahl_seconds: float
    engine_seconds: float
    model_seconds: float

    @property
    def amdahl_vs_engine_rel(self) -> float:
        """Relative gap between the Amdahl path and the full engine."""
        return abs(self.amdahl_seconds - self.engine_seconds) / self.engine_seconds

    @property
    def model_vs_engine_rel(self) -> float:
        """Relative gap between the analytic TimingModel path and the engine."""
        return abs(self.model_seconds - self.engine_seconds) / self.engine_seconds


def amdahl_crosscheck(
    server: ServerSpec,
    config: ModelConfig,
    batch_size: int,
    geometry: NmpGeometry = NmpGeometry(),
) -> AmdahlCrossCheck:
    """Compare the three NMP fidelities in the uniform limit.

    Builds a perfectly uniform trace for every SLS operator — consecutive
    never-repeating rows, so placement round-robins over ranks and the
    hot caches never hit — replays it through a real
    :class:`NearMemorySystem`, and prices the same model through (a) the
    :func:`nmp_speedup` Amdahl path with the geometry-derived
    :class:`NmpConfig` and (b) ``TimingModel(server, nmp=geometry)``.

    The small residual between the Amdahl path and the other two is the
    per-operator dispatch overhead (``OP_OVERHEAD_S``), which the flat
    factor scales down along with the operator body; it is bounded by
    ``OP_OVERHEAD_S`` per SLS operator.
    """
    baseline = TimingModel(server).model_latency(config, batch_size)
    derived = NmpConfig.from_geometry(server, geometry, config, batch_size)
    amdahl = nmp_speedup(server, config, batch_size, derived)

    system = NearMemorySystem(geometry)
    engine_seconds = 0.0
    next_row = 0
    for spec, op in zip(config_ops(config), baseline.per_op):
        if spec.op_type != OP_SLS:
            engine_seconds += op.seconds
            continue
        lookups = batch_size * spec.lookups_per_sample
        # Consecutive fresh rows: exact round-robin placement, zero reuse.
        rows = np.arange(next_row, next_row + lookups, dtype=np.int64)
        next_row += lookups
        lengths = np.full(batch_size, spec.lookups_per_sample, dtype=np.int64)
        result = system.replay(rows, lengths)
        engine_seconds += result.elapsed_s + OP_OVERHEAD_S

    model_seconds = TimingModel(server, nmp=geometry).model_seconds(
        config, batch_size, sls_hit_ratio=0.0
    )
    return AmdahlCrossCheck(
        baseline_seconds=baseline.total_seconds,
        amdahl_seconds=amdahl.accelerated_seconds,
        engine_seconds=engine_seconds,
        model_seconds=model_seconds,
    )
