"""Operator- and model-level latency prediction on Table-II servers.

A roofline-style analytical model per operator, parameterized by the server
generation and a :class:`~repro.hw.colocation.ColocationState`:

* **FC / BatchMatMul** — ``max(compute, weight-stream)`` where compute uses
  the batch-dependent SIMD utilization (:mod:`repro.hw.simd`) and the weight
  stream reads from whichever level the weights fit in (private L2, LLC
  share, or DRAM). Co-location multiplies by the FC contention factor.
* **SLS** — the larger of a core-side gather/accumulate cost (amortizing
  with batch) and a memory cost that blends an LLC-hit path (for tables
  resident in the LLC — RMC1) with a DRAM-miss path (for multi-GB tables —
  RMC2/RMC3). Both paths degrade under co-location: hits through LLC
  bandwidth sharing and churn, misses through MLP collapse, bandwidth
  sharing and (on inclusive hierarchies) back-invalidation.
* **Concat / Activation** — streaming data movement at L2 bandwidth.

Every constant is either a Table-II parameter or a calibration anchor
documented in DESIGN.md §5 and asserted by
``tests/test_calibration_anchors.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..config.model_config import ModelConfig
from ..core.graph import OpSpec, config_ops
from ..core.operators.base import (
    OP_ACTIVATION,
    OP_BATCH_MATMUL,
    OP_CONCAT,
    OP_FC,
    OP_SLS,
)
from .colocation import (
    ColocationState,
    ContentionModel,
    HIT_CHURN_PENALTY,
    OVERFLOW_PENALTY,
    RUN_ALONE,
    hit_overlap,
)
from .server import ServerSpec
from .simd import _interp_log_batch, effective_gflops

if TYPE_CHECKING:
    from ..memory.near_memory import NmpGeometry
    from ..obs.profile import OpProfiler

#: Framework dispatch overhead per operator invocation (seconds).
OP_OVERHEAD_S = 0.2e-6

#: Hyperthreading slowdowns (Section VI): two threads time-share the SIMD
#: ports (FC suffers more) and the load ports (SLS suffers less).
HT_FC_FACTOR = 1.6
HT_SLS_FACTOR = 1.3

#: Per-core cache bandwidth, bytes per cycle.
L2_BYTES_PER_CYCLE = 64
LLC_BYTES_PER_CYCLE = 16

#: Fraction of the LLC usable for keeping embedding tables warm.
LLC_TABLE_FRACTION = 0.9

#: Imperfect overlap between GEMM compute and DRAM weight streaming: when
#: FC weights no longer fit the job's LLC share, this fraction of the
#: stream time adds to the compute time (the mechanism behind RMC3's 1.6x
#: co-location degradation in Figure 9 — its 5 MB Bottom-FC layer spills
#: once eight jobs split the LLC).
DRAM_STREAM_OVERLAP_TAX = 0.8

#: Baseline per-job warm footprint beyond FC weights (thread stacks, queues,
#: framework buffers) used when deriving a ColocationState from a config.
JOB_BASE_RESIDENT_BYTES = 512 * 1024

#: Warm bytes per embedding table (hot rows + indirection metadata).
TABLE_RESIDENT_BYTES = 16 * 1024


@dataclass(frozen=True)
class OperatorTime:
    """Predicted latency of one operator invocation."""

    name: str
    op_type: str
    seconds: float
    compute_seconds: float
    memory_seconds: float


@dataclass(frozen=True)
class ModelLatency:
    """Predicted end-to-end latency of one model inference."""

    model_name: str
    server_name: str
    batch_size: int
    per_op: tuple[OperatorTime, ...]

    @property
    def total_seconds(self) -> float:
        """End-to-end inference latency."""
        return sum(op.seconds for op in self.per_op)

    @property
    def seconds_per_sample(self) -> float:
        """Latency divided by batch size (throughput view)."""
        return self.total_seconds / self.batch_size

    def seconds_by_op_type(self) -> dict[str, float]:
        """Latency grouped by Figure-4 operator category."""
        out: dict[str, float] = {}
        for op in self.per_op:
            out[op.op_type] = out.get(op.op_type, 0.0) + op.seconds
        return out

    def fraction_by_op_type(self) -> dict[str, float]:
        """Share of total latency per operator category."""
        total = self.total_seconds
        return {k: v / total for k, v in self.seconds_by_op_type().items()}


@dataclass(frozen=True)
class _OpPlan:
    """A config's operators, grouped by shape for ``model_latency``.

    ``shapes`` holds the first operator of each distinct shape (every
    :class:`OpSpec` field but ``name``), and ``slots[i]`` is the index in
    ``shapes`` of ``ops[i]``'s shape. RMC2's 20 tables share one shape.
    """

    ops: tuple[OpSpec, ...]
    shapes: tuple[OpSpec, ...]
    slots: tuple[int, ...]

    @classmethod
    def of(cls, ops: list[OpSpec]) -> _OpPlan:
        index: dict[tuple, int] = {}
        shapes: list[OpSpec] = []
        slots: list[int] = []
        for spec in ops:
            fields = dict(vars(spec))
            del fields["name"]
            shape = tuple(fields.values())
            slot = index.get(shape)
            if slot is None:
                slot = index[shape] = len(shapes)
                shapes.append(spec)
            slots.append(slot)
        return cls(tuple(ops), tuple(shapes), tuple(slots))


def _renamed(op: OperatorTime, name: str) -> OperatorTime:
    """``op`` under another operator's ``name``, every value kept."""
    if op.name == name:
        return op
    return OperatorTime(
        name, op.op_type, op.seconds, op.compute_seconds, op.memory_seconds
    )


class TimingModel:
    """Latency predictor for one server generation.

    Args:
        server: the Table-II server generation to price operators on.
        profiler: optional :class:`~repro.obs.profile.OpProfiler`; when
            set, every operator this model prices is reported to it with
            its simulated cycles and the bytes it touches. Profiling is
            observational only — it never changes a priced latency.
        nmp: optional :class:`~repro.memory.near_memory.NmpGeometry`;
            when set, SLS operators are priced on the near-memory backend
            (rank-parallel DIMM-side gathers, see
            :mod:`repro.memory.near_memory`) instead of the host cache
            hierarchy. ``nmp=None`` (the default) is a bit-identical
            off-switch: no code path changes. With NMP, the
            ``hit_ratio`` passed to :meth:`sls_time` means the DIMM-side
            hot-row cache hit fraction (trace-temporal reuse), not LLC
            residency — :meth:`model_latency`'s default derivation
            therefore uses only ``locality_hit_ratio`` when NMP is on,
            since capacity residency in the host LLC is irrelevant to
            DIMM-side execution.
    """

    def __init__(
        self,
        server: ServerSpec,
        profiler: "OpProfiler | None" = None,
        nmp: "NmpGeometry | None" = None,
    ) -> None:
        self.server = server
        self.contention = ContentionModel(server)
        self.profiler = profiler
        self.nmp = nmp
        # Each config's operators and their distinct shapes, expanded once
        # per model and keyed by the frozen config; see :meth:`_op_plan`.
        self._plans: dict[ModelConfig, _OpPlan] = {}

    def _op_plan(self, config: ModelConfig) -> _OpPlan:
        """``config_ops(config)`` with its operators grouped by shape."""
        plan = self._plans.get(config)
        if plan is None:
            plan = _OpPlan.of(config_ops(config))
            self._plans[config] = plan
        return plan

    def _profile_op(self, op: OperatorTime, bytes_moved: float) -> OperatorTime:
        """Report a priced operator to the attached profiler, if any."""
        if self.profiler is not None:
            self.profiler.record_timed_op(
                op, self.server.frequency_ghz, bytes_moved
            )
        return op

    # -------------------------------------------------------------- dense

    def _l2_bandwidth(self) -> float:
        return L2_BYTES_PER_CYCLE * self.server.frequency_ghz * 1e9

    def _llc_bandwidth(self) -> float:
        return LLC_BYTES_PER_CYCLE * self.server.frequency_ghz * 1e9

    def fc_time(
        self,
        name: str,
        flops: int,
        weight_bytes: int,
        activation_bytes: int,
        batch: int,
        state: ColocationState = RUN_ALONE,
        op_type: str = OP_FC,
    ) -> OperatorTime:
        """Latency of a dense layer (FC or batched-matmul interaction)."""
        compute = flops / (effective_gflops(self.server, batch) * 1e9)
        if state.hyperthreading:
            compute *= HT_FC_FACTOR

        l2_eff = self.server.l2_bytes
        llc_share = self.contention.llc_share_bytes(state)
        dram_resident = False
        if weight_bytes <= l2_eff * 1.05:
            stream = weight_bytes / self._l2_bandwidth()
        elif weight_bytes <= l2_eff + llc_share:
            stream = weight_bytes / self._llc_bandwidth()
        else:
            dram_resident = True
            stream = weight_bytes / self.contention.stream_bandwidth_share(state)
        stream += activation_bytes / self._l2_bandwidth()

        contention_factor = self.contention.fc_contention_factor(state, weight_bytes)
        base = max(compute, stream)
        if dram_resident:
            # DRAM weight streaming does not fully hide behind compute.
            base += DRAM_STREAM_OVERLAP_TAX * min(compute, stream)
        seconds = base * contention_factor + OP_OVERHEAD_S
        op = OperatorTime(
            name=name,
            op_type=op_type,
            seconds=seconds,
            compute_seconds=compute * contention_factor,
            memory_seconds=stream,
        )
        return self._profile_op(op, weight_bytes + activation_bytes)

    # --------------------------------------------------------------- sparse

    def _sls_core_ns(self, batch: int) -> float:
        cycles = _interp_log_batch(self.server.sls_cycles_per_lookup, batch)
        return cycles / self.server.frequency_ghz

    def sls_miss_ns(
        self,
        embedding_dim: int,
        batch: int,
        state: ColocationState = RUN_ALONE,
        dtype_bytes: int = 4,
    ) -> float:
        """Exposed nanoseconds per DRAM-missing embedding row gather."""
        row_bytes = max(64, embedding_dim * dtype_bytes)
        raw_latency_ns = self.server.dram_random_ns * 3.0
        mlp = self.contention.memory_level_parallelism(state, batch)
        latency_term = (raw_latency_ns / mlp) * (
            1.0 + self.contention.inclusive_dram_penalty(state)
        )
        demand = self.sls_demand_bytes_per_s(embedding_dim, batch, dtype_bytes)
        share = self.contention.random_bandwidth_share(state, demand)
        bandwidth_term = row_bytes / (share * 1e-9)
        miss_ns = max(latency_term, bandwidth_term)
        return miss_ns * (1.0 + OVERFLOW_PENALTY * self.contention.llc_overflow(state))

    def sls_hit_ns(
        self,
        embedding_dim: int,
        batch: int,
        state: ColocationState = RUN_ALONE,
        dtype_bytes: int = 4,
    ) -> float:
        """Nanoseconds per LLC-hitting embedding row gather."""
        row_bytes = max(64, embedding_dim * dtype_bytes)
        latency_ns = self.server.llc_latency_cycles / self.server.frequency_ghz
        latency_term = latency_ns / hit_overlap(batch)
        share = self.contention.llc_gather_bandwidth_share(state)
        bandwidth_term = row_bytes / (share * 1e-9)
        penalty = 1.0 + HIT_CHURN_PENALTY * self.contention.llc_churn(state)
        penalty += self.contention.l2_back_invalidation_penalty(state)
        return max(latency_term, bandwidth_term) * penalty

    def sls_lookup_ns(
        self,
        embedding_dim: int,
        batch: int = 1,
        state: ColocationState = RUN_ALONE,
        hit_ratio: float = 0.0,
        dtype_bytes: int = 4,
    ) -> float:
        """Exposed nanoseconds per pooled embedding lookup.

        The gather cost is the larger of a core-side component (address
        generation and accumulation, amortizing with batch) and a memory
        component blending the LLC-hit and DRAM-miss paths by ``hit_ratio``.
        """
        if not 0.0 <= hit_ratio <= 1.0:
            raise ValueError("hit_ratio must be in [0, 1]")
        core_ns = self._sls_core_ns(batch)
        core_ns *= 1.0 + self.contention.l2_back_invalidation_penalty(state)
        memory_ns = hit_ratio * self.sls_hit_ns(embedding_dim, batch, state, dtype_bytes)
        memory_ns += (1.0 - hit_ratio) * self.sls_miss_ns(
            embedding_dim, batch, state, dtype_bytes
        )
        lookup_ns = max(core_ns, memory_ns)
        if state.hyperthreading:
            # Two threads share the load ports and miss queues (Section VI).
            lookup_ns *= HT_SLS_FACTOR
        return lookup_ns

    def sls_demand_bytes_per_s(
        self, embedding_dim: int, batch: int = 1, dtype_bytes: int = 4
    ) -> float:
        """Uncontended per-job random-access bandwidth demand of SLS misses."""
        row_bytes = max(64, embedding_dim * dtype_bytes)
        uncontended_ns = self._sls_core_ns(batch) + self.server.dram_random_ns
        return row_bytes / (uncontended_ns * 1e-9)

    def table_hit_ratio(
        self, total_table_bytes: int, locality_hit_ratio: float = 0.0
    ) -> float:
        """Fraction of lookups expected to hit in the LLC.

        Capacity residency (small tables stay warm: RMC1) combines with any
        input locality (Figure 14 traces): a lookup hits if its row is
        capacity-resident or if it re-references a recently-used row.
        """
        capacity = min(
            1.0, LLC_TABLE_FRACTION * self.server.l3_bytes / max(1, total_table_bytes)
        )
        return capacity + (1.0 - capacity) * locality_hit_ratio

    def _nmp_sls_time(
        self,
        name: str,
        lookups_per_sample: int,
        embedding_dim: int,
        batch: int,
        hit_ratio: float,
        dtype_bytes: int,
    ) -> OperatorTime:
        """SLS priced on the near-memory backend (analytic expectation).

        Each of the ``batch`` pools spreads its lookups over every rank
        (the uniform expectation of the low-order interleave placement);
        ``hit_ratio`` is the DIMM-side hot-row cache hit fraction. The
        full trace-driven engine
        (:class:`~repro.memory.near_memory.NearMemorySystem`) refines
        this with actual placement skew and LRU hot-cache behaviour —
        :func:`~repro.memory.near_memory.amdahl_crosscheck` proves the
        two agree in the uniform-locality/no-contention limit.
        """
        geometry = self.nmp
        per_lookup_ns = hit_ratio * geometry.hot_hit_ns
        per_lookup_ns += (1.0 - hit_ratio) * geometry.rank_gather_ns
        gather_s = (
            batch * lookups_per_sample * per_lookup_ns / geometry.num_ranks * 1e-9
        )
        launch_s = batch * geometry.pool_overhead_ns * 1e-9
        op = OperatorTime(
            name=name,
            op_type=OP_SLS,
            seconds=gather_s + launch_s + OP_OVERHEAD_S,
            compute_seconds=launch_s,
            memory_seconds=gather_s,
        )
        # Only the pooled vectors cross the memory bus — that reduction
        # in bus traffic is the point of near-memory execution.
        pooled_bytes = batch * max(64, embedding_dim * dtype_bytes)
        return self._profile_op(op, pooled_bytes)

    def sls_time(
        self,
        name: str,
        lookups_per_sample: int,
        embedding_dim: int,
        batch: int,
        state: ColocationState = RUN_ALONE,
        hit_ratio: float = 0.0,
        dtype_bytes: int = 4,
    ) -> OperatorTime:
        """Latency of one SparseLengthsSum invocation."""
        if self.nmp is not None:
            if not 0.0 <= hit_ratio <= 1.0:
                raise ValueError("hit_ratio must be in [0, 1]")
            return self._nmp_sls_time(
                name, lookups_per_sample, embedding_dim, batch, hit_ratio, dtype_bytes
            )
        lookup_ns = self.sls_lookup_ns(embedding_dim, batch, state, hit_ratio, dtype_bytes)
        total_lookups = batch * lookups_per_sample
        seconds = total_lookups * lookup_ns * 1e-9 + OP_OVERHEAD_S
        compute = total_lookups * self._sls_core_ns(batch) * 1e-9
        op = OperatorTime(
            name=name,
            op_type=OP_SLS,
            seconds=seconds,
            compute_seconds=min(compute, seconds),
            memory_seconds=max(0.0, seconds - compute - OP_OVERHEAD_S),
        )
        gathered_bytes = total_lookups * max(64, embedding_dim * dtype_bytes)
        return self._profile_op(op, gathered_bytes)

    # ------------------------------------------------------------- movement

    def movement_time(
        self,
        name: str,
        op_type: str,
        bytes_moved: int,
        flops: int = 0,
        state: ColocationState = RUN_ALONE,
    ) -> OperatorTime:
        """Streaming data-movement ops: Concat and element-wise activations."""
        memory = bytes_moved / self._l2_bandwidth()
        compute = flops / (self.server.peak_gflops_per_core * 1e9 * 0.25)
        if state.hyperthreading:
            compute *= HT_SLS_FACTOR
        seconds = max(memory, compute) + OP_OVERHEAD_S
        op = OperatorTime(
            name=name,
            op_type=op_type,
            seconds=seconds,
            compute_seconds=compute,
            memory_seconds=memory,
        )
        return self._profile_op(op, bytes_moved)

    # ------------------------------------------------------------ dispatch

    def op_time(
        self,
        spec: OpSpec,
        batch: int,
        state: ColocationState = RUN_ALONE,
        sls_hit_ratio: float = 0.0,
    ) -> OperatorTime:
        """Latency of one abstract operator at ``batch``."""
        if batch < 1:
            raise ValueError("batch must be >= 1")
        if spec.op_type in (OP_FC, OP_BATCH_MATMUL):
            return self.fc_time(
                name=spec.name,
                flops=batch * spec.flops_per_sample,
                weight_bytes=spec.weight_bytes,
                activation_bytes=batch * spec.activation_bytes_per_sample,
                batch=batch,
                state=state,
                op_type=spec.op_type,
            )
        if spec.op_type == OP_SLS:
            return self.sls_time(
                name=spec.name,
                lookups_per_sample=spec.lookups_per_sample,
                embedding_dim=spec.embedding_dim,
                batch=batch,
                state=state,
                hit_ratio=sls_hit_ratio,
                dtype_bytes=spec.dtype_bytes,
            )
        if spec.op_type in (OP_CONCAT, OP_ACTIVATION):
            return self.movement_time(
                name=spec.name,
                op_type=spec.op_type,
                bytes_moved=batch * spec.activation_bytes_per_sample,
                flops=batch * spec.flops_per_sample,
                state=state,
            )
        raise ValueError(f"no timing model for op type {spec.op_type!r}")

    # ----------------------------------------------------------- model-level

    def model_latency(
        self,
        config: ModelConfig,
        batch: int,
        state: ColocationState = RUN_ALONE,
        sls_hit_ratio: float | None = None,
        locality_hit_ratio: float = 0.0,
    ) -> ModelLatency:
        """End-to-end inference latency of ``config`` at ``batch``.

        Args:
            config: the model architecture (production-scale configs are
                fine; nothing is allocated).
            batch: inference batch size.
            state: co-location context.
            sls_hit_ratio: explicit LLC hit ratio for embedding lookups;
                ``None`` derives it from table capacity vs the LLC plus
                ``locality_hit_ratio``.
            locality_hit_ratio: input-trace reuse (Figure 14): the fraction
                of lookups that would hit due to temporal locality even
                without capacity residency.
        """
        if sls_hit_ratio is None:
            if self.nmp is not None:
                # DIMM-side execution: host-LLC capacity residency is
                # irrelevant, only trace-temporal reuse reaches the
                # per-DIMM hot-row caches.
                sls_hit_ratio = locality_hit_ratio
            else:
                sls_hit_ratio = self.table_hit_ratio(
                    config.embedding_storage_bytes(), locality_hit_ratio
                )
        plan = self._op_plan(config)
        if self.profiler is not None:
            # The profiler hears one record per operator, in order.
            per_op = tuple(
                self.op_time(spec, batch, state, sls_hit_ratio)
                for spec in plan.ops
            )
        else:
            # An operator's time depends on its shape, never its name, so
            # each shape is priced once and its copies take their names.
            priced = [
                self.op_time(spec, batch, state, sls_hit_ratio)
                for spec in plan.shapes
            ]
            per_op = tuple(
                _renamed(priced[slot], spec.name)
                for spec, slot in zip(plan.ops, plan.slots)
            )
        return ModelLatency(
            model_name=config.name,
            server_name=self.server.name,
            batch_size=batch,
            per_op=per_op,
        )

    def resident_bytes(self, config: ModelConfig) -> int:
        """Warm working set one ``config`` job parks in the shared LLC."""
        fc_bytes = sum(
            spec.weight_bytes
            for spec in self._op_plan(config).ops
            if spec.op_type == OP_FC
        )
        return (
            fc_bytes
            + JOB_BASE_RESIDENT_BYTES
            + TABLE_RESIDENT_BYTES * config.num_tables
        )

    def colocation_state(
        self,
        config: ModelConfig,
        batch: int,
        num_jobs: int,
        hyperthreading: bool = False,
    ) -> ColocationState:
        """Build the state for ``num_jobs`` co-located instances of ``config``.

        Derives both the per-co-runner random DRAM traffic and the per-job
        resident working set from the model itself, which is what separates
        the paper's co-location outcomes: RMC1 jobs generate almost no DRAM
        traffic (LLC-resident tables), RMC2 jobs ~1-2 GB/s, RMC3 jobs park
        multi-MB FC weights.
        """
        return ColocationState(
            num_jobs=num_jobs,
            hyperthreading=hyperthreading,
            resident_bytes_per_job=self.resident_bytes(config),
            corunner_random_gbps=self.estimate_random_traffic_gbps(config, batch),
        )

    def estimate_random_traffic_gbps(self, config: ModelConfig, batch: int) -> float:
        """Random DRAM traffic (GB/s) one instance of ``config`` generates.

        Used to parameterize :class:`ColocationState.corunner_random_gbps`
        for homogeneous co-location experiments: LLC-resident models (RMC1)
        produce almost none; RMC2 produces ~1 GB/s, matching the paper.
        """
        hit = self.table_hit_ratio(config.embedding_storage_bytes())
        latency_s = self.model_latency(config, batch).total_seconds
        miss_bytes = 0.0
        for spec in self._op_plan(config).ops:
            if spec.op_type == OP_SLS:
                row_bytes = max(64, spec.embedding_dim * spec.dtype_bytes)
                miss_bytes += (1.0 - hit) * batch * spec.lookups_per_sample * row_bytes
        return miss_bytes / latency_s / 1e9
