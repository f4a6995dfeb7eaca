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
    """A config's operators, grouped by shape for whole-model pricing.

    ``shapes`` holds the first operator of each distinct shape (every
    :class:`OpSpec` field but ``name``), and ``slots[i]`` is the index in
    ``shapes`` of ``ops[i]``'s shape. RMC2's 20 tables share one shape.
    ``table_bytes`` is the config's embedding storage, which sets the
    default LLC hit ratio.
    """

    ops: tuple[OpSpec, ...]
    shapes: tuple[OpSpec, ...]
    slots: tuple[int, ...]
    table_bytes: int

    @classmethod
    def of(cls, config: ModelConfig) -> _OpPlan:
        index: dict[tuple, int] = {}
        ops = config_ops(config)
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
        return cls(
            tuple(ops), tuple(shapes), tuple(slots), config.embedding_storage_bytes()
        )


def _row_bytes(embedding_dim: int, dtype_bytes: int) -> int:
    """Bytes one embedding-row gather moves: at least a cache line."""
    return max(64, embedding_dim * dtype_bytes)


def _check_hit_ratio(hit_ratio: float) -> None:
    if not 0.0 <= hit_ratio <= 1.0:
        raise ValueError("hit_ratio must be in [0, 1]")


class _Terms:
    """The roofline terms one pricing call shares.

    Each term depends only on the server, the batch and the co-location
    state, never on an operator's shape, so a whole-model call computes
    each once and prices every distinct shape from them. Each group is
    computed on its first read: a one-operator call pays only for the
    terms its operator reads (``fc_time`` never interpolates the SLS
    anchors). Every term is the exact subexpression the per-operator
    formulas compute, in their operand order, so hoisting it keeps every
    bit.
    """

    __slots__ = ("timing", "batch", "state", "_fc", "_core", "_hit", "_miss")

    def __init__(self, timing: TimingModel, batch: int, state: ColocationState) -> None:
        # Every price goes through here, the near-memory backend's too,
        # which reads none of the batch-interpolated terms.
        if batch < 1:
            raise ValueError("batch must be >= 1")
        self.timing = timing
        self.batch = batch
        self.state = state
        self._fc: tuple[float, float, float, tuple] | None = None
        self._core: tuple[float, float] | None = None
        self._hit: tuple[float, float, float, float] | None = None
        self._miss: tuple[float, float] | None = None

    def fc(self) -> tuple[float, float, float, tuple]:
        """Achieved FLOP/s, the LLC-resident weight limit (bytes), the LLC
        share (bytes) and the contention factor of each regime."""
        if self._fc is None:
            timing, state = self.timing, self.state
            contention = timing.contention
            llc_share = contention.llc_share_bytes(state)
            self._fc = (
                effective_gflops(timing.server, self.batch) * 1e9,
                timing.server.l2_bytes + llc_share,
                llc_share,
                contention._fc_factors(state),
            )
        return self._fc

    def core(self) -> tuple[float, float]:
        """Core-side ns per SLS lookup, and the uncontended seconds of one
        DRAM-missing row gather (core time plus DRAM latency)."""
        if self._core is None:
            server = self.timing.server
            core_ns = (
                _interp_log_batch(server.sls_cycles_per_lookup, self.batch)
                / server.frequency_ghz
            )
            self._core = (core_ns, (core_ns + server.dram_random_ns) * 1e-9)
        return self._core

    def hit(self) -> tuple[float, float, float, float]:
        """LLC-hit path: pipelined latency (ns), gather share (bytes/ns),
        churn penalty, and the L2 back-invalidation penalty in it."""
        if self._hit is None:
            timing, state = self.timing, self.state
            server, contention = timing.server, timing.contention
            churn = contention.llc_churn(state)
            l2_penalty = contention._l2_penalty(churn)
            penalty = 1.0 + HIT_CHURN_PENALTY * churn
            penalty += l2_penalty
            latency_ns = server.llc_latency_cycles / server.frequency_ghz
            self._hit = (
                latency_ns / hit_overlap(self.batch),
                contention.llc_gather_bandwidth_share(state) * 1e-9,
                penalty,
                l2_penalty,
            )
        return self._hit

    def miss(self) -> tuple[float, float]:
        """DRAM-miss path: exposed latency (ns) after MLP and inclusive
        penalties, and the LLC-overflow factor."""
        if self._miss is None:
            timing, state = self.timing, self.state
            contention = timing.contention
            raw_latency_ns = timing.server.dram_random_ns * 3.0
            mlp = contention.memory_level_parallelism(state, self.batch)
            self._miss = (
                (raw_latency_ns / mlp)
                * (1.0 + contention.inclusive_dram_penalty(state)),
                1.0 + OVERFLOW_PENALTY * contention.llc_overflow(state),
            )
        return self._miss


class TimingModel:
    """Latency predictor for one server generation.

    Every price comes from one set of formulas over :class:`_Terms`: a
    one-operator method builds the terms its operator reads, and a
    whole-model call (:meth:`model_latency`, :meth:`model_seconds`)
    builds them once and prices each distinct operator shape once.

    Args:
        server: the Table-II server generation to price operators on.
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
        self, server: ServerSpec, *, nmp: "NmpGeometry | None" = None
    ) -> None:
        self.server = server
        self.contention = ContentionModel(server)
        self.nmp = nmp
        # Each config's operators and their distinct shapes, expanded once
        # per model; see :meth:`_op_plan`.
        self._plans: dict[int, tuple[ModelConfig, _OpPlan]] = {}
        # Per-core cache bandwidths (bytes/s), the L2-resident weight
        # limit (bytes, with a 5% slack) and the movement ops' FLOP/s.
        self._l2_bandwidth = L2_BYTES_PER_CYCLE * server.frequency_ghz * 1e9
        self._llc_bandwidth = LLC_BYTES_PER_CYCLE * server.frequency_ghz * 1e9
        self._l2_limit_bytes = server.l2_bytes * 1.05
        self._movement_flops = server.peak_gflops_per_core * 1e9 * 0.25

    def _op_plan(self, config: ModelConfig) -> _OpPlan:
        """``config_ops(config)`` with its operators grouped by shape.

        Keyed by identity: hashing a frozen config walks every nested
        field on each call. Each entry holds its config, so no other
        object can take its id while the entry lives.
        """
        entry = self._plans.get(id(config))
        if entry is None:
            entry = self._plans[id(config)] = (config, _OpPlan.of(config))
        return entry[1]

    # -------------------------------------------------------------- dense

    def _fc(
        self,
        terms: _Terms,
        flops: int,
        weight_bytes: int,
        activation_bytes: int,
    ) -> tuple[float, float, float]:
        """Seconds, compute and memory seconds of one dense layer."""
        flops_per_s, llc_limit_bytes, llc_share, factors = terms.fc()
        compute = flops / flops_per_s
        if terms.state.hyperthreading:
            compute *= HT_FC_FACTOR

        dram_resident = False
        if weight_bytes <= self._l2_limit_bytes:
            stream = weight_bytes / self._l2_bandwidth
        elif weight_bytes <= llc_limit_bytes:
            stream = weight_bytes / self._llc_bandwidth
        else:
            dram_resident = True
            share = self.contention.stream_bandwidth_share(terms.state)
            stream = weight_bytes / share
        stream += activation_bytes / self._l2_bandwidth

        contention_factor = self.contention._fc_factor(
            factors, llc_share, weight_bytes
        )
        base = max(compute, stream)
        if dram_resident:
            # DRAM weight streaming does not fully hide behind compute.
            base += DRAM_STREAM_OVERLAP_TAX * min(compute, stream)
        seconds = base * contention_factor + OP_OVERHEAD_S
        return seconds, compute * contention_factor, stream

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
        parts = self._fc(
            _Terms(self, batch, state), flops, weight_bytes, activation_bytes
        )
        return OperatorTime(name, op_type, *parts)

    # --------------------------------------------------------------- sparse

    def _sls_hit_ns(self, terms: _Terms, row_bytes: int) -> float:
        latency_ns, gather_share, penalty, _ = terms.hit()
        return max(latency_ns, row_bytes / gather_share) * penalty

    def _sls_demand(self, terms: _Terms, row_bytes: int) -> float:
        return row_bytes / terms.core()[1]

    def _sls_miss_ns(self, terms: _Terms, row_bytes: int) -> float:
        latency_ns, overflow_factor = terms.miss()
        share = self.contention.random_bandwidth_share(
            terms.state, self._sls_demand(terms, row_bytes)
        )
        bandwidth_term = row_bytes / (share * 1e-9)
        return max(latency_ns, bandwidth_term) * overflow_factor

    def _sls_lookup_ns(self, terms: _Terms, row_bytes: int, hit_ratio: float) -> float:
        core_ns = terms.core()[0] * (1.0 + terms.hit()[3])
        memory_ns = hit_ratio * self._sls_hit_ns(terms, row_bytes)
        memory_ns += (1.0 - hit_ratio) * self._sls_miss_ns(terms, row_bytes)
        lookup_ns = max(core_ns, memory_ns)
        if terms.state.hyperthreading:
            # Two threads share the load ports and miss queues (Section VI).
            lookup_ns *= HT_SLS_FACTOR
        return lookup_ns

    def sls_miss_ns(
        self,
        embedding_dim: int,
        batch: int,
        state: ColocationState = RUN_ALONE,
        dtype_bytes: int = 4,
    ) -> float:
        """Exposed nanoseconds per DRAM-missing embedding row gather."""
        return self._sls_miss_ns(
            _Terms(self, batch, state), _row_bytes(embedding_dim, dtype_bytes)
        )

    def sls_hit_ns(
        self,
        embedding_dim: int,
        batch: int,
        state: ColocationState = RUN_ALONE,
        dtype_bytes: int = 4,
    ) -> float:
        """Nanoseconds per LLC-hitting embedding row gather."""
        return self._sls_hit_ns(
            _Terms(self, batch, state), _row_bytes(embedding_dim, dtype_bytes)
        )

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
        _check_hit_ratio(hit_ratio)
        return self._sls_lookup_ns(
            _Terms(self, batch, state),
            _row_bytes(embedding_dim, dtype_bytes),
            hit_ratio,
        )

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
        self, lookups_per_sample: int, batch: int, hit_ratio: float
    ) -> tuple[float, float, float]:
        """SLS priced on the near-memory backend (analytic expectation).

        Each of the ``batch`` pools spreads its lookups over every rank
        (the uniform expectation of the low-order interleave placement);
        ``hit_ratio`` is the DIMM-side hot-row cache hit fraction. The
        full trace-driven engine
        (:class:`~repro.memory.near_memory.NearMemorySystem`) refines
        this with actual placement skew and LRU hot-cache behaviour —
        :func:`~repro.memory.near_memory.amdahl_crosscheck` proves the
        two agree in the uniform-locality/no-contention limit. Returns
        seconds, compute (launch) and memory (gather) seconds.
        """
        geometry = self.nmp
        per_lookup_ns = hit_ratio * geometry.hot_hit_ns
        per_lookup_ns += (1.0 - hit_ratio) * geometry.rank_gather_ns
        gather_s = (
            batch * lookups_per_sample * per_lookup_ns / geometry.num_ranks * 1e-9
        )
        launch_s = batch * geometry.pool_overhead_ns * 1e-9
        return gather_s + launch_s + OP_OVERHEAD_S, launch_s, gather_s

    def _sls(
        self,
        terms: _Terms,
        lookups_per_sample: int,
        embedding_dim: int,
        hit_ratio: float,
        dtype_bytes: int,
    ) -> tuple[float, float, float]:
        """Seconds, compute and memory seconds of one SLS."""
        _check_hit_ratio(hit_ratio)
        if self.nmp is not None:
            return self._nmp_sls_time(lookups_per_sample, terms.batch, hit_ratio)
        lookup_ns = self._sls_lookup_ns(
            terms, _row_bytes(embedding_dim, dtype_bytes), hit_ratio
        )
        total_lookups = terms.batch * lookups_per_sample
        seconds = total_lookups * lookup_ns * 1e-9 + OP_OVERHEAD_S
        compute = total_lookups * terms.core()[0] * 1e-9
        return (
            seconds,
            min(compute, seconds),
            max(0.0, seconds - compute - OP_OVERHEAD_S),
        )

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
        parts = self._sls(
            _Terms(self, batch, state),
            lookups_per_sample,
            embedding_dim,
            hit_ratio,
            dtype_bytes,
        )
        return OperatorTime(name, OP_SLS, *parts)

    # ------------------------------------------------------------- movement

    def _movement(
        self, state: ColocationState, bytes_moved: int, flops: int
    ) -> tuple[float, float, float]:
        """Seconds, compute and memory seconds of one streaming op."""
        memory = bytes_moved / self._l2_bandwidth
        compute = flops / self._movement_flops
        if state.hyperthreading:
            compute *= HT_SLS_FACTOR
        return max(memory, compute) + OP_OVERHEAD_S, compute, memory

    def movement_time(
        self,
        name: str,
        op_type: str,
        bytes_moved: int,
        flops: int = 0,
        state: ColocationState = RUN_ALONE,
    ) -> OperatorTime:
        """Streaming data-movement ops: Concat and element-wise activations."""
        return OperatorTime(name, op_type, *self._movement(state, bytes_moved, flops))

    # ------------------------------------------------------------ dispatch

    def _price(
        self, terms: _Terms, spec: OpSpec, sls_hit_ratio: float
    ) -> tuple[float, float, float]:
        """Seconds, compute and memory seconds of ``spec``."""
        batch = terms.batch
        if spec.op_type in (OP_FC, OP_BATCH_MATMUL):
            return self._fc(
                terms,
                batch * spec.flops_per_sample,
                spec.weight_bytes,
                batch * spec.activation_bytes_per_sample,
            )
        if spec.op_type == OP_SLS:
            return self._sls(
                terms,
                spec.lookups_per_sample,
                spec.embedding_dim,
                sls_hit_ratio,
                spec.dtype_bytes,
            )
        if spec.op_type in (OP_CONCAT, OP_ACTIVATION):
            return self._movement(
                terms.state,
                batch * spec.activation_bytes_per_sample,
                batch * spec.flops_per_sample,
            )
        raise ValueError(f"no timing model for op type {spec.op_type!r}")

    def op_time(
        self,
        spec: OpSpec,
        batch: int,
        state: ColocationState = RUN_ALONE,
        sls_hit_ratio: float = 0.0,
    ) -> OperatorTime:
        """Latency of one abstract operator at ``batch``."""
        parts = self._price(_Terms(self, batch, state), spec, sls_hit_ratio)
        return OperatorTime(spec.name, spec.op_type, *parts)

    # ----------------------------------------------------------- model-level

    def _model_pass(
        self,
        config: ModelConfig,
        batch: int,
        state: ColocationState,
        sls_hit_ratio: float | None,
        locality_hit_ratio: float,
    ) -> tuple[_OpPlan, _Terms, float]:
        """The plan, the shared terms and the SLS hit ratio of one call."""
        plan = self._op_plan(config)
        if sls_hit_ratio is None:
            if self.nmp is not None:
                # DIMM-side execution: host-LLC capacity residency is
                # irrelevant, only trace-temporal reuse reaches the
                # per-DIMM hot-row caches.
                sls_hit_ratio = locality_hit_ratio
            else:
                sls_hit_ratio = self.table_hit_ratio(
                    plan.table_bytes, locality_hit_ratio
                )
        return plan, _Terms(self, batch, state), sls_hit_ratio

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
        plan, terms, hit_ratio = self._model_pass(
            config, batch, state, sls_hit_ratio, locality_hit_ratio
        )
        # An operator's time depends on its shape, never its name, so each
        # shape is priced once and its copies take their names.
        priced = [self._price(terms, spec, hit_ratio) for spec in plan.shapes]
        per_op = tuple(
            OperatorTime(spec.name, spec.op_type, *priced[slot])
            for spec, slot in zip(plan.ops, plan.slots)
        )
        return ModelLatency(
            model_name=config.name,
            server_name=self.server.name,
            batch_size=batch,
            per_op=per_op,
        )

    def model_seconds(
        self,
        config: ModelConfig,
        batch: int,
        state: ColocationState = RUN_ALONE,
        sls_hit_ratio: float | None = None,
        locality_hit_ratio: float = 0.0,
    ) -> float:
        """``model_latency(...).total_seconds``, without per-operator records.

        Equal bit for bit: each shape is priced by the same formulas, and
        the operators' seconds are summed in operator order by the same
        builtin ``sum``.
        """
        plan, terms, hit_ratio = self._model_pass(
            config, batch, state, sls_hit_ratio, locality_hit_ratio
        )
        seconds = [self._price(terms, spec, hit_ratio)[0] for spec in plan.shapes]
        return sum([seconds[slot] for slot in plan.slots])

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
        plan = self._op_plan(config)
        hit = self.table_hit_ratio(plan.table_bytes)
        latency_s = self.model_seconds(config, batch)
        miss_bytes = 0.0
        for spec in plan.ops:
            if spec.op_type == OP_SLS:
                row_bytes = _row_bytes(spec.embedding_dim, spec.dtype_bytes)
                miss_bytes += (1.0 - hit) * batch * spec.lookups_per_sample * row_bytes
        return miss_bytes / latency_s / 1e9
