"""Shared-resource contention model for co-located inference jobs.

Co-locating recommendation models on one server (Section VI) stresses the
shared memory system through four mechanisms, each modelled here:

1. **DRAM random-access saturation.** Each SLS-heavy job issues ~1 GB/s of
   irregular row gathers (the paper measures ~1 GB/s per RMC2 job). Random
   accesses achieve only a fraction of peak DRAM bandwidth; once co-located
   demand saturates that capacity, each job's gathers are served at its
   bandwidth *share*, and the memory-level parallelism that hid miss latency
   when running alone collapses — the dominant terms in the paper's 3x SLS
   degradation at 8 co-located RMC2 jobs.

2. **LLC churn, driven by co-runner DRAM traffic.** Co-runners whose misses
   stream through the shared LLC evict each other's FC weights and hot
   embedding rows. Churn is proportional to the co-runners' actual DRAM
   traffic: eight co-located RMC2 jobs (~1 GB/s of misses each) thrash the
   LLC, while eight RMC1 jobs (whose small tables hit in the LLC) barely
   disturb it — which is why the paper sees RMC2 degrade 2.6x but RMC1 only
   1.3x at N=8.

3. **LLC bandwidth sharing.** Jobs whose embedding tables are LLC-resident
   (RMC1) are instead limited by the socket's LLC gather bandwidth, which is
   divided among active jobs — producing RMC1's 3x SLS slow-down (its time
   share rising 15%→35%) even though its lookups keep hitting.

4. **Inclusive back-invalidation.** On Haswell/Broadwell every LLC eviction
   invalidates the line's L2 copy, so LLC churn reaches into the private L2
   (+29% L2 misses on Broadwell at 16 jobs vs +9% on Skylake) — the reason
   inclusive hierarchies degrade faster and more variably (Figures 9-11).
   Skylake instead shows a capacity *cliff* once co-located working sets
   overflow its smaller LLC (~18 jobs, Figure 10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .server import MB, ServerSpec
from .simd import _interp_log_batch


@dataclass(frozen=True)
class ColocationState:
    """Run-time placement context for one inference job.

    Attributes:
        num_jobs: inference jobs simultaneously active on the socket
            (1 = running alone).
        hyperthreading: True when two jobs share each physical core.
        resident_bytes_per_job: per-job warm working set parked in the LLC
            (FC weights + activations + hot embedding rows); drives the
            capacity-overflow cliff. The default is representative of
            production RMC jobs.
        corunner_random_gbps: random-access DRAM traffic (GB/s) each
            co-runner generates. ``None`` assumes co-runners behave like the
            memory-intensive production mix (~1.1 GB/s, the paper's measured
            per-RMC2-job traffic). Experiments co-locating a specific model
            should set this from
            :meth:`repro.hw.timing.TimingModel.estimate_random_traffic_gbps`.
    """

    num_jobs: int = 1
    hyperthreading: bool = False
    resident_bytes_per_job: int = int(1.5 * MB)
    corunner_random_gbps: float | None = None

    def __post_init__(self) -> None:
        for name in ("num_jobs", "resident_bytes_per_job", "corunner_random_gbps"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(
                    f"ColocationState.{name} must be finite, got {value!r}"
                )
        if self.num_jobs != int(self.num_jobs):
            raise ValueError(
                f"ColocationState.num_jobs must be an integer, got {self.num_jobs!r}"
            )
        if self.num_jobs < 1:
            raise ValueError("num_jobs must be >= 1")
        if self.resident_bytes_per_job < 0:
            raise ValueError("resident_bytes_per_job must be non-negative")
        if self.corunner_random_gbps is not None and self.corunner_random_gbps < 0:
            raise ValueError("corunner_random_gbps must be non-negative")


RUN_ALONE = ColocationState()

#: Assumed per-co-runner random DRAM traffic when not specified (GB/s);
#: the paper measures ~1 GB/s per memory-intensive RMC2 job.
DEFAULT_CORUNNER_GBPS = 1.1

#: Fraction of peak DRAM bandwidth achievable with random row gathers.
RANDOM_ACCESS_EFFICIENCY = {"DDR3": 0.20, "DDR4": 0.22}

#: Fraction of peak DRAM bandwidth achievable with streaming reads.
STREAM_EFFICIENCY = 0.65

#: Socket-wide LLC random-gather bandwidth, bytes per cycle (shared by all
#: jobs whose embedding tables are LLC-resident).
LLC_GATHER_BYTES_PER_CYCLE = 48

#: Per-core ceiling on LLC gather bandwidth, bytes per cycle.
LLC_GATHER_BYTES_PER_CYCLE_CORE = 16

#: Fraction of the random-access capacity whose worth of foreign traffic
#: fully churns the LLC.
CHURN_TRAFFIC_FRACTION = 0.5

#: Back-invalidation slowdown ceiling for inclusive hierarchies, applied to
#: L2-resident work (calibrated to Broadwell's +29% L2 misses at 16 jobs).
INCLUSIVE_L2_PENALTY = 0.15

#: Extra exposed-DRAM-latency factor ceiling on inclusive hierarchies:
#: back-invalidated pooling buffers force additional round trips.
INCLUSIVE_DRAM_PENALTY = 0.6

#: MLP-collapse sensitivity to churn (miss overlap divisor = 1 + this x
#: churn x (it saturates via churn itself)).
MLP_COLLAPSE = 1.2

#: Latency penalty per unit of LLC-capacity overflow (the Skylake cliff).
OVERFLOW_PENALTY = 1.0

#: Hit-path inflation under churn: LLC hits queue behind co-runner traffic.
HIT_CHURN_PENALTY = 1.5

#: Overlap of LLC-hit latencies as batch grows (hit pipelining).
HIT_OVERLAP_ANCHORS: tuple[tuple[float, float], ...] = (
    (1, 1.0),
    (16, 4.0),
    (64, 6.0),
    (256, 6.0),
)


def hit_overlap(batch: int) -> float:
    """Pipelined overlap of LLC hit latencies at a given batch size."""
    return _interp_log_batch(HIT_OVERLAP_ANCHORS, batch)


class ContentionModel:
    """Computes effective shared-resource parameters for a job.

    All methods take a :class:`ColocationState` describing how many jobs the
    socket is running; ``num_jobs == 1`` recovers stand-alone behaviour.
    """

    def __init__(self, server: ServerSpec) -> None:
        self.server = server

    # ------------------------------------------------------------- traffic

    def foreign_random_bytes_per_s(self, state: ColocationState) -> float:
        """Aggregate random DRAM traffic generated by the co-runners."""
        per_job = (
            DEFAULT_CORUNNER_GBPS
            if state.corunner_random_gbps is None
            else state.corunner_random_gbps
        )
        return (state.num_jobs - 1) * per_job * 1e9

    # ------------------------------------------------------------ capacity

    def llc_share_bytes(self, state: ColocationState) -> float:
        """Per-job effective LLC capacity (equal-share approximation)."""
        return self.server.l3_bytes / state.num_jobs

    def llc_churn(self, state: ColocationState) -> float:
        """Co-runner churn pressure on the LLC, in [0, 1].

        0 when alone or when co-runners hit in cache (no DRAM traffic);
        saturates once their combined miss traffic reaches
        :data:`CHURN_TRAFFIC_FRACTION` of the random-access capacity.
        """
        foreign = self.foreign_random_bytes_per_s(state)
        threshold = CHURN_TRAFFIC_FRACTION * self.random_access_capacity()
        return min(1.0, foreign / threshold)

    def llc_overflow(self, state: ColocationState) -> float:
        """Relative LLC capacity overflow of the combined working sets.

        Positive once ``num_jobs x resident`` exceeds the LLC — the sudden
        regime change Skylake hits near 18 co-located RMC2 jobs (its LLC is
        the smallest of the three generations).
        """
        total = state.num_jobs * state.resident_bytes_per_job
        return max(0.0, (total - self.server.l3_bytes) / self.server.l3_bytes)

    def l2_back_invalidation_penalty(self, state: ColocationState) -> float:
        """Fractional slowdown of L2-resident work from back-invalidation.

        Zero for non-inclusive hierarchies (Skylake): LLC churn cannot
        invalidate L2 lines.
        """
        if not self.server.inclusive_llc:
            return 0.0
        return self._l2_penalty(self.llc_churn(state))

    def _l2_penalty(self, churn: float) -> float:
        """:meth:`l2_back_invalidation_penalty` at a known ``churn``."""
        if not self.server.inclusive_llc:
            return 0.0
        return INCLUSIVE_L2_PENALTY * churn

    def inclusive_dram_penalty(self, state: ColocationState) -> float:
        """Extra exposed-latency factor on DRAM gathers (inclusive only)."""
        if not self.server.inclusive_llc:
            return 0.0
        return INCLUSIVE_DRAM_PENALTY * self.llc_churn(state)

    # ----------------------------------------------------------- bandwidth

    def random_access_capacity(self) -> float:
        """Sustainable random-gather DRAM bandwidth (bytes/s) of one socket."""
        eff = RANDOM_ACCESS_EFFICIENCY[self.server.ddr_type]
        return self.server.dram_bw_bytes_per_s * eff

    def random_bandwidth_share(
        self, state: ColocationState, own_demand_bytes_per_s: float
    ) -> float:
        """Per-job random-access DRAM bandwidth under proportional sharing.

        While total demand is below capacity a job can burst up to whatever
        the co-runners leave free; past saturation bandwidth is split in
        proportion to demand.
        """
        foreign = self.foreign_random_bytes_per_s(state)
        capacity = self.random_access_capacity()
        total_demand = own_demand_bytes_per_s + foreign
        if total_demand <= capacity:
            return capacity - foreign
        return capacity * own_demand_bytes_per_s / total_demand

    def llc_gather_bandwidth_share(self, state: ColocationState) -> float:
        """Per-job LLC gather bandwidth (bytes/s) for cache-resident tables.

        Bounded by the per-core gather rate and by an equal share of the
        socket-wide LLC gather capacity.
        """
        freq = self.server.frequency_ghz * 1e9
        per_core = LLC_GATHER_BYTES_PER_CYCLE_CORE * freq
        socket_share = LLC_GATHER_BYTES_PER_CYCLE * freq / state.num_jobs
        return min(per_core, socket_share)

    def stream_bandwidth_share(self, state: ColocationState) -> float:
        """Per-job streaming DRAM bandwidth (bytes/s)."""
        peak = self.server.dram_bw_bytes_per_s * STREAM_EFFICIENCY
        return peak / state.num_jobs

    def memory_level_parallelism(self, state: ColocationState, batch: int) -> float:
        """Effective miss overlap: full MLP alone, collapsing under churn."""
        mlp = _interp_log_batch(self.server.sls_mlp, batch)
        divisor = 1.0 + MLP_COLLAPSE * self.llc_churn(state)
        return 1.0 + (mlp - 1.0) / divisor

    # -------------------------------------------------------- fc residency

    def fc_contention_factor(self, state: ColocationState, weight_bytes: int) -> float:
        """Multiplicative FC slowdown from shared-cache contention.

        Three regimes, matching the Figure 11 annotations:

        * weights fit in the private L2 → essentially protected (only the
          inclusive back-invalidation penalty applies);
        * weights resident in the LLC → exposed to co-runner churn, much
          worse on inclusive hierarchies (0.6 vs 0.15 sensitivity,
          calibrated to Broadwell's 1.6x FC degradation at 8 RMC2 jobs);
        * weights exceed even the LLC share → already DRAM-streaming, so
          churn adds little beyond bandwidth sharing (handled separately).
        """
        return self._fc_factor(
            self._fc_factors(state), self.llc_share_bytes(state), weight_bytes
        )

    def _fc_factors(self, state: ColocationState) -> tuple[float, float, float]:
        """The FC slowdown in each regime: L2-, LLC- and DRAM-resident."""
        churn = self.llc_churn(state)
        overflow_term = OVERFLOW_PENALTY * self.llc_overflow(state)
        l2_penalty = self._l2_penalty(churn)
        sensitivity = 0.6 if self.server.inclusive_llc else 0.15
        return (
            1.0 + l2_penalty,
            1.0 + sensitivity * churn + l2_penalty + overflow_term,
            # Weights already stream from DRAM: the stream/compute overlap
            # tax in the timing model carries the degradation; churn adds
            # little.
            1.0 + 0.1 * churn,
        )

    def _fc_factor(
        self,
        factors: tuple[float, float, float],
        llc_share_bytes: float,
        weight_bytes: int,
    ) -> float:
        """The one of ``factors`` whose regime ``weight_bytes`` falls in."""
        # A small slack on the L2 boundary: a 512x512 fp32 FC (1 MiB of
        # weights + biases) is L2-resident on Skylake, per Figure 11a.
        if weight_bytes <= self.server.l2_bytes * 1.05:
            return factors[0]
        if weight_bytes <= llc_share_bytes:
            return factors[1]
        return factors[2]
