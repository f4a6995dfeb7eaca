"""Figure MM (extension): mixed multi-model traffic vs static partitioning.

The paper's fleet (Section II, Figure 1) serves RMC1/RMC2/RMC3 side by
side on mixed server generations. This experiment asks the sizing
question that setup raises: given a heterogeneous Broadwell/Skylake pool
and three diurnal traffic classes that peak at *different* hours, is it
better to share every replica across all models (paying model swaps and
residency churn) or to statically partition replicas per model (paying
stranded capacity whenever a class is off-peak)?

Both arms replay byte-identical arrival traces from one seeded
:class:`~repro.serving.loadgen.MixedModelLoadGenerator`:

* **mixed** — one :class:`~repro.serving.multimodel.MultiModelRouter`
  over the whole pool, model-aware least-loaded routing,
  drain-before-swap residency management.
* **static** — replicas split per model by largest-remainder on each
  class's demand share (rate x service time, at least one replica each);
  each partition runs its own single-model router over the same
  per-class substream, so swaps only ever happen during warm-up.

Reported per class: offered/completed and p99 under both arms, plus
fleet-level throughput, swap/thrash counts, and residency utilization.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.tables import format_table
from ..config.model_config import ModelConfig
from ..config.presets import RMC1_SMALL, RMC2_SMALL, RMC3_SMALL
from ..hw.server import BROADWELL, SKYLAKE, ServerSpec
from ..hw.timing import TimingModel
from ..obs.metrics import MetricsRegistry
from ..serving.loadgen import MixedModelLoadGenerator, ModelClassRate
from ..serving.multimodel import (
    MultiModelPool,
    MultiModelResult,
    MultiModelRouter,
)


@dataclass(frozen=True)
class MultiModelComparison:
    """Mixed-pool vs statically partitioned serving of the same traffic."""

    replica_names: tuple[str, ...]
    model_names: tuple[str, ...]
    batch_size: int
    duration_s: float
    #: replicas assigned to each model class in the static arm.
    partition: tuple[int, ...]
    mixed: MultiModelResult
    static_by_model: tuple[MultiModelResult, ...]

    @property
    def mixed_throughput_qps(self) -> float:
        return self.mixed.throughput_qps

    @property
    def static_throughput_qps(self) -> float:
        return sum(r.throughput_qps for r in self.static_by_model)

    @property
    def static_residency_utilization(self) -> float:
        """Slot-weighted mean residency across the static partitions."""
        slot_s = sum(
            r.residency_utilization * len(r.replica_names)
            for r in self.static_by_model
        )
        return slot_s / len(self.replica_names)


def _partition_sizes(
    replicas: tuple[ServerSpec, ...],
    models: tuple[ModelConfig, ...],
    mean_qps: tuple[float, ...],
    batch_size: int,
) -> tuple[int, ...]:
    """Largest-remainder split of replicas by per-class demand share.

    Demand is rate x mean service time over the (heterogeneous) replica
    set — the stationary utilization each class would impose — and every
    class gets at least one replica.
    """
    timings = {spec.name: TimingModel(spec) for spec in set(replicas)}
    demand = []
    for config, qps in zip(models, mean_qps):
        service_s = [
            timings[spec.name].model_seconds(config, batch_size)
            for spec in replicas
        ]
        demand.append(qps * sum(service_s) / len(service_s))
    total_demand = sum(demand)
    spare = len(replicas) - len(models)
    shares = [spare * d / total_demand for d in demand]
    sizes = [1 + int(share) for share in shares]
    remainders = [share - int(share) for share in shares]
    # Hand out the leftover replicas by largest remainder; ties fall to
    # the lower class index, keeping the split deterministic.
    leftover = len(replicas) - sum(sizes)
    order = sorted(
        range(len(models)), key=lambda i: (-remainders[i], i)
    )
    for i in order[:leftover]:
        sizes[i] += 1
    return tuple(sizes)


def run(
    replicas: tuple[ServerSpec, ...] = (BROADWELL, BROADWELL, SKYLAKE, SKYLAKE),
    models: tuple[ModelConfig, ...] = (RMC1_SMALL, RMC2_SMALL, RMC3_SMALL),
    batch_size: int = 8,
    slots_per_replica: int = 2,
    mean_qps: tuple[float, ...] = (2400.0, 1400.0, 900.0),
    amplitude: float = 0.6,
    period_s: float = 0.4,
    duration_s: float = 0.4,
    dram_headroom: float = 0.8,
    thrash_window_s: float = 0.05,
    seed: int = 23,
    metrics: MetricsRegistry | None = None,
    tracer=None,
) -> MultiModelComparison:
    """Serve one compressed diurnal cycle under both pooling disciplines.

    Args:
        replicas: the heterogeneous serving pool (shared by both arms).
        models: model classes; class ``i`` draws rate ``mean_qps[i]``.
        batch_size: items per request (prices service times).
        slots_per_replica: residency slots per replica in the mixed arm.
        mean_qps: cycle-average arrival rate per class.
        amplitude: diurnal swing of every class; phases are spread evenly
            over the period so classes peak at different times (that
            anti-correlation is what the mixed pool exploits).
        period_s: compressed diurnal period.
        duration_s: simulated horizon (defaults to one full cycle).
        dram_headroom: usable DRAM fraction for residency accounting.
        thrash_window_s: swap-thrash window (see
            :class:`~repro.serving.multimodel.MultiModelPool`).
        seed: seeds the shared arrival trace and both arms' service noise.
        metrics: optional registry the mixed arm records into.
        tracer: optional tracer for the mixed arm's spans.
    """
    if len(models) != len(mean_qps):
        raise ValueError("need one mean_qps per model")
    if len(replicas) < len(models):
        raise ValueError("need at least one replica per model class")
    classes = tuple(
        ModelClassRate(
            name=config.name,
            mean_qps=qps,
            amplitude=amplitude,
            phase_s=i * period_s / len(models),
        )
        for i, (config, qps) in enumerate(zip(models, mean_qps))
    )
    trace = MixedModelLoadGenerator(
        classes, period_s=period_s, seed=seed
    ).generate(duration_s)

    # Mixed arm: every replica serves every class, swaps and all.
    mixed_router = MultiModelRouter(
        MultiModelPool(
            replicas,
            models,
            dram_headroom=dram_headroom,
            slots_per_replica=slots_per_replica,
            thrash_window_s=thrash_window_s,
        ),
        batch_size=batch_size,
        seed=seed,
        tracer=tracer,
        metrics=metrics,
    )
    mixed = mixed_router.run(duration_s, trace)

    # Static arm: the same replicas, hard-partitioned per class, each
    # partition replaying its class's substream of the same trace.
    sizes = _partition_sizes(tuple(replicas), tuple(models), mean_qps, batch_size)
    static_results = []
    start = 0
    for i, (config, size) in enumerate(zip(models, sizes)):
        part = tuple(replicas[start : start + size])
        start += size
        router = MultiModelRouter(
            MultiModelPool(
                part,
                (config,),
                dram_headroom=dram_headroom,
                slots_per_replica=slots_per_replica,
                thrash_window_s=thrash_window_s,
            ),
            batch_size=batch_size,
            seed=seed + 1 + i,
        )
        substream = [q for q in trace if q.model == config.name]
        static_results.append(router.run(duration_s, substream))

    return MultiModelComparison(
        replica_names=tuple(spec.name for spec in replicas),
        model_names=tuple(config.name for config in models),
        batch_size=batch_size,
        duration_s=duration_s,
        partition=sizes,
        mixed=mixed,
        static_by_model=tuple(static_results),
    )


def render(result: MultiModelComparison) -> str:
    """Text rendering of the mixed-vs-static comparison."""
    rows = []
    for i, name in enumerate(result.model_names):
        static = result.static_by_model[i]
        rows.append(
            [
                name,
                result.partition[i],
                result.mixed.offered_by_model[i],
                result.mixed.completed_by_model[i],
                f"{result.mixed.p99_s(i) * 1e3:.2f}",
                static.completed,
                f"{static.p99_s(0) * 1e3:.2f}",
            ]
        )
    title = (
        f"Figure MM: {'+'.join(sorted(set(result.replica_names)))} pool of "
        f"{len(result.replica_names)}, mixed residency vs static "
        f"partitioning, {result.duration_s * 1e3:.0f} ms cycle"
    )
    table = format_table(
        [
            "model", "static replicas", "offered",
            "mixed done", "mixed p99 ms", "static done", "static p99 ms",
        ],
        rows,
        title=title,
    )
    lines = [
        table,
        (
            f"throughput: mixed {result.mixed_throughput_qps:.0f} qps vs "
            f"static {result.static_throughput_qps:.0f} qps"
        ),
        (
            f"mixed swaps: {result.mixed.swaps} "
            f"({result.mixed.thrash} thrash, "
            f"{result.mixed.loads} table loads, "
            f"{result.mixed.drain_claims} drain claims, "
            f"{result.mixed.hol_bypasses} HoL bypasses)"
        ),
        (
            f"residency utilization: mixed "
            f"{result.mixed.residency_utilization:.3f} vs static "
            f"{result.static_residency_utilization:.3f}"
        ),
    ]
    return "\n".join(lines)
