"""Programmatic paper-vs-measured validation report.

Runs the reproduction's headline claims against the paper's published
numbers and produces a structured report — the machine-checkable version
of EXPERIMENTS.md. Used by ``benchmarks/bench_validation_report.py`` and
available to users as::

    from repro.validation import validate, render_report
    print(render_report(validate()))

Each check carries its tolerance: "factor" checks compare ratios within a
relative band; "ordering" checks are strict booleans.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis.tables import format_table
from .config.presets import RMC1_SMALL, RMC2_SMALL, RMC3_SMALL
from .hw.server import BROADWELL, HASWELL, SKYLAKE
from .hw.simd import packed_simd_throughput_ratio
from .hw.timing import TimingModel
from .serving.fleet import production_fleet


@dataclass(frozen=True)
class Check:
    """One validated claim."""

    claim: str
    source: str
    paper_value: float
    measured_value: float
    rel_tolerance: float

    @property
    def passed(self) -> bool:
        """Whether the measured value sits inside the tolerance band."""
        if self.paper_value == 0:
            return self.measured_value == 0
        return (
            abs(self.measured_value - self.paper_value) / abs(self.paper_value)
            <= self.rel_tolerance
        )


def _latency_ms(server, config, batch, state=None):
    tm = TimingModel(server)
    if state is None:
        return tm.model_seconds(config, batch) * 1e3
    return tm.model_seconds(config, batch, state) * 1e3


def validate() -> list[Check]:
    """Run every headline check; returns the full list (pass or fail)."""
    checks: list[Check] = []

    def add(claim, source, paper, measured, tol):
        checks.append(
            Check(
                claim=claim,
                source=source,
                paper_value=paper,
                measured_value=measured,
                rel_tolerance=tol,
            )
        )

    # --- Figure 7: batch-1 Broadwell latencies -------------------------
    add("RMC1 batch-1 latency (ms)", "Fig 7", 0.04,
        _latency_ms(BROADWELL, RMC1_SMALL, 1), 0.35)
    add("RMC2 batch-1 latency (ms)", "Fig 7", 0.30,
        _latency_ms(BROADWELL, RMC2_SMALL, 1), 0.35)
    add("RMC3 batch-1 latency (ms)", "Fig 7", 0.60,
        _latency_ms(BROADWELL, RMC3_SMALL, 1), 0.35)

    # --- Figure 7 right: operator shares --------------------------------
    tm = TimingModel(BROADWELL)
    add("RMC2 SLS time share", "Fig 7", 0.80,
        tm.model_latency(RMC2_SMALL, 1).fraction_by_op_type()["SLS"], 0.15)
    add("RMC3 FC time share", "Fig 7", 0.96,
        tm.model_latency(RMC3_SMALL, 1).fraction_by_op_type()["FC"], 0.1)

    # --- Figure 8: batch-16 server ratios --------------------------------
    for config, hsw_ratio, skl_ratio in (
        (RMC1_SMALL, 1.4, 1.5),
        (RMC2_SMALL, 1.3, 1.4),
        (RMC3_SMALL, 1.32, 1.65),
    ):
        bdw = _latency_ms(BROADWELL, config, 16)
        add(f"{config.model_class} b16 HSW/BDW", "Fig 8", hsw_ratio,
            _latency_ms(HASWELL, config, 16) / bdw, 0.30)
        add(f"{config.model_class} b16 SKL/BDW", "Fig 8", skl_ratio,
            _latency_ms(SKYLAKE, config, 16) / bdw, 0.30)

    # --- Figure 9: co-location degradation at N=8 ------------------------
    for config, factor in (
        (RMC1_SMALL, 1.3),
        (RMC2_SMALL, 2.6),
        (RMC3_SMALL, 1.6),
    ):
        alone = _latency_ms(BROADWELL, config, 32)
        state = tm.colocation_state(config, 32, 8)
        add(f"{config.model_class} N=8 co-location", "Fig 9", factor,
            _latency_ms(BROADWELL, config, 32, state) / alone, 0.25)

    state = tm.colocation_state(RMC2_SMALL, 32, 8)
    alone_ops = tm.model_latency(RMC2_SMALL, 32).seconds_by_op_type()
    loaded_ops = tm.model_latency(RMC2_SMALL, 32, state).seconds_by_op_type()
    add("RMC2 N=8 SLS degradation", "Fig 9", 3.0,
        loaded_ops["SLS"] / alone_ops["SLS"], 0.25)
    add("RMC2 N=8 FC degradation", "Fig 9", 1.6,
        loaded_ops["FC"] / alone_ops["FC"], 0.25)

    # --- Figure 1/4: fleet shares ----------------------------------------
    fleet = production_fleet()
    add("RMC1-3 share of AI cycles", "Fig 1", 0.65, fleet.rmc_core_share(), 0.05)
    add("recommendation share of AI cycles", "Fig 1", 0.79,
        fleet.recommendation_share(), 0.05)
    ops = fleet.cycles_by_operator()
    add("SLS share of AI cycles", "Fig 4", 0.15, ops["SLS"], 0.60)

    # --- Section V: SIMD scaling -----------------------------------------
    add("packed-SIMD throughput at batch 4", "Sec V", 2.9,
        packed_simd_throughput_ratio(4), 0.05)
    add("packed-SIMD throughput at batch 16", "Sec V", 14.5,
        packed_simd_throughput_ratio(16), 0.05)

    # --- Section VI: hyperthreading ---------------------------------------
    from .hw.colocation import ColocationState

    ht = ColocationState(num_jobs=1, hyperthreading=True)
    plain = tm.model_latency(RMC2_SMALL, 32).seconds_by_op_type()
    with_ht = tm.model_latency(RMC2_SMALL, 32, ht).seconds_by_op_type()
    add("hyperthreading FC degradation", "Sec VI", 1.6,
        with_ht["FC"] / plain["FC"], 0.10)
    add("hyperthreading SLS degradation", "Sec VI", 1.3,
        with_ht["SLS"] / plain["SLS"], 0.10)

    return checks


def render_report(checks: list[Check]) -> str:
    """Human-readable pass/fail table."""
    rows = [
        [
            "PASS" if c.passed else "FAIL",
            c.claim,
            c.source,
            f"{c.paper_value:g}",
            f"{c.measured_value:.3g}",
            f"±{100 * c.rel_tolerance:.0f}%",
        ]
        for c in checks
    ]
    passed = sum(c.passed for c in checks)
    table = format_table(
        ["status", "claim", "source", "paper", "measured", "tolerance"],
        rows,
        title="Validation: paper vs measured",
    )
    return f"{table}\n{passed}/{len(checks)} checks passed"
