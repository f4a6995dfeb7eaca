"""Figure 11: tail latency of an FC operator under production co-location.

Paper, production environment: the same FC operator (512x512, ~1 MiB of
weights — fits Skylake's L2 but only Broadwell's LLC) shows a *multi-modal*
latency distribution on Broadwell (modes near 40/58/75 us matching
low/medium/high co-location) but a single mode on Skylake (~45 us). As
co-location rises, Broadwell's p99 blows up in steps while Skylake's mean
and p99 grow gradually; a larger FC (LLC-resident on both) shows the same
contrast more starkly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.distributions import LatencySummary, count_modes, summarize
from ..analysis.tables import format_table
from ..config.model_config import ModelConfig
from ..config.presets import RMC2_SMALL
from ..hw.server import BROADWELL, SKYLAKE, ServerSpec
from ..serving.simulator import ContentionLevels, ServingSimulator

#: The Figure-11a operator: 512x512 (~1 MiB weights).
SMALL_FC = (512, 512)
#: The Figure-11c operator: ~9 MiB of weights — exceeds Skylake's L2,
#: resident in both LLCs.
LARGE_FC = (1536, 1536)

#: Co-location regimes mixed in the production environment: machines run
#: few, some, or many inference jobs. At the highest regime job count
#: exceeds Broadwell's physical cores (28) — but not Skylake's (40) — so
#: Broadwell machines also pay the hyperthreading tax, producing its third
#: latency mode.
DEFAULT_REGIMES = (1, 10, 32)


@dataclass(frozen=True)
class TailCurvePoint:
    """Mean/p5/p99 of FC latency at one co-location degree (Fig 11b/c)."""

    num_jobs: int
    summary: LatencySummary


@dataclass(frozen=True)
class ServerTailResult:
    """Figure-11 measurements for one server."""

    server_name: str
    pooled_samples_us: np.ndarray
    modes: int
    curve_small: list[TailCurvePoint]
    curve_large: list[TailCurvePoint]

    def p99_growth(self, curve: list[TailCurvePoint]) -> float:
        """p99 at the highest co-location relative to running alone."""
        return curve[-1].summary.p99 / curve[0].summary.p99


@dataclass(frozen=True)
class Figure11Result:
    """Per-server tail-latency results."""

    servers: dict[str, ServerTailResult]


def run(
    workload: ModelConfig = RMC2_SMALL,
    servers: tuple[ServerSpec, ...] = (BROADWELL, SKYLAKE),
    regimes: tuple[int, ...] = DEFAULT_REGIMES,
    curve_jobs: tuple[int, ...] = (1, 4, 8, 16, 24, 32, 40),
    duration_s: float = 0.6,
    seed: int = 11,
) -> Figure11Result:
    """Simulate the production tail-latency study.

    The Figure-11a distribution pools FC samples from machines at each
    co-location regime (closed-loop co-runners, as in production where
    co-located jobs are kept busy); the 11b/11c curves sweep the
    co-location degree directly, probing both FC sizes in one simulation
    per degree (each probe draws from its own noise stream).
    """
    out: dict[str, ServerTailResult] = {}
    for server in servers:
        physical_cores = server.total_cores
        # One priced table per hyperthreading setting, shared by every
        # simulator of this server, so each level is priced once per run.
        tables: dict[bool, ContentionLevels] = {}

        def simulator(n: int, sim_seed: int) -> ServingSimulator:
            hyperthreading = n > physical_cores
            levels = tables.get(hyperthreading)
            if levels is None:
                levels = tables[hyperthreading] = ContentionLevels(
                    server, workload, 32, hyperthreading
                )
            return ServingSimulator(
                levels, num_instances=min(n, physical_cores), seed=sim_seed
            )

        pooled: list[np.ndarray] = []
        for i, n in enumerate(regimes):
            sim = simulator(n, seed + i)
            result = sim.run(duration_s)
            pooled.append(sim.fc_latency_samples(result, *SMALL_FC) * 1e6)
        samples = np.concatenate(pooled)

        curve_small: list[TailCurvePoint] = []
        curve_large: list[TailCurvePoint] = []
        for j, n in enumerate(curve_jobs):
            sim = simulator(n, seed + 100 + j)
            result = sim.run(duration_s)
            for fc, points in ((SMALL_FC, curve_small), (LARGE_FC, curve_large)):
                fc_samples = sim.fc_latency_samples(result, *fc) * 1e6
                points.append(
                    TailCurvePoint(num_jobs=n, summary=summarize(fc_samples))
                )

        out[server.name] = ServerTailResult(
            server_name=server.name,
            pooled_samples_us=samples,
            modes=count_modes(samples),
            curve_small=curve_small,
            curve_large=curve_large,
        )
    return Figure11Result(servers=out)


def render(result: Figure11Result) -> str:
    """Text rendering of Figure 11."""
    sections = []
    for name, server in result.servers.items():
        sections.append(
            f"Figure 11a ({name}): {server.modes} mode(s) in pooled FC latency "
            f"(mean {server.pooled_samples_us.mean():.1f} us)"
        )
        for label, curve in (("11b small FC", server.curve_small),
                             ("11c large FC", server.curve_large)):
            rows = [
                [
                    p.num_jobs,
                    f"{p.summary.mean:.1f}",
                    f"{p.summary.p5:.1f}",
                    f"{p.summary.p99:.1f}",
                ]
                for p in curve
            ]
            sections.append(
                format_table(
                    ["N", "mean us", "p5 us", "p99 us"],
                    rows,
                    title=f"Figure {label} on {name}",
                )
            )
    return "\n\n".join(sections)
