"""Perf-trajectory bench: the router's Python loop vs its C kernel.

Times ``ResilientRouter.run`` through its Python loop (reached through
``reference_loops()``) and its self-compiled C kernel on the figure-11x
``retry+hedge+degrade`` rung (8 replicas) and on one fleet-day window at
the ~1,050-replica peak with the full overload stack, asserting equal
result digests: the loops are bit-identical by contract
(``tests/test_des_equivalence.py``), so every timing pair is the same
computation and any speedup is pure implementation. A full-scale fleet
day then runs through the router. A routing-draws section times the
Python loop's per-pick draws as numpy calls and as a
:class:`~repro.serving.router.RoutingDraws` stream, and asserts
identical picks and final generator state. Writes
``BENCH_des_replay.json`` so future changes can track the DES loops'
trajectory.

Run directly (CI uploads the JSON as an artifact)::

    PYTHONPATH=src python benchmarks/bench_des_replay.py

or through pytest (excluded from tier-1, which only collects ``tests/``)::

    PYTHONPATH=src python -m pytest benchmarks/bench_des_replay.py -m perf -s
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import reference_loops

from repro.analysis import format_table
from repro.config.presets import RMC1_SMALL
from repro.experiments import fig11x_faults, fleet_day
from repro.hw.server import BROADWELL
from repro.serving import SLA, ResilientRouter, fault_storm
from repro.serving._des_native import native_available
from repro.serving.router import RoutingDraws

DEFAULT_OUT = Path(__file__).parent / "BENCH_des_replay.json"

# Routing draws: the figure fleets and the fleet-day peak.
ROUTING_POOLS = (8, 1048)
ROUTING_PICKS = 100_000
ROUTING_SEED = 7
ROUTING_REPEATS = 3
# The stream must beat numpy's choice on a jsq2 pick by at least this.
ROUTING_FLOOR = 3.0
# Router head-to-head: the kernel must beat the Python loop by at least
# this factor on every case.
ROUTER_FLOOR = 10.0
ROUTER_REPEATS = 3


def _router_cases() -> dict[str, tuple]:
    """``name -> (router factory, run kwargs)`` for the head-to-head."""
    base_s = ResilientRouter(BROADWELL, RMC1_SMALL, 8, 1)._base_service_s
    # Figure 11x's top rung at the experiment's defaults.
    policy, degradation = fig11x_faults._policies(base_s, 4)[
        "retry+hedge+degrade"
    ]
    ladder_s = 2.0
    ladder = (
        lambda: ResilientRouter(
            BROADWELL, RMC1_SMALL, 8, 8,
            policy=policy, degradation=degradation, seed=11,
        ),
        dict(
            offered_qps=0.6 * 8 / base_s,
            duration_s=ladder_s,
            faults=fault_storm(
                8, ladder_s, seed=12, crash_count=2, straggler_count=2,
                straggler_slowdown=(6.0, 12.0), bandwidth_dip_count=1,
            ),
            sla=SLA(deadline_s=10.0 * base_s, percentile=0.99),
        ),
    )
    # One fleet-day window at the peak: the full overload stack.
    replicas, window_s = 1050, 0.005
    sla = SLA(deadline_s=25.0 * base_s, percentile=0.99)
    full_policy, overload = fleet_day._full_stack(
        base_s, RMC1_SMALL, sla.deadline_s, 16
    )
    fleet = (
        lambda: ResilientRouter(
            BROADWELL, RMC1_SMALL, 8, replicas,
            policy=full_policy, overload=overload, seed=17,
        ),
        dict(
            offered_qps=0.6 * replicas / base_s,
            duration_s=window_s,
            faults=fault_storm(replicas, window_s, seed=117),
            sla=sla,
        ),
    )
    return {
        "figure11x retry+hedge+degrade, 8 replicas": ladder,
        "fleet window, 1050 replicas, full overload stack": fleet,
    }


def _router_digest(result) -> str:
    """Hash of every simulated statistic of one router run."""
    ovl = result.overload
    books = (
        result.offered, result.failed, result.retries, result.hedges,
        result.wasted_attempts, result.fail_fasts, result.ejections,
        result.degraded_completions, result.time_in_degraded_s,
        None if ovl is None else (
            ovl.offered, ovl.admitted, sorted(ovl.shed_by_reason.items()),
            ovl.breaker_rejections, ovl.breaker_opens, ovl.brownout_switches,
            ovl.max_brownout_tier, ovl.time_in_tier_s,
            ovl.completions_by_tier, ovl.max_queue_depth,
        ),
    )
    digest = hashlib.sha256(repr(books).encode())
    digest.update(np.asarray(result.latencies_s).tobytes())
    return digest.hexdigest()


def _router_once(make, kwargs: dict, native: bool) -> tuple[float, str, int]:
    """Best-of-repeats seconds of one loop, its digest and offered count."""
    best_s = float("inf")
    for _ in range(ROUTER_REPEATS):
        router = make()
        with contextlib.nullcontext() if native else reference_loops():
            start_s = time.perf_counter()
            result = router.run(**kwargs)
            best_s = min(best_s, time.perf_counter() - start_s)
        assert router.last_backend == ("native" if native else "reference")
    return best_s, _router_digest(result), result.offered


def bench_router() -> list[dict]:
    """``ResilientRouter.run``: Python loop vs C kernel, same results."""
    rows = []
    for name, (make, kwargs) in _router_cases().items():
        python_s, python_digest, offered = _router_once(make, kwargs, False)
        row = {
            "case": name,
            "replicas": make().num_machines,
            "offered": int(offered),
            "python_s": python_s,
            "python_us_per_request": python_s / offered * 1e6,
            "native_s": None,
            "native_us_per_request": None,
            "native_speedup": None,
            "digest": python_digest[:16],
        }
        if native_available():
            native_s, native_digest, _ = _router_once(make, kwargs, True)
            assert native_digest == python_digest, f"router kernel diverged: {name}"
            row["native_s"] = native_s
            row["native_us_per_request"] = native_s / offered * 1e6
            row["native_speedup"] = python_s / native_s
        rows.append(row)
    return rows


def bench_fleet_full_day(seed: int = 17) -> dict:
    """The full default-scale day through the router's event loop."""
    start_s = time.perf_counter()
    result = fleet_day.run(seed=seed)
    elapsed_s = time.perf_counter() - start_s
    return {
        "windows": len(result.windows),
        "peak_replicas": result.peak_replicas,
        "offered": result.total_offered,
        "availability": result.availability,
        "vectorized_s": elapsed_s,
        "offered_per_s": result.total_offered / elapsed_s,
    }


def _routing_picks(policy: str, stream: bool, pool: int) -> tuple[float, str]:
    """Best-of-repeats seconds for ``ROUTING_PICKS`` draws, and a digest.

    The digest hashes the picks and the generator's final state, so the
    numpy and stream runs of one policy must produce the same digest.
    """
    best_s = float("inf")
    for _ in range(ROUTING_REPEATS):
        rng = np.random.default_rng(ROUTING_SEED)
        if stream:
            draws = RoutingDraws(rng)
            draw = draws.pair if policy == "jsq2" else draws.below
        elif policy == "jsq2":
            draw = functools.partial(rng.choice, size=2, replace=False)
        else:
            draw = rng.integers
        start_s = time.perf_counter()
        picks = [draw(pool) for _ in range(ROUTING_PICKS)]
        best_s = min(best_s, time.perf_counter() - start_s)
        if stream:
            draws.close()
    digest = hashlib.sha256(np.asarray(picks, dtype=np.int64).tobytes())
    digest.update(json.dumps(rng.bit_generator.state, sort_keys=True).encode())
    return best_s, digest.hexdigest()


def bench_routing_draws() -> list[dict]:
    """Per-pick host time of numpy's calls vs the RoutingDraws stream."""
    rows = []
    for pool in ROUTING_POOLS:
        for policy, call in (
            ("jsq2", "choice(n, 2, replace=False)"),
            ("random", "integers(n)"),
        ):
            numpy_s, numpy_digest = _routing_picks(policy, False, pool)
            stream_s, stream_digest = _routing_picks(policy, True, pool)
            assert stream_digest == numpy_digest, (
                f"routing draws diverged from numpy {call} at pool {pool}"
            )
            rows.append({
                "pool": pool,
                "policy": policy,
                "numpy_call": call,
                "picks": ROUTING_PICKS,
                "numpy_us_per_pick": numpy_s / ROUTING_PICKS * 1e6,
                "stream_us_per_pick": stream_s / ROUTING_PICKS * 1e6,
                "speedup": numpy_s / stream_s,
                "digest": numpy_digest[:16],
            })
    return rows


def run_bench(fleet: bool = True) -> dict:
    """Time the router's loops on shared workloads; returns the JSON report."""
    report = {
        "bench": "des_replay",
        "config": {
            "server": "BROADWELL",
            "model": RMC1_SMALL.name,
            "native_available": native_available(),
        },
        "router": bench_router(),
        "routing_draws": bench_routing_draws(),
    }
    if fleet:
        report["fleet_full_day"] = bench_fleet_full_day()
    return report


def check_floors(report: dict) -> None:
    """Assert the speedup floors the engine contract promises."""
    if report["config"]["native_available"]:
        for row in report["router"]:
            assert row["native_speedup"] >= ROUTER_FLOOR, (
                f"router kernel {row['native_speedup']:.1f}x below "
                f"{ROUTER_FLOOR:.0f}x floor on {row['case']}"
            )
    for row in report["routing_draws"]:
        if row["policy"] == "jsq2":
            assert row["speedup"] >= ROUTING_FLOOR, (
                f"routing draws {row['speedup']:.1f}x below "
                f"{ROUTING_FLOOR:.0f}x floor at pool {row['pool']}"
            )
    full_day = report.get("fleet_full_day")
    if full_day is not None:
        assert full_day["offered"] >= 1_000_000, "fleet day below 1M requests"
        assert full_day["peak_replicas"] >= 1_000, "fleet below 1000 replicas"


def render(report: dict) -> str:
    """Text tables of one bench report."""
    parts = [
        format_table(
            ["case", "offered", "python us/req", "native us/req", "speedup"],
            [
                [
                    r["case"],
                    f"{r['offered']:,}",
                    f"{r['python_us_per_request']:.2f}",
                    "-"
                    if r["native_us_per_request"] is None
                    else f"{r['native_us_per_request']:.3f}",
                    "-"
                    if r["native_speedup"] is None
                    else f"{r['native_speedup']:.1f}x",
                ]
                for r in report["router"]
            ],
            title="ResilientRouter.run: Python loop vs C kernel (equal digests)",
        )
    ]
    parts.append(
        format_table(
            ["pool", "policy", "numpy us", "stream us", "speedup"],
            [
                [
                    str(r["pool"]),
                    r["policy"],
                    f"{r['numpy_us_per_pick']:.2f}",
                    f"{r['stream_us_per_pick']:.2f}",
                    f"{r['speedup']:.1f}x",
                ]
                for r in report["routing_draws"]
            ],
            title="routing draws per pick (identical picks and final state)",
        )
    )
    full_day = report.get("fleet_full_day")
    if full_day is not None:
        parts.append(
            f"full day: {full_day['offered']:,} offered across "
            f"{full_day['windows']} windows, peak "
            f"{full_day['peak_replicas']} replicas, "
            f"{full_day['vectorized_s']:.1f} s wall "
            f"({full_day['offered_per_s']:,.0f} requests/s)"
        )
    return "\n".join(parts)


@pytest.mark.perf
def test_des_replay_perf():
    """The router cases without the full day; asserts the kernel wins."""
    from conftest import emit

    report = run_bench(fleet=False)
    emit("DES replay: Python loop vs native", render(report))
    if report["config"]["native_available"]:
        assert all(row["native_speedup"] > 1.0 for row in report["router"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="JSON report path"
    )
    parser.add_argument(
        "--skip-fleet",
        action="store_true",
        help="skip the full-scale fleet-day section",
    )
    args = parser.parse_args(argv)
    report = run_bench(fleet=not args.skip_fleet)
    check_floors(report)
    print(render(report))
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
