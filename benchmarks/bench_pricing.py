"""Perf-trajectory bench: pricing a model once per operator shape.

``TimingModel.model_latency`` prices each distinct operator shape once per
call, and ``model_seconds`` returns its ``total_seconds`` without building
per-operator records. This bench times both, per production preset on
Broadwell at batch 32, alone and at 8 co-located jobs, against pricing
every operator through ``op_time`` over ``config_ops`` (the per-operator
algorithm, still public), and asserts that all three give the same
``per_op`` and total bit for bit. It also times the default-scale
Figure 11 (median of several runs) and counts its ``TimingModel`` builds
and its pricing calls (``model_latency``, ``model_seconds`` and the FC
probe's ``fc_time``). Writes ``BENCH_pricing.json``.

Run directly (CI uploads the JSON as an artifact)::

    PYTHONPATH=src python benchmarks/bench_pricing.py

``--parent-src DIR`` times this checkout and another checkout's ``src/``
(say, the parent commit's) in fresh processes, alternating round by round
(which side goes first alternates too) for ``ROUNDS`` rounds. The report
then holds the median of each timed cell on this checkout, with the
parent's ``model_latency`` and Figure 11 as a ``parent`` column, and both
sides' ``model_latency`` in every round::

    PYTHONPATH=src python benchmarks/bench_pricing.py --parent-src ../parent/src

or through pytest (excluded from tier-1, which only collects ``tests/``)::

    PYTHONPATH=src python -m pytest benchmarks/bench_pricing.py -m perf -s
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import alternate

from repro.analysis import format_table
from repro.config import PRODUCTION_PRESETS, RMC2_SMALL
from repro.core.graph import config_ops
from repro.experiments import fig11_tail_latency
from repro.hw import BROADWELL, RUN_ALONE, TimingModel

DEFAULT_OUT = Path(__file__).parent / "BENCH_pricing.json"
SRC = Path(__file__).resolve().parents[1] / "src"

BATCH = 32
CALLS = 50
REPEATS = 10
FIGURE11_RUNS = 5
ROUNDS = 10
# RMC2-small's 20 tables share one shape: pricing it once must pay.
FLOOR_MODEL = RMC2_SMALL.name
FLOOR = 2.0


def _price_every_operator(tm: TimingModel, config, state):
    """One ``op_time`` call per operator, with ``model_latency``'s hit ratio."""
    hit = tm.table_hit_ratio(config.embedding_storage_bytes())
    return tuple(tm.op_time(spec, BATCH, state, hit) for spec in config_ops(config))


def _us_per_call(call) -> float:
    """Mean microseconds per call over one batch of ``CALLS``."""
    start_s = time.perf_counter()
    for _ in range(CALLS):
        call()
    return (time.perf_counter() - start_s) / CALLS * 1e6


def _interleaved_us(*calls) -> list[list[float]]:
    """Microseconds per call of each of ``calls``, one list per call.

    The host's speed drifts within minutes, so the calls are timed in
    interleaved batches (in turn, alternating direction) and compared
    batch by batch.
    """
    for call in calls:
        call()
    samples: list[list[float]] = [[] for _ in calls]
    for i in range(REPEATS):
        order = range(len(calls)) if i % 2 == 0 else reversed(range(len(calls)))
        for j in order:
            samples[j].append(_us_per_call(calls[j]))
    return samples


def _paired_ratio(slow_us: list[float], fast_us: list[float]) -> float:
    """Median of the batch-by-batch ratios ``slow / fast``."""
    return statistics.median(a / b for a, b in zip(slow_us, fast_us))


#: Whole-model pricing entry points; the parent checkout may predate
#: ``model_seconds``.
PRICING_METHODS = tuple(
    name for name in ("model_latency", "model_seconds") if hasattr(TimingModel, name)
)


def bench_models() -> list[dict]:
    """Per-operator pricing vs ``model_latency`` vs ``model_seconds``."""
    rows = []
    for config in PRODUCTION_PRESETS.values():
        tm = TimingModel(BROADWELL)
        states = {
            "alone": RUN_ALONE,
            "8 jobs": tm.colocation_state(config, BATCH, 8),
        }
        for label, state in states.items():
            latency = tm.model_latency(config, BATCH, state)
            assert latency.per_op == _price_every_operator(tm, config, state), (
                f"per_op diverged from per-operator pricing: {config.name}"
            )
            calls = [
                lambda: _price_every_operator(tm, config, state),
                lambda: tm.model_latency(config, BATCH, state),
            ]
            if "model_seconds" in PRICING_METHODS:
                seconds = tm.model_seconds(config, BATCH, state)
                assert seconds == latency.total_seconds, (
                    f"model_seconds diverged from total_seconds: {config.name}"
                )
                calls.append(lambda: tm.model_seconds(config, BATCH, state))
            per_op_us, model_us, *seconds_us = _interleaved_us(*calls)
            row = {
                "model": config.name,
                "state": label,
                "operators": len(latency.per_op),
                "per_op_us": statistics.median(per_op_us),
                "model_latency_us": statistics.median(model_us),
                "speedup": _paired_ratio(per_op_us, model_us),
            }
            if seconds_us:
                row["model_seconds_us"] = statistics.median(seconds_us[0])
                row["seconds_speedup"] = _paired_ratio(model_us, seconds_us[0])
            rows.append(row)
    return rows


def _figure11_calls() -> tuple[int, dict[str, int]]:
    """``TimingModel`` builds and pricing calls of one default-scale Figure 11."""
    calls = dict.fromkeys(("__init__", *PRICING_METHODS, "fc_time"), 0)
    originals = {name: getattr(TimingModel, name) for name in calls}

    def counting(name):
        def counted(self, *args, **kwargs):
            calls[name] += 1
            return originals[name](self, *args, **kwargs)

        return counted

    for name in calls:
        setattr(TimingModel, name, counting(name))
    try:
        fig11_tail_latency.run()
    finally:
        for name, original in originals.items():
            setattr(TimingModel, name, original)
    builds = calls.pop("__init__")
    return builds, calls


def bench_figure11() -> dict:
    """Host seconds of the default-scale Figure 11."""
    runs_s = []
    for _ in range(FIGURE11_RUNS):
        start_s = time.perf_counter()
        fig11_tail_latency.run()
        runs_s.append(time.perf_counter() - start_s)
    builds, calls = _figure11_calls()
    return {
        "runs_s": runs_s,
        "median_s": statistics.median(runs_s),
        "timing_models": builds,
        "pricing_calls": sum(calls.values()),
        "calls_by_method": calls,
    }


def measure() -> dict:
    """Every measurement of this bench against the importable ``repro``."""
    return {"models": bench_models(), "figure11": bench_figure11()}


def measure_elsewhere(src: Path) -> dict:
    """:func:`measure` in a fresh process whose ``repro`` comes from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    code = "import json, bench_pricing; print(json.dumps(bench_pricing.measure()))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=Path(__file__).parent, env=env,
        check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout)


def _median_cells(reports: list):
    """One report from several of :func:`measure`'s: each timed cell's median.

    Counts and labels must agree across the reports; lists of runs are
    joined.
    """
    first = reports[0]
    if isinstance(first, dict):
        return {key: _median_cells([r[key] for r in reports]) for key in first}
    if isinstance(first, list) and isinstance(first[0], dict):
        return [_median_cells(list(rows)) for rows in zip(*reports)]
    if isinstance(first, list):
        return [value for r in reports for value in r]
    if isinstance(first, float):
        return statistics.median(reports)
    if any(r != first for r in reports):
        raise ValueError(f"a count or label differs between rounds: {reports}")
    return first


def _latency_rounds(reports: list[dict], row: dict) -> list[float]:
    """``row``'s model and state's ``model_latency_us`` in each report."""
    return [
        r["model_latency_us"]
        for report in reports
        for r in report["models"]
        if (r["model"], r["state"]) == (row["model"], row["state"])
    ]


def run_bench(parent_src: Path | None = None) -> dict:
    """Time pricing on this checkout (alternating with ``parent_src``)."""
    report = {
        "bench": "pricing",
        "config": {
            "server": BROADWELL.name,
            "batch": BATCH,
            "calls": CALLS,
            "repeats": REPEATS,
            "figure11_runs": FIGURE11_RUNS,
        },
    }
    if parent_src is None:
        report.update(measure())
    else:
        ours, theirs = alternate(measure_elsewhere, [SRC, parent_src], ROUNDS)
        report["config"]["rounds"] = ROUNDS
        report.update(_median_cells(ours))
        for row in report["models"]:
            row["model_latency_us_rounds"] = _latency_rounds(ours, row)
            row["parent_model_latency_us_rounds"] = _latency_rounds(theirs, row)
            row["parent_model_latency_us"] = statistics.median(
                row["parent_model_latency_us_rounds"]
            )
        report["parent_figure11"] = _median_cells([r["figure11"] for r in theirs])
    return report


def check_floors(report: dict) -> None:
    """Pricing RMC2-small's shared table shape once must pay at least 2x."""
    for row in report["models"]:
        if row["model"] == FLOOR_MODEL:
            assert row["speedup"] >= FLOOR, (
                f"{FLOOR_MODEL} {row['state']}: {row['speedup']:.1f}x below "
                f"the {FLOOR:.0f}x floor"
            )


def _calls_text(fig11: dict) -> str:
    by_method = " + ".join(
        f"{n} {name}" for name, n in fig11["calls_by_method"].items()
    )
    return (
        f"{fig11['timing_models']} TimingModel builds, "
        f"{fig11['pricing_calls']} pricing calls ({by_method})"
    )


def render(report: dict) -> str:
    """Text tables of one bench report."""
    has_parent = "parent_figure11" in report
    headers = [
        "model", "state", "ops", "per-op us", "model_latency us", "speedup",
        "model_seconds us", "vs model_latency",
    ]
    if has_parent:
        headers.append("parent model_latency us")
    rows = []
    for r in report["models"]:
        row = [
            r["model"],
            r["state"],
            str(r["operators"]),
            f"{r['per_op_us']:.1f}",
            f"{r['model_latency_us']:.1f}",
            f"{r['speedup']:.1f}x",
            f"{r['model_seconds_us']:.1f}",
            f"{r['seconds_speedup']:.1f}x",
        ]
        if has_parent:
            row.append(f"{r['parent_model_latency_us']:.1f}")
        rows.append(row)
    parts = [
        format_table(
            headers,
            rows,
            title=(
                f"model_latency and model_seconds vs per-operator pricing, "
                f"{BROADWELL.name}, batch {BATCH} (equal per_op and totals)"
            ),
        )
    ]
    fig11 = report["figure11"]
    line = (
        f"default-scale Figure 11: median {fig11['median_s']:.3f} s over "
        f"{len(fig11['runs_s'])} runs, {_calls_text(fig11)}"
    )
    if has_parent:
        parent = report["parent_figure11"]
        line += f" (parent {parent['median_s']:.3f} s, {_calls_text(parent)})"
    parts.append(line)
    return "\n".join(parts)


@pytest.mark.perf
def test_pricing_perf():
    """Every measurement of the bench; asserts the RMC2-small floor."""
    from conftest import emit

    report = measure()
    emit("Pricing: model_latency and model_seconds vs per-operator", render(report))
    check_floors(report)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="JSON report path"
    )
    parser.add_argument(
        "--parent-src",
        type=Path,
        default=None,
        help="another checkout's src/ to measure for the parent column",
    )
    args = parser.parse_args(argv)
    report = run_bench(args.parent_src)
    check_floors(report)
    print(render(report))
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
