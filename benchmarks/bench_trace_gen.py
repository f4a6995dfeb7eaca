"""Perf-trajectory bench: generating Figure 14's sparse-ID traces.

Times the temporal-reuse generator's C kernel against its reference loop
(reached through ``reference_loops()``) at 100k and 1M IDs on a 4M-row
table, and asserts that both give the same IDs (sha256). It also times
what a Figure 14 run generates: the Zipf popularity CDF of a 4M-row
table (with its tracemalloc peak), ``synthetic_production_traces`` at
perfbench ``embedding_locality``'s two table sizes, and an in-process
default-scale Figure 14. Writes ``BENCH_trace_gen.json``.

Floor (asserted by :func:`check_floors`): with the kernel, ≥10x over the
reference loop at 1M IDs. Without a compiler or ``libnpyrandom.a`` every
call runs the reference loop, so no floor applies.

Run directly (CI uploads the JSON as an artifact)::

    PYTHONPATH=src python benchmarks/bench_trace_gen.py

``--parent-src DIR`` runs the generation measurements on this checkout
and another checkout's ``src/`` (say, the parent commit's) in fresh
processes, alternating round by round (which side goes first alternates
too) for ``ROUNDS`` rounds. The report then holds each generation cell's
median on this checkout, the parent's as a ``parent`` column, and both
sides' timings in every round; it asserts that both checkouts generate
the same traces::

    PYTHONPATH=src python benchmarks/bench_trace_gen.py --parent-src ../parent/src

or through pytest (excluded from tier-1, which only collects ``tests/``)::

    PYTHONPATH=src python -m pytest benchmarks/bench_trace_gen.py -m perf -s
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import alternate, median_cells, reference_loops

from repro.analysis import format_table
from repro.data import TemporalReuseGenerator, ZipfSparseGenerator
from repro.data.traces import synthetic_production_traces
from repro.experiments import fig14_trace_locality

DEFAULT_OUT = Path(__file__).parent / "BENCH_trace_gen.json"
SRC = Path(__file__).resolve().parents[1] / "src"

#: perfbench ``embedding_locality``'s tables: LLC-sized and ~15x the LLC.
TABLE_SIZES = (8_192, 4_194_304)
TRACE_LENGTH = 2_000
REUSE_PROBABILITY = 0.55  # production-like moderate temporal reuse (Fig 14)
ZIPF_ALPHA = 0.9  # trace-3's alpha in synthetic_production_traces
SIZES = (100_000, 1_000_000)
NATIVE_FLOOR = 10.0
REPEATS = 3  # best-of-N for the head-to-head, median-of-N elsewhere
ROUNDS = 10


def _sha256(ids: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(ids, np.int64).tobytes()).hexdigest()


def _reuse_ids(count: int, reference: bool) -> tuple[float, str, str]:
    """Best host seconds of ``count`` fresh IDs, their digest, the loop."""
    best_s = float("inf")
    for _ in range(REPEATS):
        generator = TemporalReuseGenerator(
            TABLE_SIZES[1], 1, reuse_probability=REUSE_PROBABILITY
        )
        rng = np.random.default_rng(2020)
        with reference_loops() if reference else contextlib.nullcontext():
            start_s = time.perf_counter()
            ids = generator.ids(count, rng)
            elapsed_s = time.perf_counter() - start_s
        best_s = min(best_s, elapsed_s)
    return best_s, _sha256(ids), generator.last_backend


def bench_reuse() -> dict:
    """The kernel against the reference loop on the same IDs."""
    results = []
    native = None
    for count in SIZES:
        reference_s, reference_digest, _ = _reuse_ids(count, reference=True)
        native_s, native_digest, backend = _reuse_ids(count, reference=False)
        native = backend == "native"
        assert native_digest == reference_digest, "the kernel diverged"
        results.append({
            "ids": count,
            "reference_s": reference_s,
            "native_s": native_s if native else None,
            "native_speedup": reference_s / native_s if native else None,
            "sha256": native_digest,
        })
    return {"native_available": native, "results": results}


def _median_s(call) -> float:
    runs_s = []
    for _ in range(REPEATS):
        start_s = time.perf_counter()
        call()
        runs_s.append(time.perf_counter() - start_s)
    return statistics.median(runs_s)


def measure_generation() -> dict:
    """Trace generation on the importable ``repro``: any checkout."""
    rows = TABLE_SIZES[1]
    tracemalloc.start()
    ZipfSparseGenerator(rows, 1, alpha=ZIPF_ALPHA)
    _, peak_b = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    zipf = {
        "rows": rows,
        "alpha": ZIPF_ALPHA,
        "median_ms": 1e3 * _median_s(
            lambda: ZipfSparseGenerator(rows, 1, alpha=ZIPF_ALPHA)
        ),
        "tracemalloc_peak_mb": peak_b / 2**20,
    }
    traces = []
    for table_rows in TABLE_SIZES:
        digest = hashlib.sha256()
        for trace in synthetic_production_traces(table_rows, TRACE_LENGTH, seed=1):
            digest.update(trace.ids.tobytes())
        traces.append({
            "table_rows": table_rows,
            "length": TRACE_LENGTH,
            "median_ms": 1e3 * _median_s(
                lambda: synthetic_production_traces(
                    table_rows, TRACE_LENGTH, seed=1
                )
            ),
            "sha256": digest.hexdigest(),
        })
    return {
        "zipf_build": zipf,
        "production_traces": traces,
        "figure14_s": _median_s(fig14_trace_locality.run),
    }


def measure_elsewhere(src: Path) -> dict:
    """:func:`measure_generation` in a fresh process on ``src``'s ``repro``."""
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    code = (
        "import json, bench_trace_gen; "
        "print(json.dumps(bench_trace_gen.measure_generation()))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=Path(__file__).parent, env=env,
        check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout)


def _timed_ms(measured: dict) -> list[float]:
    """One report's timed generation cells in ms, in ``render``'s row order."""
    return [
        measured["zipf_build"]["median_ms"],
        *(t["median_ms"] for t in measured["production_traces"]),
        1e3 * measured["figure14_s"],
    ]


def run_bench(parent_src: Path | None = None) -> dict:
    """Time trace generation here (alternating with ``parent_src``)."""
    report = {
        "bench": "trace_gen",
        "config": {
            "table_sizes": list(TABLE_SIZES),
            "trace_length": TRACE_LENGTH,
            "reuse_probability": REUSE_PROBABILITY,
            "repeats": REPEATS,
        },
        "reuse": bench_reuse(),
    }
    if parent_src is None:
        report.update(measure_generation())
        return report
    ours, theirs = alternate(measure_elsewhere, [SRC, parent_src], ROUNDS)
    report["config"]["rounds"] = ROUNDS
    report.update(median_cells(ours))
    report["parent"] = median_cells(theirs)
    for row, parent_row in zip(
        report["production_traces"], report["parent"]["production_traces"]
    ):
        assert row["sha256"] == parent_row["sha256"], (
            f"{row['table_rows']} rows: the traces differ from the parent's"
        )
    report["rounds_ms"] = {
        "this checkout": [_timed_ms(r) for r in ours],
        "parent": [_timed_ms(r) for r in theirs],
    }
    return report


def check_floors(report: dict) -> None:
    """With the kernel, ≥10x over the reference loop at 1M IDs."""
    reuse = report["reuse"]
    if not reuse["native_available"]:
        return
    largest = max(reuse["results"], key=lambda r: r["ids"])
    assert largest["native_speedup"] >= NATIVE_FLOOR, (
        f"kernel {largest['native_speedup']:.1f}x below the "
        f"{NATIVE_FLOOR:.0f}x floor at {largest['ids']:,} IDs"
    )


def _generation_cells(measured: dict, rounds: list | None) -> list[str]:
    """One report's generation timings, in ``render``'s row order, each
    with its rounds' quartiles when there are rounds."""
    cells = [f"{ms:.1f} ms" for ms in _timed_ms(measured)]
    for i, values in enumerate(zip(*rounds or [])):
        q1, _, q3 = statistics.quantiles(values, n=4)
        cells[i] += f" [{q1:.1f}-{q3:.1f}]"
    cells[0] += f", peak {measured['zipf_build']['tracemalloc_peak_mb']:.0f} MB"
    return cells


def render(report: dict) -> str:
    """Text tables of one bench report."""
    parent = report.get("parent")
    rows = [
        [
            f"{r['ids']:,}",
            f"{r['reference_s']:.3f}",
            "-" if r["native_s"] is None else f"{r['native_s']:.4f}",
            "-" if r["native_speedup"] is None else f"{r['native_speedup']:.0f}x",
        ]
        for r in report["reuse"]["results"]
    ]
    parts = [
        format_table(
            ["ids", "reference s", "native s", "native x"],
            rows,
            title=(
                f"temporal reuse on {TABLE_SIZES[1]:,} rows "
                "(equal sha256 on both loops)"
            ),
        )
    ]
    labels = [f"Zipf CDF, {TABLE_SIZES[1]:,} rows"] + [
        f"production traces, {rows:,} rows x {TRACE_LENGTH:,}"
        for rows in TABLE_SIZES
    ] + ["figure14, default scale"]
    rounds = report.get("rounds_ms", {})
    ours = _generation_cells(report, rounds.get("this checkout"))
    theirs = (
        _generation_cells(parent, rounds["parent"]) if parent else ["-"] * len(ours)
    )
    gen_rows = [list(row) for row in zip(labels, ours, theirs)]
    title = "trace generation, median host time"
    if rounds:
        title += f" [quartiles] over {len(rounds['parent'])} alternating rounds"
    parts.append(
        format_table(["what", "this checkout", "parent"], gen_rows, title=title)
    )
    return "\n".join(parts)


@pytest.mark.perf
def test_trace_gen_perf():
    """Every measurement of the bench; asserts the 1M-ID floor."""
    from conftest import emit

    report = run_bench()
    emit("Trace generation: temporal-reuse kernel vs reference loop", render(report))
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
