"""Perf-trajectory bench: reference vs native NMP replay engines.

Times the same pooled SLS lookup trace through the
:class:`repro.memory.near_memory.NearMemorySystem` reference engine and
(when a compiler is available) the vectorized engine's native C kernel,
at 100k and 1M lookups, and writes ``BENCH_nmp_replay.json`` so future
PRs can track the engine's trajectory. The engines' contract is
bit-identical observables — every timing below is the same computation,
any speedup is pure implementation — and this bench re-asserts digest
equality on every trace it times.

Floor (asserted by :func:`check_floors`, like the DES replay bench): with
the native kernel, ≥10x over the reference engine at 1M lookups. Without
a compiler the vectorized engine runs the reference loop, so there is
nothing to time against it and no floor applies.

Run directly (CI uploads the JSON as an artifact)::

    PYTHONPATH=src python benchmarks/bench_nmp_replay.py

or through pytest (excluded from tier-1, which only collects ``tests/``)::

    PYTHONPATH=src python -m pytest benchmarks/bench_nmp_replay.py -m perf -s
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import format_table
from repro.data.sparse import TemporalReuseGenerator
from repro.memory.near_memory import NearMemorySystem, NmpGeometry
from repro.memory.nmp_native import nmp_native_available

DEFAULT_OUT = Path(__file__).parent / "BENCH_nmp_replay.json"

TABLE_ROWS = 1_000_000
LOOKUPS_PER_POOL = 80
REUSE_PROBABILITY = 0.55  # production-like moderate temporal reuse (Fig 14)

# Contract floor at the largest trace size (see check_floors).
NATIVE_FLOOR = 10.0
REPEATS = 3  # best-of-N wallclock; each repeat replays on a fresh system


def _pooled_trace(lookups: int, rng: np.random.Generator):
    """A pooled production-like trace: rows plus per-pool lengths."""
    generator = TemporalReuseGenerator(
        TABLE_ROWS, 1, reuse_probability=REUSE_PROBABILITY
    )
    rows = generator.ids(lookups, rng)
    num_pools, remainder = divmod(lookups, LOOKUPS_PER_POOL)
    lengths = [LOOKUPS_PER_POOL] * num_pools
    if remainder:
        lengths.append(remainder)
    return rows, np.asarray(lengths, dtype=np.int64)


def _replay_once(
    engine: str, rows: np.ndarray, lengths: np.ndarray
) -> tuple[float, dict]:
    best_s = float("inf")
    digest: dict = {}
    for _ in range(REPEATS):
        system = NearMemorySystem(NmpGeometry(), engine=engine)
        start_s = time.perf_counter()
        result = system.replay(rows, lengths)
        elapsed_s = time.perf_counter() - start_s
        best_s = min(best_s, elapsed_s)
        digest = result.digest()
    return best_s, digest


def run_bench(lookups_list: tuple[int, ...] = (100_000, 1_000_000)) -> dict:
    """Time both engines on shared traces; returns the report."""
    rng = np.random.default_rng(2020)
    native = nmp_native_available()
    results = []
    for lookups in lookups_list:
        rows, lengths = _pooled_trace(lookups, rng)
        reference_s, reference_digest = _replay_once("reference", rows, lengths)
        native_s = None
        if native:
            native_s, native_digest = _replay_once("vectorized", rows, lengths)
            assert native_digest == reference_digest, "native engine diverged"
        results.append(
            {
                "lookups": int(lookups),
                "pools": int(lengths.size),
                "reference_s": reference_s,
                "native_s": native_s,
                "native_speedup": (
                    None if native_s is None else reference_s / native_s
                ),
                "hot_hits": reference_digest["hot_hits"],
                "elapsed_ns": reference_digest["elapsed_ns"],
            }
        )
    return {
        "bench": "nmp_replay",
        "config": {
            "table_rows": TABLE_ROWS,
            "lookups_per_pool": LOOKUPS_PER_POOL,
            "reuse_probability": REUSE_PROBABILITY,
            "geometry_ranks": NmpGeometry().num_ranks,
            "native_available": native,
        },
        "results": results,
    }


def check_floors(report: dict) -> None:
    """Assert the speedup floor the engine contract promises."""
    largest = max(report["results"], key=lambda r: r["lookups"])
    if report["config"]["native_available"]:
        assert largest["native_speedup"] >= NATIVE_FLOOR, (
            f"native speedup {largest['native_speedup']:.1f}x below "
            f"{NATIVE_FLOOR:.0f}x floor at {largest['lookups']:,} lookups"
        )


def render(report: dict) -> str:
    """Text table of one bench report."""
    rows = [
        [
            f"{r['lookups']:,}",
            f"{r['pools']:,}",
            f"{r['reference_s']:.3f}",
            "-" if r["native_s"] is None else f"{r['native_s']:.3f}",
            "-"
            if r["native_speedup"] is None
            else f"{r['native_speedup']:.1f}x",
        ]
        for r in report["results"]
    ]
    return format_table(
        ["lookups", "pools", "reference s", "native s", "native x"],
        rows,
        title="NMP replay engine wallclock (bit-identical observables)",
    )


@pytest.mark.perf
def test_nmp_replay_perf():
    """Replay bench at the small size; asserts the native kernel wins."""
    from conftest import emit

    report = run_bench(lookups_list=(100_000,))
    emit("NMP replay: reference vs native", render(report))
    if report["config"]["native_available"]:
        assert report["results"][0]["native_speedup"] > 1.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="JSON report path"
    )
    parser.add_argument(
        "--lookups",
        type=int,
        nargs="+",
        default=[100_000, 1_000_000],
        help="trace sizes to time",
    )
    args = parser.parse_args(argv)
    report = run_bench(tuple(args.lookups))
    print(render(report))
    check_floors(report)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
