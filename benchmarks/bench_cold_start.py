"""Perf-trajectory bench: cold start of fresh ``repro`` processes.

Every ``python -m repro`` run, and every process that imports ``repro``,
pays for the import first. This bench times three commands, each in a
fresh process whose ``repro`` comes from a checkout's ``src/``:
``python -c "import repro"``, ``python -m repro list`` and
``python -m repro figure11``. After one untimed warm-up round (which also
writes the bytecode caches), each command runs ``ROUNDS`` times; the
report gives the runs, median and quartiles of wall seconds and of peak
RSS in MiB (the child's ``ru_maxrss`` from ``os.wait4``, in KiB on
Linux, the platform this bench runs on). It also
counts the modules ``import repro`` loads and names the top-level packages
outside the standard library among them (numpy and repro, since numpy is
the one declared dependency). Writes ``BENCH_cold_start.json``.

Run directly (CI uploads the JSON as an artifact)::

    python benchmarks/bench_cold_start.py

``--parent-src DIR`` measures another checkout's ``src/`` (say, the parent
commit's) the same way, alternating with this checkout round by round
(which side goes first alternates too), and adds a ``parent`` column and
the rounds this checkout won::

    python benchmarks/bench_cold_start.py --parent-src ../parent/src

or through pytest (excluded from tier-1, which only collects ``tests/``)::

    PYTHONPATH=src python -m pytest benchmarks/bench_cold_start.py -m perf -s
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import alternate

from repro.analysis import format_table

DEFAULT_OUT = Path(__file__).parent / "BENCH_cold_start.json"
SRC = Path(__file__).resolve().parents[1] / "src"

ROUNDS = 10
COMMANDS = {
    "import repro": ("-c", "import repro"),
    "repro list": ("-m", "repro", "list"),
    "repro figure11": ("-m", "repro", "figure11"),
}
METRICS = ("wall_s", "peak_rss_mb")

#: Runs ``python *argv`` in a fresh child and prints its wall seconds, peak
#: RSS and exit code. The child is forked from this small launcher, not
#: from the bench, because a child's ``ru_maxrss`` starts from its parent's
#: resident set at the fork (its peak, if forked with vfork).
LAUNCH = """
import os, sys, time
start_s = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        os.execv(sys.executable, [sys.executable, *sys.argv[1:]])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
wall_s = time.perf_counter() - start_s
print(wall_s, usage.ru_maxrss, os.waitstatus_to_exitcode(status))
"""

#: Prints the count of modules ``import repro`` loads and the top-level
#: packages among them that are not in the standard library.
IMPORTED = """
import json, sys
before = set(sys.modules)
import repro
added = set(sys.modules) - before
packages = {name.partition(".")[0] for name in added}
print(json.dumps({
    "modules": len(added),
    "packages": sorted(packages - set(sys.stdlib_module_names)),
}))
"""


def _env(src: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(src.resolve())}


def run_once(src: Path, args: tuple[str, ...]) -> dict:
    """Wall seconds and peak RSS (MiB) of one fresh ``python *args``."""
    out = subprocess.run(
        [sys.executable, "-S", "-c", LAUNCH, *args], cwd=src.parent,
        env=_env(src), check=True, capture_output=True, text=True,
    )
    wall_s, peak_rss_kib, exit_code = out.stdout.split()
    if exit_code != "0":
        raise RuntimeError(
            f"python {' '.join(args)} on {src} exited {exit_code}: {out.stderr}"
        )
    return {"wall_s": float(wall_s), "peak_rss_mb": int(peak_rss_kib) / 1024}


def run_commands(src: Path) -> dict:
    """One run of every command on ``src``."""
    return {name: run_once(src, args) for name, args in COMMANDS.items()}


def imported(src: Path) -> dict:
    """Modules and non-stdlib top-level packages ``import repro`` loads."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORTED], cwd=src.parent, env=_env(src),
        check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout)


def _summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def _side(src: Path, rounds: list[dict]) -> dict:
    """One checkout's column: its imports and each command's summaries."""
    return {
        **imported(src),
        "commands": {
            name: {
                metric: _summary([r[name][metric] for r in rounds])
                for metric in METRICS
            }
            for name in COMMANDS
        },
    }


def run_bench(parent_src: Path | None = None) -> dict:
    """Time the commands here (alternating with ``parent_src``); the report."""
    sides = [SRC] if parent_src is None else [SRC, parent_src]
    alternate(run_commands, sides, 1)  # warm-up: bytecode and page caches
    results = alternate(run_commands, sides, ROUNDS)
    report = {
        "bench": "cold_start",
        "config": {
            "python": platform.python_version(),
            "rounds": ROUNDS,
            "commands": {name: list(args) for name, args in COMMANDS.items()},
        },
        "this": _side(SRC, results[0]),
    }
    if parent_src is not None:
        report["parent"] = _side(parent_src, results[1])
        report["wins"] = {
            name: {
                metric: sum(
                    ours[name][metric] < theirs[name][metric]
                    for ours, theirs in zip(*results)
                )
                for metric in METRICS
            }
            for name in COMMANDS
        }
    return report


def check(report: dict) -> None:
    """``import repro`` loads no top-level package but numpy and repro."""
    packages = set(report["this"]["packages"])
    assert packages <= {"numpy", "repro"}, (
        f"import repro loads undeclared packages: {sorted(packages)}"
    )


def _cell(summary: dict, unit: str) -> str:
    return (
        f"{summary['median']:.2f} ({summary['q1']:.2f}-{summary['q3']:.2f}) {unit}"
    )


def render(report: dict) -> str:
    """Text table of one bench report."""
    columns = [("this", report["this"])]
    if "parent" in report:
        columns.append(("parent", report["parent"]))
    headers = ["command"] + [
        f"{label} {what}" for label, _ in columns for what in ("wall", "peak RSS")
    ]
    if "wins" in report:
        headers.append("rounds won (wall, RSS)")
    rows = []
    for name in COMMANDS:
        row = [name]
        for _, side in columns:
            cells = side["commands"][name]
            row += [_cell(cells["wall_s"], "s"), _cell(cells["peak_rss_mb"], "MiB")]
        if "wins" in report:
            wins = report["wins"][name]
            row.append(f"{wins['wall_s']}, {wins['peak_rss_mb']} of {ROUNDS}")
        rows.append(row)
    imports = "; ".join(
        f"{label}: import repro loads {side['modules']} modules, packages "
        f"{', '.join(side['packages'])}"
        for label, side in columns
    )
    title = f"fresh-process cold start, median (quartiles) of {ROUNDS} rounds"
    return format_table(headers, rows, title=title) + "\n" + imports


@pytest.mark.perf
def test_cold_start_perf():
    """Every measurement of the bench; asserts the import contract."""
    from conftest import emit

    report = run_bench()
    emit("Cold start: fresh repro processes", render(report))
    check(report)


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
    check(report)
    print(render(report))
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
