"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures: the
``benchmark`` fixture times the experiment's computation, and the rendered
table/series is printed (run with ``-s`` to see it inline) and appended to
``benchmarks/results.txt`` for inspection after a full run.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from pathlib import Path

# The engine benches hold their reference runs to the reference loops
# through the test suite's helper, so the repo root must be importable
# when a bench runs as a script.
_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

from tests.reference_loops import reference_loops  # noqa: E402

__all__ = ["RESULTS_PATH", "alternate", "emit", "reference_loops"]

RESULTS_PATH = Path(__file__).parent / "results.txt"


def alternate(measure: Callable, sides: list, rounds: int) -> list[list]:
    """``measure(side)`` for every side, ``rounds`` times; one list per side.

    The host's speed drifts within minutes, so the sides take turns round
    by round, and which side goes first alternates too.
    """
    results: list[list] = [[] for _ in sides]
    for i in range(rounds):
        order = range(len(sides)) if i % 2 == 0 else reversed(range(len(sides)))
        for j in order:
            results[j].append(measure(sides[j]))
    return results


def emit(title: str, text: str) -> None:
    """Print a rendered experiment and append it to the results file."""
    banner = f"\n{'=' * 72}\n{title}\n{'=' * 72}\n"
    print(banner + text)
    with RESULTS_PATH.open("a") as fh:
        fh.write(banner + text + "\n")
