"""Operator-level profiling: wall-clock time + analytical cost per operator.

The paper's single-model analysis (Figure 7 right, Figure 9) is an
operator-level time breakdown. :class:`Profiler` records one
:class:`OperatorRecord` per operator invocation and aggregates time, FLOPs
and bytes by the Figure-4 operator categories.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .operators.base import OperatorCost, sum_costs


@dataclass(frozen=True)
class OperatorRecord:
    """One profiled operator invocation."""

    name: str
    op_type: str
    seconds: float
    cost: OperatorCost


@dataclass
class Profile:
    """A collection of operator records from one or more forward passes."""

    records: list[OperatorRecord] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        """Total profiled wall-clock time."""
        return sum(r.seconds for r in self.records)

    @property
    def total_cost(self) -> OperatorCost:
        """Aggregate analytical cost across all records."""
        return sum_costs(r.cost for r in self.records)

    def seconds_by_op_type(self) -> dict[str, float]:
        """Wall-clock seconds grouped by operator category."""
        out: dict[str, float] = {}
        for record in self.records:
            out[record.op_type] = out.get(record.op_type, 0.0) + record.seconds
        return out

    def fraction_by_op_type(self) -> dict[str, float]:
        """Share of total time per operator category (sums to 1)."""
        total = self.total_seconds
        if total <= 0.0:
            return {}
        return {k: v / total for k, v in self.seconds_by_op_type().items()}

    def merged(self, other: "Profile") -> "Profile":
        """Combine two profiles (e.g. across repeated forward passes)."""
        return Profile(records=self.records + other.records)


class Profiler:
    """Times operator invocations and accumulates a :class:`Profile`.

    Usage::

        profiler = Profiler()
        out = profiler.run(op, batch_size, x)
        profile = profiler.profile
    """

    def __init__(self) -> None:
        self.profile = Profile()

    def run(self, operator, batch_size: int, *inputs):
        """Execute ``operator`` on ``inputs`` and record timing + cost."""
        # This is the repo's one sanctioned wall-clock measurement point
        # outside benchmarks/: the Figure-7 "measured" operator breakdown
        # is *defined* as real numpy execution time, so reading the host
        # clock here is the feature, not a leak.
        start = time.perf_counter()  # staticcheck: ignore[SC904]
        result = operator.forward(*inputs)
        elapsed_s = time.perf_counter() - start  # staticcheck: ignore[SC904]
        self.profile.records.append(
            OperatorRecord(
                name=operator.name,
                op_type=operator.op_type,
                seconds=elapsed_s,
                cost=operator.cost(batch_size),
            )
        )
        return result

    def reset(self) -> Profile:
        """Return the accumulated profile and start a fresh one."""
        finished = self.profile
        self.profile = Profile()
        return finished
