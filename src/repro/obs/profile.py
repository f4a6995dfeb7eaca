"""Per-operator cycle and byte attribution.

The paper's Figure 4 attributes data-center cycles to operator classes
(FC, SLS, Concat, ...) from fleet profiling. :class:`OpProfiler`
accumulates that breakdown from whatever prices operators: the
:class:`~repro.hw.timing.TimingModel` reports each operator invocation it
prices (cycles plus bytes touched), and a cache replay reports the
simulated cycles and bytes of its trace.

Fed by one model's pricing, the profiled cycle fractions match
``ModelLatency.fraction_by_op_type()`` — the quantity Figures 4 and 7
plot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported for annotations only; no runtime cycle
    from ..hw.timing import OperatorTime

__all__ = ["OpAttribution", "OpProfiler"]


@dataclass
class OpAttribution:
    """Accumulated simulated cost of one operator class."""

    op_type: str
    invocations: int = 0
    cycles: float = 0.0
    bytes_moved: float = 0.0

    def add(self, cycles: float, bytes_moved: float) -> None:
        self.invocations += 1
        self.cycles += cycles
        self.bytes_moved += bytes_moved


class OpProfiler:
    """Attributes simulated cycles and bytes to operator classes.

    Two feeders, matching the two layers that know the numbers:

    * ``TimingModel(server, profiler=...)`` calls :meth:`record_timed_op`
      once per operator it prices (analytic, per invocation);
    * :func:`~repro.hw.trace_integration.replay_line_trace` (``profiler=``)
      calls :meth:`record_op` once per replayed trace, with the replay's
      simulated cycles and line bytes.
    """

    def __init__(self) -> None:
        self.by_op_type: dict[str, OpAttribution] = {}

    # ------------------------------------------------------------- feeding

    def record_op(self, op_type: str, cycles: float, bytes_moved: float) -> None:
        """Accumulate one operator invocation's cost."""
        if cycles < 0 or bytes_moved < 0:
            raise ValueError("cycles and bytes must be non-negative")
        attribution = self.by_op_type.get(op_type)
        if attribution is None:
            attribution = OpAttribution(op_type=op_type)
            self.by_op_type[op_type] = attribution
        attribution.add(cycles, bytes_moved)

    def record_timed_op(
        self, op: "OperatorTime", frequency_ghz: float, bytes_moved: float
    ) -> None:
        """Accumulate one priced operator (the TimingModel hook)."""
        self.record_op(op.op_type, op.seconds * frequency_ghz * 1e9, bytes_moved)

    # ------------------------------------------------------------- queries

    def total_cycles(self) -> float:
        """All attributed cycles."""
        return sum(a.cycles for a in self.by_op_type.values())

    def cycles_by_op_type(self) -> dict[str, float]:
        """Attributed cycles per operator class."""
        return {k: a.cycles for k, a in self.by_op_type.items()}

    def bytes_by_op_type(self) -> dict[str, float]:
        """Attributed bytes per operator class."""
        return {k: a.bytes_moved for k, a in self.by_op_type.items()}

    def fraction_by_op_type(self) -> dict[str, float]:
        """Cycle share per operator class — the Figure-4 view of a run."""
        total = self.total_cycles()
        if total <= 0:
            return {}
        return {k: a.cycles / total for k, a in self.by_op_type.items()}

    def merged(self, other: "OpProfiler") -> "OpProfiler":
        """Combine two profilers (e.g. per-instance shards of one run)."""
        out = OpProfiler()
        for profiler in (self, other):
            for key, a in profiler.by_op_type.items():
                target = out.by_op_type.setdefault(key, OpAttribution(op_type=key))
                target.invocations += a.invocations
                target.cycles += a.cycles
                target.bytes_moved += a.bytes_moved
        return out

    def render(self) -> str:
        """Text table of the breakdown, largest cycle share first."""
        fractions = self.fraction_by_op_type()
        rows = sorted(
            self.by_op_type.values(), key=lambda a: -a.cycles
        )
        lines = [
            f"{'operator':<12}{'invocations':>12}{'cycles':>16}"
            f"{'share %':>9}{'bytes':>16}"
        ]
        for a in rows:
            lines.append(
                f"{a.op_type:<12}{a.invocations:>12}{a.cycles:>16.3e}"
                f"{100 * fractions.get(a.op_type, 0.0):>8.1f}%"
                f"{a.bytes_moved:>16.3e}"
            )
        return "\n".join(lines)
