"""Host-time spans and counters recorded from outside the program.

A :class:`Recorder` keeps every span (name, start, end, parent) in memory
and writes them out once the run ends. Hot leaf calls (one routing
decision, one pricing call) are aggregated into ``[calls, seconds]``
instead of one span each, so tracing a million-pick run stays cheap; their
time still counts as covered by the enclosing span, so self time stays
right. :class:`NullRecorder` is the untraced run's stand-in: the same
interface, no clock reads.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path


class Recorder:
    """In-memory span log plus per-name leaf timers and counters."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: ``[name, start_s, end_s, parent_index, covered_s]`` per span;
        #: ``covered_s`` is the time its direct children account for.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.leaves: dict[str, list] = {}
        self.counts: dict[str, float] = {}

    @contextmanager
    def span(self, name: str):
        """Record ``name`` around the body, parented to the open span."""
        parent = self._stack[-1] if self._stack else -1
        record = [name, self.clock(), 0.0, parent, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = self.clock()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent][4] += record[2] - record[1]

    def leaf(self, name: str) -> list:
        """The ``[calls, seconds]`` slot a leaf timer accumulates into."""
        return self.leaves.setdefault(name, [0, 0.0])

    def cover(self, seconds: float) -> None:
        """Charge leaf time to the open span's children."""
        if self._stack:
            self.spans[self._stack[-1]][4] += seconds

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name``."""
        self.counts[name] = self.counts.get(name, 0) + value

    def totals(self) -> dict[str, tuple[float, float, int]]:
        """``name -> (total_s, self_s, spans)``.

        A span nested inside a span of the same name is not counted again
        in the total, so re-entrant calls are not double counted.
        """
        out: dict[str, list] = {}
        spans = self.spans
        for name, start, end, parent, covered in spans:
            ancestor, nested = parent, False
            while ancestor >= 0:
                if spans[ancestor][0] == name:
                    nested = True
                    break
                ancestor = spans[ancestor][3]
            slot = out.setdefault(name, [0.0, 0.0, 0])
            if not nested:
                slot[0] += end - start
            slot[1] += (end - start) - covered
            slot[2] += 1
        return {name: (t, s, n) for name, (t, s, n) in out.items()}

    def write(self, path: Path) -> None:
        """Write spans, leaf timers and counters as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "covered_s"],
            "spans": self.spans,
            "leaves": self.leaves,
            "counts": self.counts,
        }
        path.write_text(json.dumps(doc))


class NullRecorder:
    """Recorder interface that records nothing (the untraced run)."""

    _NULL = nullcontext()

    def span(self, name: str):
        return self._NULL

    def count(self, name: str, value: float = 1) -> None:
        pass
