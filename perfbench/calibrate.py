"""Fixed reference computations that gauge the host's current speed.

Shared hosts change speed by tens of percent over seconds to minutes
(other tenants contend for the same cores and memory), which moves a plain
host-time median by more than any regression bound worth having. The
benchmark therefore times reference loops next to every unit and reports
host time scaled to a reference speed: ``seconds * speed_scale(...)``.

Two loops gauge the two resources the workloads are bound by: an
interpreter loop (dict updates, float arithmetic, small numpy calls), like
the simulators, and a memory-bound numpy pass over an 8 MiB array, like the
trace generators building a large table's popularity CDF. Each workload
weights them by its ``memory_share``. Neither loop touches program code,
so a change to the program cannot move them.
"""

from __future__ import annotations

import time

import numpy as np

#: Each loop's time on a quiet 2-core host; scaled timings are host time at
#: the speed where the loops take this long.
CPU_REFERENCE_S = 0.008
MEMORY_REFERENCE_S = 0.010


def _cpu_loop() -> float:
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0.0
    for i in range(30_000):
        table[i & 255] = table.get(i & 255, 0) + i
        acc += (i * 0.5) % 7
    values = np.arange(1000.0)
    for _ in range(200):
        acc += float(np.sqrt(values).sum())
    return time.perf_counter() - start


def _memory_loop() -> float:
    start = time.perf_counter()
    cdf = np.cumsum(np.arange(1 << 20, dtype=np.float64))
    np.searchsorted(cdf, cdf[::64])
    return time.perf_counter() - start


def speed_scale(memory_share: float = 0.0, repeats: int = 2) -> float:
    """The host's speed now relative to the reference speed (1.0 = equal).

    Each loop is timed ``repeats`` times and the fastest kept; the two
    slowdowns are mixed by ``memory_share`` (0 runs only the CPU loop).
    """
    slowdown = (1.0 - memory_share) * min(
        _cpu_loop() for _ in range(repeats)
    ) / CPU_REFERENCE_S
    if memory_share:
        slowdown += memory_share * min(
            _memory_loop() for _ in range(repeats)
        ) / MEMORY_REFERENCE_S
    return 1.0 / slowdown
