"""Multi-level cache hierarchies: inclusive vs non-inclusive/exclusive.

The paper's key micro-architectural contrast (Takeaway 7): Haswell and
Broadwell implement an *inclusive* L2/L3 — every L2 line is also in L3, so
an L3 eviction back-invalidates the victim's L2 copy. Under the irregular
access streams of co-located recommendation models, this back-invalidation
inflates L2 miss rates (+29% on Broadwell at 16 co-located jobs vs +9% on
Skylake) and produces the multi-modal tail latencies of Figure 11. Skylake's
L2/L3 is non-inclusive (L3 acts as a victim cache), so LLC churn does not
reach into L2.

:class:`CacheHierarchy` simulates an L1/L2/L3 stack with either policy and
returns per-level hit counts for an address trace. It picks one of two
loops with the same semantics when it is built:

* the C kernel (:mod:`repro.hw._native`), which replays batches of lines
  over structure-of-arrays numpy state (:mod:`repro.hw.vectorized`),
  whenever the kernel loads. Bit-identical stats to the reference loop
  across both inclusion policies, prefetching, and external-pressure
  paths — enforced by ``tests/test_engine_equivalence.py`` — at one-to-two
  orders of magnitude lower cost, which is what makes million-lookup
  paper-scale traces tractable (see ``docs/PERFORMANCE.md``);
* the reference loop — one OrderedDict per set, one Python call per
  line; slow, obvious, and the executable specification — when the
  kernel cannot load (no compiler, or ``REPRO_DISABLE_NATIVE=1``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.operators.base import MemoryAccess
from ._native import load_kernel
from .cache import SetAssociativeCache
from .server import ServerSpec
from .vectorized import VectorizedSetAssociativeCache, expand_spans

# Accesses buffered per batch when draining a MemoryAccess iterable
# through the kernel.
_TRACE_CHUNK = 65536


@dataclass
class HierarchyStats:
    """Per-level hits plus DRAM fills for a simulated trace."""

    l1_hits: int = 0
    l2_hits: int = 0
    l3_hits: int = 0
    dram_accesses: int = 0
    l2_back_invalidations: int = 0
    prefetches_issued: int = 0
    prefetch_hits: int = 0

    @property
    def prefetch_accuracy(self) -> float:
        """Fraction of issued prefetches whose line was later used."""
        if self.prefetches_issued == 0:
            return 0.0
        return self.prefetch_hits / self.prefetches_issued

    @property
    def total_line_accesses(self) -> int:
        """Total cache-line lookups issued."""
        return self.l1_hits + self.l2_hits + self.l3_hits + self.dram_accesses

    def llc_mpki(self, instructions: int) -> float:
        """LLC misses per kilo-instruction, the Figure-5 metric."""
        if instructions <= 0:
            raise ValueError("instructions must be positive")
        return 1000.0 * self.dram_accesses / instructions

    def l2_miss_ratio(self) -> float:
        """L2 misses / L2 accesses."""
        l2_accesses = self.l2_hits + self.l3_hits + self.dram_accesses
        if l2_accesses == 0:
            return 0.0
        return (self.l3_hits + self.dram_accesses) / l2_accesses


class CacheHierarchy:
    """An L1 + L2 + shared-L3 stack with a configurable inclusion policy.

    Args:
        server: provides capacities and the inclusion policy.
        l3_share: fraction of the shared LLC available to this context
            (co-located jobs shrink each other's effective share).
        line_bytes: cache-line size.
        prefetch_degree: next-line stream prefetcher: on every demand miss
            to line L, lines L+1..L+degree are fetched into the L2. Helps
            streaming operators (FC weight reads); barely helps — and can
            pollute — under SLS's irregular row gathers, the effect the
            paper notes as "prefetching pollution". 0 disables.

    The hierarchy replays in the native batch kernel when it loads (feed
    it through :meth:`access_lines` for full speed), else in the per-line
    reference loop; :attr:`backend` says which, ``"native"`` or
    ``"reference"``.
    """

    def __init__(
        self,
        server: ServerSpec,
        l3_share: float = 1.0,
        line_bytes: int = 64,
        prefetch_degree: int = 0,
    ) -> None:
        if not 0.0 < l3_share <= 1.0:
            raise ValueError("l3_share must be in (0, 1]")
        if prefetch_degree < 0:
            raise ValueError("prefetch_degree must be non-negative")
        self.server = server
        self.inclusive = server.inclusive_llc
        self.prefetch_degree = prefetch_degree
        self.line_bytes = line_bytes
        self._prefetched_lines: set[int] = set()
        self._kernel = load_kernel()
        self.backend = "reference" if self._kernel is None else "native"
        cache_cls = (
            SetAssociativeCache
            if self._kernel is None
            else VectorizedSetAssociativeCache
        )
        self.l1 = cache_cls("L1", server.l1_bytes, 8, line_bytes)
        self.l2 = cache_cls("L2", server.l2_bytes, 8, line_bytes)
        l3_bytes = int(server.l3_bytes * l3_share)
        # Keep the L3 well-formed at tiny shares.
        l3_bytes = max(l3_bytes - l3_bytes % (16 * line_bytes), 16 * line_bytes)
        self.l3 = cache_cls("L3", l3_bytes, 16, line_bytes)
        self.stats = HierarchyStats()
        self._batch_counters = np.zeros(7, dtype=np.int64)

    # ------------------------------------------------------------- accesses

    def access(self, access: MemoryAccess) -> None:
        """Simulate one logical access (all lines it spans)."""
        if self._kernel is None:
            for line in self.l1.lines_spanned(access.address, access.size):
                self._access_line(line)
            return
        span = self.l1.lines_spanned(access.address, access.size)
        self.access_lines(
            np.arange(span.start, span.stop, dtype=np.int64)
        )

    def access_lines(self, lines: np.ndarray) -> None:
        """Batch-replay an int64 array of line indices, in trace order.

        The fast path: one kernel call per batch instead of one Python
        call per line. The reference loop takes the same entry point (a
        per-line loop), so callers and the equivalence suite drive both
        loops through it.
        """
        if self._kernel is None:
            for line in np.asarray(lines, dtype=np.int64).reshape(-1).tolist():
                self._access_line(line)
            return
        counters = self._batch_counters
        counters[:] = 0
        self._kernel.replay(
            lines,
            self.l1,
            self.l2,
            self.l3,
            self.inclusive,
            self.prefetch_degree,
            counters,
        )
        self._drain_batch_counters()

    def _drain_batch_counters(self) -> None:
        counters = self._batch_counters
        stats = self.stats
        stats.l1_hits += int(counters[0])
        stats.l2_hits += int(counters[1])
        stats.l3_hits += int(counters[2])
        stats.dram_accesses += int(counters[3])
        stats.l2_back_invalidations += int(counters[4])
        stats.prefetches_issued += int(counters[5])
        stats.prefetch_hits += int(counters[6])

    def access_trace(self, trace) -> HierarchyStats:
        """Simulate an iterable of :class:`MemoryAccess`; returns stats."""
        if self._kernel is None:
            for item in trace:
                self.access(item)
            return self.stats
        addresses: list[int] = []
        sizes: list[int] = []
        for item in trace:
            addresses.append(item.address)
            sizes.append(item.size)
            if len(addresses) >= _TRACE_CHUNK:
                self._flush_trace_chunk(addresses, sizes)
        if addresses:
            self._flush_trace_chunk(addresses, sizes)
        return self.stats

    def _flush_trace_chunk(
        self, addresses: list[int], sizes: list[int]
    ) -> None:
        lines = expand_spans(
            np.array(addresses, dtype=np.int64),
            np.array(sizes, dtype=np.int64),
            self.line_bytes,
        )
        addresses.clear()
        sizes.clear()
        self.access_lines(lines)

    def _access_line(self, line: int) -> None:
        if line in self._prefetched_lines:
            self._prefetched_lines.discard(line)
            self.stats.prefetch_hits += 1
        if self.l1.touch(line):
            self.stats.l1_hits += 1
            return
        if self.l2.touch(line):
            self.stats.l2_hits += 1
            self._fill_l1(line)
            return
        if self.l3.touch(line):
            self.stats.l3_hits += 1
            if not self.inclusive:
                # Non-inclusive victim L3: the line moves up to L2.
                self.l3.invalidate(line)
                self.l3.stats.invalidations -= 1  # not a coherence event
            self._fill_l2(line)
            self._fill_l1(line)
            return
        # DRAM fill.
        self.stats.dram_accesses += 1
        if self.inclusive:
            self._insert_l3_inclusive(line)
        self._fill_l2(line)
        self._fill_l1(line)
        self._issue_prefetches(line)

    def _issue_prefetches(self, miss_line: int) -> None:
        """Next-line stream prefetch into the L2 on a demand miss."""
        for offset in range(1, self.prefetch_degree + 1):
            line = miss_line + offset
            if self.l1.probe(line) or self.l2.probe(line):
                continue
            self.stats.prefetches_issued += 1
            self._prefetched_lines.add(line)
            if self.inclusive:
                self._insert_l3_inclusive(line)
            self._fill_l2(line)

    # ---------------------------------------------------------------- fills

    def _fill_l1(self, line: int) -> None:
        self.l1.insert(line)

    def _fill_l2(self, line: int) -> None:
        victim = self.l2.insert(line)
        if victim is not None and not self.inclusive:
            # Exclusive-style hierarchy: L2 victims are caught by the L3.
            self._insert_l3_victim(victim)

    def _insert_l3_inclusive(self, line: int) -> None:
        victim = self.l3.insert(line)
        if victim is not None:
            # Inclusion forces the victim out of the inner levels too.
            if self.l2.invalidate(victim):
                self.stats.l2_back_invalidations += 1
            self.l1.invalidate(victim)
            # The victim is resident nowhere now, so a pending prefetch
            # flag dies with it — without this, the bookkeeping set grows
            # unboundedly on pollution-heavy traces and a long-evicted
            # line still counts as a prefetch hit on its eventual demand.
            self._prefetched_lines.discard(victim)

    def _insert_l3_victim(self, line: int) -> None:
        victim = self.l3.insert(line)
        if victim is not None and not self.l2.probe(victim):
            # Same leak fix as the inclusive path. A line prefetched while
            # already L3-resident lives in both L2 and L3, so only drop
            # the pending flag when its last copy is gone.
            self._prefetched_lines.discard(victim)

    # ------------------------------------------------------------ utilities

    def external_llc_pressure(self, evict_lines: int, seed_stride: int = 9973) -> None:
        """Model co-runner LLC churn: insert foreign lines into the L3.

        Each foreign line occupies LLC capacity; in an inclusive hierarchy
        the resulting evictions back-invalidate this context's L2/L1 lines —
        the mechanism behind Broadwell's co-location latency degradation.
        Foreign lines use negative line indices so they never alias the
        workload's own lines.
        """
        if self._kernel is None:
            for i in range(evict_lines):
                foreign = -(1 + i * seed_stride)
                if self.inclusive:
                    self._insert_l3_inclusive(foreign)
                else:
                    self._insert_l3_victim(foreign)
            return
        counters = self._batch_counters
        counters[:] = 0
        self._kernel.pressure(
            evict_lines,
            seed_stride,
            self.l1,
            self.l2,
            self.l3,
            self.inclusive,
            self.prefetch_degree,
            counters,
        )
        self._drain_batch_counters()

    def reset_stats(self) -> HierarchyStats:
        """Return accumulated stats and start fresh (contents kept)."""
        finished = self.stats
        self.stats = HierarchyStats()
        for level in (self.l1, self.l2, self.l3):
            level.reset_stats()
        return finished
