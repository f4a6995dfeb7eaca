"""The single-machine DES kernel driver: arrivals, events, records.

The per-event python loop in :class:`~repro.serving.simulator.ServingSimulator`
(``_run_reference``) is the *executable spec*: every behaviour question is
settled by reading it. :func:`run_simulator_native` reproduces it **bit
for bit** (records, summaries, overload stats, RNG stream position) one
to two orders of magnitude faster:

* arrivals are generated in numpy chunks whose values *and* final RNG state
  are provably identical to the scalar draw loops
  (:func:`poisson_arrival_times`);
* static events (arrivals, fault transitions) are pre-sorted once with a
  stable sort that matches the reference heap's ``(t, seq)`` total order;
* the event core runs in a self-compiled C kernel
  (:mod:`repro.serving._des_native`, built and loaded through
  :func:`repro.hw._native.load_native`), which draws its service noise
  from the simulator's own generator through numpy's C API and calls back
  into python only to flush records.

Both loops return completed inferences as a struct-of-arrays
:class:`RecordBatch`. ``ServingSimulator.run`` takes the kernel when it
loads and no tracer or profiler observes the run, and the reference loop
otherwise, before any RNG draw, so the results are the same either way.

The fleet routers (:class:`~repro.serving.faults.ResilientRouter`,
:class:`~repro.serving.multimodel.MultiModelRouter`) each have one event
loop of their own and reuse :func:`poisson_arrival_times` from here;
``ResilientRouter``'s runs in the same C source as the simulator kernel.

Equivalence is enforced by ``tests/test_des_equivalence.py`` (hypothesis
property suite over random policy x fault x load compositions) and
``tests/test_des_edge_cases.py``.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from ._des_native import simulate_native

if TYPE_CHECKING:
    from .simulator import InferenceRecord, ServingSimulator, SimulationResult

__all__ = [
    "RecordBatch",
    "poisson_arrival_times",
    "run_simulator_native",
]


# ------------------------------------------------------------- RNG parity


def poisson_arrival_times(
    rng: np.random.Generator,
    rate_qps: float,
    duration_s: float,
    chunk: int = 8192,
) -> np.ndarray:
    """Arrival times of a Poisson process, bit-identical to the scalar loop.

    Reproduces exactly::

        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / rate_qps))
            if t >= duration_s:
                break
            times.append(t)

    both in values (``cumsum`` over a concatenation that includes the
    running offset reproduces scalar float accumulation bit for bit) and
    in the generator's final state (the last chunk is rolled back and
    re-drawn at the exact scalar count, including the draw that crossed
    the horizon).
    """
    scale = 1.0 / rate_qps
    out = []
    t = 0.0
    while True:
        state = rng.bit_generator.state
        gaps = rng.exponential(scale, size=chunk)
        times = np.cumsum(np.concatenate(([t], gaps)))[1:]
        crossed = int(np.searchsorted(times, duration_s, side="left"))
        if crossed < chunk:
            rng.bit_generator.state = state
            rng.exponential(scale, size=crossed + 1)
            out.append(times[:crossed])
            break
        out.append(times)
        t = float(times[-1])
    return np.concatenate(out) if len(out) > 1 else out[0]


# ------------------------------------------------------------ SoA records


class RecordBatch(Sequence):
    """Struct-of-arrays store of completed inferences.

    A sequence of :class:`~repro.serving.simulator.InferenceRecord` —
    indexing materialises a real record — with array accessors
    (:meth:`latencies_s`, :meth:`service_times_s`,
    :meth:`active_job_counts`) for
    :class:`~repro.serving.simulator.SimulationResult`. Both simulator
    loops return one, so two runs compare with ``==``: equal when every
    column holds the same values in the same order.
    """

    __slots__ = (
        "instance_ids",
        "arrivals_s",
        "starts_s",
        "ends_s",
        "active_jobs",
        "services_s",
    )

    def __init__(
        self,
        instance_ids: np.ndarray,
        arrivals_s: np.ndarray,
        starts_s: np.ndarray,
        ends_s: np.ndarray,
        active_jobs: np.ndarray,
        services_s: np.ndarray,
    ) -> None:
        self.instance_ids = instance_ids.astype(np.int64)
        self.arrivals_s = np.ascontiguousarray(arrivals_s, dtype=np.float64)
        self.starts_s = np.ascontiguousarray(starts_s, dtype=np.float64)
        self.ends_s = np.ascontiguousarray(ends_s, dtype=np.float64)
        self.active_jobs = active_jobs.astype(np.int64)
        self.services_s = np.ascontiguousarray(services_s, dtype=np.float64)

    @classmethod
    def from_records(cls, records: "list[InferenceRecord]") -> "RecordBatch":
        """The columns of a record list, in list order."""
        return cls(
            np.array([r.instance_id for r in records], dtype=np.int64),
            np.array([r.arrival_s for r in records], dtype=np.float64),
            np.array([r.start_s for r in records], dtype=np.float64),
            np.array([r.end_s for r in records], dtype=np.float64),
            np.array([r.active_jobs for r in records], dtype=np.int64),
            np.array([r.service_s for r in records], dtype=np.float64),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecordBatch):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in self.__slots__
        )

    def __len__(self) -> int:
        return int(self.arrivals_s.size)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        from .simulator import InferenceRecord

        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("record index out of range")
        return InferenceRecord(
            instance_id=int(self.instance_ids[index]),
            arrival_s=float(self.arrivals_s[index]),
            start_s=float(self.starts_s[index]),
            end_s=float(self.ends_s[index]),
            active_jobs=int(self.active_jobs[index]),
            service_s=float(self.services_s[index]),
        )

    def latencies_s(self) -> np.ndarray:
        """End-to-end latency per record (bitwise ``end - arrival``)."""
        return self.ends_s - self.arrivals_s

    def service_times_s(self) -> np.ndarray:
        """Service time per record."""
        return self.services_s.copy()

    def active_job_counts(self) -> np.ndarray:
        """Dispatch-time active-job count per record."""
        return self.active_jobs.copy()


# ------------------------------------------------- single-machine simulator


def run_simulator_native(
    sim: "ServingSimulator", duration_s: float
) -> "SimulationResult":
    """``ServingSimulator.run`` in the C kernel.

    Bit-identical to ``ServingSimulator._run_reference``: same records in
    the same order, same counters, same RNG stream position afterwards,
    same metrics. The caller checks that the C kernel is loaded and that
    no tracer or profiler observes the run before calling.
    """
    from .simulator import SimulationResult

    rng = sim._rng
    faults = sim.faults
    fault_active = faults is not None and not faults.is_zero
    num_instances = sim.num_instances

    # Arrival pre-generation, consuming the RNG exactly as the scalar
    # reference loop does (instance-major order).
    if sim.per_instance_qps is None:
        first_arrivals = rng.uniform(0, 1e-4, size=num_instances)
        per_instance = [first_arrivals[i : i + 1] for i in range(num_instances)]
    else:
        per_instance = [
            poisson_arrival_times(rng, sim.per_instance_qps, duration_s)
            for _ in range(num_instances)
        ]
    counts = [len(a) for a in per_instance]
    offered = int(sum(counts))
    st_times = np.concatenate(per_instance)
    st_kinds = np.zeros(st_times.size, dtype=np.int64)
    st_insts = np.repeat(np.arange(num_instances, dtype=np.int64), counts)
    downtime_s = 0.0
    if fault_active:
        assert faults is not None
        transitions = faults.transition_events(num_instances)
        if transitions:
            st_times = np.concatenate(
                [st_times, np.array([e[0] for e in transitions], dtype=np.float64)]
            )
            st_kinds = np.concatenate(
                [
                    st_kinds,
                    np.array(
                        [2 if e[2] else 3 for e in transitions], dtype=np.int64
                    ),
                ]
            )
            st_insts = np.concatenate(
                [st_insts, np.array([e[1] for e in transitions], dtype=np.int64)]
            )
        downtime_s = sum(
            faults.downtime_s(i, duration_s) for i in range(num_instances)
        )
    # One stable sort by time reproduces the reference heap's (t, seq)
    # total order: arrivals carry lower seqs than fault transitions, and
    # both were appended above in seq order.
    order = np.argsort(st_times, kind="stable")
    records, reissued, killed, shed, max_queue_depth, leftover = (
        simulate_native(
            sim, duration_s, st_times[order], st_kinds[order], st_insts[order]
        )
    )
    if sim.metrics is not None:
        sim.metrics.gauge("serving.queue.depth").set(float(leftover))
        sim.metrics.gauge("serving.queue.max_depth").set(float(max_queue_depth))
        sim.metrics.counter("serving.overload.shed").inc(shed)
    return SimulationResult(
        server_name=sim.server.name,
        model_name=sim.config.name,
        batch_size=sim.batch_size,
        num_instances=num_instances,
        duration_s=duration_s,
        records=records,
        offered=offered + reissued,
        killed=killed,
        downtime_s=downtime_s,
        shed=shed,
        max_queue_depth=max_queue_depth,
    )
