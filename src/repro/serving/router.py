"""Request routing across replicated inference servers (queueing DES).

Data-center front-ends spread queries across many model replicas; the
routing policy shapes tail latency long before micro-architecture does.
This simulator complements :mod:`repro.serving.simulator` (contention on
one machine) with the fleet view: M machines serving one model, Poisson
query arrivals, and three classic policies —

* round-robin — cyclic, state-free;
* random — uniform choice;
* JSQ(d) — "power of d choices": sample d machines, pick the shortest
  queue; ``d=2`` captures most of join-shortest-queue's benefit at a
  fraction of its probing cost.

Service times come from the timing model plus lognormal noise, so the
policies are compared under realistic variability.
"""

from __future__ import annotations

import heapq
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..analysis.distributions import LatencySummary, summarize
from ..config.model_config import ModelConfig
from ..data.sparse import _integer
from ..hw.server import ServerSpec
from ..hw.timing import TimingModel
from .loadgen import _require_seed, poisson_arrival_times

POLICIES = ("round_robin", "random", "jsq2")

#: Multiplicative service-time noise (lognormal sigma).
SERVICE_NOISE_SIGMA = 0.10


_WORD32 = 1 << 32
_MASK32 = _WORD32 - 1


class RoutingDraws:
    """Scalar routing draws, bit-exact with numpy, without numpy calls.

    Reproduces ``int(rng.integers(n))`` (:meth:`below`) and
    ``tuple(rng.choice(n, 2, replace=False))`` (:meth:`pair`) value for
    value, and leaves the generator in the same final state. numpy builds
    both from 32-bit halves of 64-bit PCG64 words with Lemire's bounded
    method: ``choice`` runs Floyd's two draws and then a one-step shuffle,
    itself a bounded draw over 2. Each 32-bit draw takes the upper half
    PCG64 buffered from the previous word (``has_uint32``/``uinteger``)
    or, if none is buffered, the lower half of a fresh word.

    The stream reads that buffer once, pulls one word per call through
    ``bit_generator.random_raw()`` (which advances the same state as the
    interleaved ``rng.lognormal``/``rng.exponential`` draws and leaves the
    buffer alone), keeps the half-word in Python and writes it back on
    :meth:`close`. While a stream is open, nothing else may draw 32-bit
    values from its generator or set its state.

    Args:
        rng: a generator over a :class:`numpy.random.PCG64` bit generator.

    Raises:
        ValueError: for any other bit generator.
    """

    __slots__ = ("_bit_generator", "_raw", "_has_half", "_half")

    def __init__(self, rng: np.random.Generator) -> None:
        bit_generator = rng.bit_generator
        if not isinstance(bit_generator, np.random.PCG64):
            raise ValueError(
                "RoutingDraws reproduces PCG64 only, got "
                f"{type(bit_generator).__name__}"
            )
        state = bit_generator.state
        self._bit_generator = bit_generator
        self._raw = bit_generator.random_raw
        self._has_half = bool(state["has_uint32"])
        # numpy keeps a consumed half-word in the state; so does the stream.
        self._half = state["uinteger"]

    def below(self, n: int) -> int:
        """One index uniform on ``[0, n)``, as ``int(rng.integers(n))``."""
        n = operator.index(n)
        if not 1 <= n <= _WORD32:
            raise ValueError(f"n must be in [1, 2**32], got {n}")
        return self._bounded(n)

    def pair(self, n: int) -> tuple[int, int]:
        """Two distinct indices on ``[0, n)``, as numpy's ``choice``.

        Equal to ``tuple(rng.choice(n, 2, replace=False))``.
        """
        n = operator.index(n)
        if not 2 <= n <= _WORD32:
            raise ValueError(f"n must be in [2, 2**32], got {n}")
        # Floyd: the first index is uniform on [0, n-2], the second on
        # [0, n-1] and replaced by n-1 when it repeats the first.
        a = self._bounded(n - 1)
        b = self._bounded(n)
        if b == a:
            b = n - 1
        # The shuffle's bounded draw over 2 is the top bit of one 32-bit
        # draw; 0 swaps the pair.
        if self._next32() >> 31:
            return a, b
        return b, a

    def close(self) -> None:
        """Write the buffered half-word back into the generator."""
        state = self._bit_generator.state
        state["has_uint32"] = int(self._has_half)
        state["uinteger"] = self._half
        self._bit_generator.state = state

    def _next32(self) -> int:
        if self._has_half:
            self._has_half = False
            return self._half
        word = self._raw()
        self._has_half = True
        self._half = word >> 32
        return word & _MASK32

    def _bounded(self, n: int) -> int:
        """Lemire's method on ``[0, n)`` for ``1 <= n <= 2**32``."""
        if n == 1:
            return 0
        if n == _WORD32:
            return self._next32()
        m = self._next32() * n
        if m & _MASK32 < n:
            threshold = _WORD32 % n
            while m & _MASK32 < threshold:
                m = self._next32() * n
        return m >> 32


def pick_machine(
    policy: str,
    draws: RoutingDraws,
    queue_depth: list[int],
    rr_state: list[int],
    candidates: Sequence[int] | None = None,
) -> int:
    """Select a target machine under one of :data:`POLICIES`.

    Shared by :class:`RequestRouter` (happy path) and
    :class:`repro.serving.faults.ResilientRouter` (which restricts
    ``candidates`` to replicas its health checks still admit).

    Args:
        policy: one of :data:`POLICIES`.
        draws: the run's :class:`RoutingDraws` over its seeded generator.
        queue_depth: current depth per machine (indexed by machine id).
        rr_state: single-element mutable round-robin cursor.
        candidates: admissible machine ids; ``None`` means all.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; valid: {POLICIES}")
    n = len(queue_depth) if candidates is None else len(candidates)
    if not n:
        raise ValueError("no candidate machines to route to")
    if policy == "round_robin":
        i = rr_state[0] % n
        rr_state[0] += 1
    elif policy == "random":
        i = draws.below(n)
    elif n == 1:
        i = 0
    else:
        # jsq2: sample two distinct candidates, pick the shorter queue.
        a, b = draws.pair(n)
        if candidates is not None:
            a, b = candidates[a], candidates[b]
        return a if queue_depth[a] <= queue_depth[b] else b
    return i if candidates is None else candidates[i]


@dataclass(frozen=True)
class RoutingResult:
    """Outcome of one routing simulation.

    ``max_queue_depth`` is the deepest per-machine backlog observed.
    """

    policy: str
    num_machines: int
    offered_qps: float
    latencies_s: np.ndarray
    duration_s: float
    max_queue_depth: int = 0

    def summary(self) -> LatencySummary:
        """Per-query latency percentiles."""
        return summarize(self.latencies_s)

    def throughput_qps(self) -> float:
        """Completed queries per second."""
        return len(self.latencies_s) / self.duration_s


class RequestRouter:
    """Simulates one routing policy over replicated servers.

    Args:
        server: machine generation (all replicas identical).
        config: the model each replica serves.
        batch_size: items per query (each query is one inference).
        num_machines: replica count.
        policy: one of :data:`POLICIES`.
        seed: RNG seed.
    """

    def __init__(
        self,
        server: ServerSpec,
        config: ModelConfig,
        batch_size: int,
        num_machines: int,
        policy: str = "jsq2",
        seed: int = 0,
    ) -> None:
        if _integer("num_machines", num_machines) < 1:
            raise ValueError("need at least one machine")
        if _integer("batch_size", batch_size) < 1:
            raise ValueError("batch_size must be positive")
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; valid: {POLICIES}")
        _require_seed("RequestRouter", seed)
        self.server = server
        self.config = config
        self.batch_size = batch_size
        self.num_machines = num_machines
        self.policy = policy
        self._rng = np.random.default_rng(seed)
        self._base_service = TimingModel(server).model_seconds(config, batch_size)

    def mean_service_s(self) -> float:
        """Mean per-query service time."""
        return self._base_service

    def max_stable_qps(self) -> float:
        """Arrival rate at 100% utilization (stability boundary)."""
        return self.num_machines / self._base_service

    def run(self, offered_qps: float, duration_s: float = 1.0) -> RoutingResult:
        """Simulate ``duration_s`` of Poisson arrivals at ``offered_qps``."""
        if not (0 < offered_qps < math.inf and 0 < duration_s < math.inf):
            raise ValueError("rate and duration must be positive")
        rng = self._rng
        arrivals = poisson_arrival_times(rng, offered_qps, duration_s).tolist()

        queue_depth = [0] * self.num_machines
        free_at = [0.0] * self.num_machines
        rr_state = [0]
        draws = RoutingDraws(rng)
        # Event queue of completions: (finish_time, seq, machine).
        completions: list[tuple[float, int, int]] = []
        latencies: list[float] = []
        seq = 0
        max_queue_depth = 0
        for arrival in arrivals:
            # Drain completions before this arrival to keep queues current.
            while completions and completions[0][0] <= arrival:
                _, _, machine = heapq.heappop(completions)
                queue_depth[machine] -= 1
            machine = pick_machine(self.policy, draws, queue_depth, rr_state)
            sigma = SERVICE_NOISE_SIGMA
            service = self._base_service * float(
                rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma)
            )
            start = max(arrival, free_at[machine])
            finish = start + service
            free_at[machine] = finish
            queue_depth[machine] += 1
            if queue_depth[machine] > max_queue_depth:
                max_queue_depth = queue_depth[machine]
            heapq.heappush(completions, (finish, seq, machine))
            seq += 1
            latencies.append(finish - arrival)
        draws.close()

        return RoutingResult(
            policy=self.policy,
            num_machines=self.num_machines,
            offered_qps=offered_qps,
            latencies_s=np.asarray(latencies),
            duration_s=duration_s,
            max_queue_depth=max_queue_depth,
        )


def compare_policies(
    server: ServerSpec,
    config: ModelConfig,
    batch_size: int,
    num_machines: int,
    utilization: float = 0.8,
    duration_s: float = 2.0,
    seed: int = 0,
) -> dict[str, RoutingResult]:
    """Run every policy at the same offered load (fraction of capacity)."""
    if not 0 < utilization < 1:
        raise ValueError("utilization must be in (0, 1)")
    probe = RequestRouter(server, config, batch_size, num_machines, seed=seed)
    qps = utilization * probe.max_stable_qps()
    out = {}
    for policy in POLICIES:
        router = RequestRouter(
            server, config, batch_size, num_machines, policy=policy, seed=seed
        )
        out[policy] = router.run(qps, duration_s)
    return out
