"""Request routing across replicated inference servers.

Data-center front-ends spread queries across many model replicas; the
routing policy shapes tail latency long before micro-architecture does.
:class:`repro.serving.faults.ResilientRouter` simulates the fleet view
(M machines serving one model, Poisson query arrivals, service times
from the timing model plus lognormal noise) under one of three classic
policies, its ``routing`` argument —

* round-robin — cyclic, state-free;
* random — uniform choice;
* JSQ(d) — "power of d choices": sample d machines, pick the shortest
  queue; ``d=2`` captures most of join-shortest-queue's benefit at a
  fraction of its probing cost.

This module holds what the router's Python loop, its C kernel
(:mod:`repro.serving._des_native`) and its test-only spec share: the
policy names, the service-noise sigma, bit-exact scalar routing draws
and one routing decision (:func:`pick_machine`).
"""

from __future__ import annotations

import operator
from collections.abc import Sequence

import numpy as np

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

    Called once per routed attempt by
    :class:`repro.serving.faults.ResilientRouter`'s Python loop and its
    test-only spec, which restrict ``candidates`` to replicas their health
    checks still admit.

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
