"""RoutingDraws against live numpy: value for value, state for state.

:class:`repro.serving.router.RoutingDraws` re-derives numpy's bounded
integer draws in Python: Lemire's method on 32-bit halves of PCG64 words,
and for ``choice`` Floyd's two draws plus a one-step shuffle. This suite
replays random programs on two generators with one seed, numpy calls on
one and the stream on the other, with lognormal and exponential draws
interleaved on both. It asserts equal values and, after ``close()``,
equal ``bit_generator.state`` dicts. A numpy release that changes
``integers`` or ``choice`` fails here instead of silently shifting the
routing goldens.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.router import POLICIES, RoutingDraws, pick_machine

#: 2**31 + 1 rejects about half of Lemire's first draws; 2**32 is the
#: largest size numpy still serves from 32-bit draws.
SIZES = (1, 2, 3, 8, 1048, 2**31 + 1, 2**32)

sizes = st.one_of(
    st.sampled_from(SIZES), st.integers(1, 64), st.integers(1, 2**32)
)
steps = st.one_of(
    st.tuples(st.sampled_from(("below", "pair")), sizes),
    st.tuples(
        st.sampled_from(("lognormal", "exponential", "reopen")), st.just(0)
    ),
)


def _generators(seed, buffered):
    """Two generators in one state; ``buffered`` 32-bit draws taken first.

    One draw leaves numpy's upper half-word buffered; two consume it and
    leave the stale value in the state dict.
    """
    pair = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in pair:
        for _ in range(buffered):
            rng.integers(1000)
    return pair


def _numpy_pair(rng, n):
    return tuple(int(x) for x in rng.choice(n, 2, replace=False))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    buffered=st.integers(0, 2),
    program=st.lists(steps, max_size=60),
)
def test_stream_matches_numpy(seed, buffered, program):
    expected, actual = _generators(seed, buffered)
    draws = RoutingDraws(actual)
    for name, n in program:
        if name == "below":
            assert draws.below(n) == int(expected.integers(n))
        elif name == "pair" and n == 1:
            with pytest.raises(ValueError):
                _numpy_pair(expected, n)
            with pytest.raises(ValueError):
                draws.pair(n)
        elif name == "pair":
            assert draws.pair(n) == _numpy_pair(expected, n)
        elif name == "reopen":
            # A generator reused across runs opens one stream per run.
            draws.close()
            draws = RoutingDraws(actual)
        else:
            draw = getattr(expected, name)()
            assert getattr(actual, name)() == draw
    draws.close()
    assert actual.bit_generator.state == expected.bit_generator.state


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("buffered", [0, 1, 2])
def test_every_listed_size_matches_numpy(n, buffered):
    for seed in range(4):
        expected, actual = _generators(seed, buffered)
        draws = RoutingDraws(actual)
        for _ in range(50):
            assert draws.below(n) == int(expected.integers(n))
            if n >= 2:
                assert draws.pair(n) == _numpy_pair(expected, n)
            assert actual.lognormal(-0.005, 0.1) == expected.lognormal(
                -0.005, 0.1
            )
        draws.close()
        assert actual.bit_generator.state == expected.bit_generator.state


def test_numpy_integer_sizes_are_accepted():
    expected, actual = _generators(3, 0)
    draws = RoutingDraws(actual)
    assert draws.below(np.int64(1048)) == int(expected.integers(1048))
    assert draws.pair(np.int64(1048)) == _numpy_pair(expected, 1048)


def test_close_without_draws_keeps_state():
    for buffered in (0, 1, 2):
        expected, actual = _generators(5, buffered)
        RoutingDraws(actual).close()
        assert actual.bit_generator.state == expected.bit_generator.state


@pytest.mark.parametrize(
    "bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64]
)
def test_rejects_other_bit_generators(bit_generator):
    with pytest.raises(ValueError, match="PCG64"):
        RoutingDraws(np.random.Generator(bit_generator(0)))


@pytest.mark.parametrize("n", [0, -1, 2**32 + 1])
def test_below_rejects_sizes_outside_32_bits(n):
    with pytest.raises(ValueError):
        RoutingDraws(np.random.default_rng(0)).below(n)


@pytest.mark.parametrize("n", [1, 0, 2**32 + 1])
def test_pair_rejects_sizes_outside_32_bits(n):
    with pytest.raises(ValueError):
        RoutingDraws(np.random.default_rng(0)).pair(n)


# ------------------------------------------------ pick_machine over a stream


def _numpy_pick(policy, rng, queue_depth, rr_state, candidates):
    """``pick_machine`` as written against numpy calls (the oracle)."""
    pool = list(range(len(queue_depth))) if candidates is None else candidates
    if policy == "round_robin":
        machine = pool[rr_state[0] % len(pool)]
        rr_state[0] += 1
        return machine
    if policy == "random":
        return pool[int(rng.integers(len(pool)))]
    if len(pool) == 1:
        return pool[0]
    a, b = rng.choice(len(pool), size=2, replace=False)
    a, b = pool[int(a)], pool[int(b)]
    return a if queue_depth[a] <= queue_depth[b] else b


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    policy=st.sampled_from(POLICIES),
    depths=st.lists(st.integers(0, 5), min_size=1, max_size=40),
    masks=st.lists(
        st.none() | st.lists(st.booleans(), min_size=40, max_size=40),
        min_size=1,
        max_size=30,
    ),
)
def test_pick_machine_matches_numpy_formulation(seed, policy, depths, masks):
    expected, actual = _generators(seed, 0)
    draws = RoutingDraws(actual)
    rr_expected, rr_actual = [0], [0]
    for mask in masks:
        candidates = (
            None
            if mask is None
            else [m for m in range(len(depths)) if mask[m]]
        )
        if candidates == []:
            with pytest.raises(ValueError, match="no candidate"):
                pick_machine(policy, draws, depths, rr_actual, candidates)
            continue
        assert pick_machine(
            policy, draws, depths, rr_actual, candidates
        ) == _numpy_pick(policy, expected, depths, rr_expected, candidates)
        assert actual.lognormal() == expected.lognormal()
    draws.close()
    assert actual.bit_generator.state == expected.bit_generator.state
    assert rr_actual == rr_expected
