"""Temporal-reuse equivalence: the C kernel vs the reference loop.

:meth:`TemporalReuseGenerator.ids` runs its C kernel when it loads and
its reference loop otherwise (inside ``reference_loops()``). The
kernel's contract is bit-identity with that loop on every numpy bit
generator and bound: the same IDs, the same carried history and the
same generator state afterwards, so the next draw agrees too. Bounds at
and around 2**32 switch numpy between its 32-bit draws (which use
PCG64's buffered half-word) and its 64-bit ones. Without the kernel the
comparison cases skip; ``test_reuse_kernel_loads_where_it_can`` keeps
that from going unnoticed on a host that could build it.
"""

import contextlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.data import TemporalReuseGenerator
from repro.data.sparse import _reuse_kernel
from repro.native import NPYRANDOM_ARCHIVE, _compiler
from tests.reference_loops import reference_loops

needs_kernel = pytest.mark.skipif(
    _reuse_kernel() is None, reason="temporal-reuse kernel unavailable"
)

BIT_GENERATORS = (
    np.random.PCG64,
    np.random.PCG64DXSM,
    np.random.MT19937,
    np.random.Philox,
    np.random.SFC64,
)
#: Table sizes at the edges of numpy's bounded draws: no draw at all
#: (one row), the 32-bit draws, and the 64-bit ones past 2**32.
EDGE_ROWS = (1, 2, 2**32 - 1, 2**32, 2**32 + 5, 2**40)

EQUIV = settings(
    max_examples=int(os.environ.get("REUSE_EXAMPLES", "100")),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _state(rng: np.random.Generator) -> str:
    """The bit generator's whole state, comparable across generators."""
    return json.dumps(
        rng.bit_generator.state, sort_keys=True, default=lambda a: a.tolist()
    )


def assert_loops_agree(bit_generator, seed, rows, reuse, history, counts):
    """Run successive ``ids`` calls on both loops and compare each one."""
    kernel_rng = np.random.Generator(bit_generator(seed))
    reference_rng = np.random.Generator(bit_generator(seed))
    kernel = TemporalReuseGenerator(rows, 1, reuse, history=history)
    reference = TemporalReuseGenerator(rows, 1, reuse, history=history)
    for count in counts:
        ids = kernel.ids(count, kernel_rng)
        with reference_loops():
            expected = reference.ids(count, reference_rng)
        assert kernel.last_backend == "native"
        assert reference.last_backend == "reference"
        assert ids.dtype == expected.dtype == np.int64
        np.testing.assert_array_equal(ids, expected)
        assert kernel._recent.dtype == reference._recent.dtype
        np.testing.assert_array_equal(kernel._recent, reference._recent)
        assert _state(kernel_rng) == _state(reference_rng)
        # The caller owns the returned IDs: writing to them must not
        # reach the history the next call draws from.
        ids[:] = -1
        expected[:] = -1
    assert kernel_rng.random() == reference_rng.random()


@needs_kernel
class TestKernelMatchesReferenceLoop:
    @EQUIV
    @given(
        bit_generator=st.sampled_from(BIT_GENERATORS),
        seed=st.integers(0, 2**32 - 1),
        rows=st.one_of(st.sampled_from(EDGE_ROWS), st.integers(1, 2**63)),
        reuse=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
        history=st.one_of(st.just(1), st.integers(1, 64), st.just(4096)),
        counts=st.lists(
            st.one_of(st.just(0), st.integers(0, 300)), min_size=1, max_size=4
        ),
    )
    def test_random_cases_bit_identical(
        self, bit_generator, seed, rows, reuse, history, counts
    ):
        assert_loops_agree(bit_generator, seed, rows, reuse, history, counts)

    @pytest.mark.parametrize("rows", EDGE_ROWS + (2**63,))
    @pytest.mark.parametrize(
        "bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__
    )
    def test_edge_bounds_every_bit_generator(self, bit_generator, rows):
        assert_loops_agree(bit_generator, 7, rows, 0.5, 5, (0, 7, 300, 1))

    @pytest.mark.parametrize("history", [2**63, 2**64 + 3])
    def test_history_past_int64(self, history):
        # ctypes truncates an int64 argument without a word, so a history
        # no call can fill must still act as an unbounded one.
        assert_loops_agree(np.random.PCG64, 11, 1000, 0.7, history, (50, 0, 80))

    def test_history_wraps_over_many_calls(self):
        # 10,000 IDs through the default 4,096-entry history, in uneven
        # calls, the way a Figure 14 trace is drawn.
        assert_loops_agree(
            np.random.PCG64, 2020, 1_000_000, 0.8, 4096, (3000, 1, 4095, 2904)
        )


def test_reuse_kernel_loads_where_it_can():
    # With a compiler and numpy's libnpyrandom.a present, a kernel that
    # fails to build or link would silently run the reference loop, ~80x
    # slower, and drop every comparison above.
    if os.environ.get("REPRO_DISABLE_NATIVE") == "1":
        pytest.skip("native kernels disabled")
    if _compiler() is None or not NPYRANDOM_ARCHIVE.is_file():
        pytest.skip("no C compiler or no libnpyrandom.a")
    generator = TemporalReuseGenerator(100, 1, reuse_probability=0.5)
    generator.ids(10, np.random.default_rng(0))
    assert generator.last_backend == "native"


def test_kernel_loads_on_first_ids_call_not_at_import():
    code = (
        "import numpy as np\n"
        "from repro.data import TemporalReuseGenerator\n"
        "from repro import native\n"
        "assert 'repro_temporal_reuse' not in native._CACHED\n"
        "TemporalReuseGenerator(10, 1, 0.5).ids(3, np.random.default_rng(0))\n"
        "assert 'repro_temporal_reuse' in native._CACHED\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_last_backend_before_and_without_the_kernel():
    generator = TemporalReuseGenerator(100, 1, reuse_probability=0.5)
    assert generator.last_backend is None
    with reference_loops():
        generator.ids(10, np.random.default_rng(0))
    assert generator.last_backend == "reference"
    with pytest.raises(AttributeError):
        generator.last_backend = "native"


@pytest.mark.parametrize("loop", ["default", "reference"])
def test_negative_count_rejected_before_any_draw(loop):
    # With a carried history, history + count can be >= 0 for a negative
    # count, so the buffer allocation alone would not catch it.
    rng = np.random.default_rng(3)
    generator = TemporalReuseGenerator(1000, 1, reuse_probability=0.5)
    generator.ids(50, rng)
    before = _state(rng), generator._recent.copy()
    with reference_loops() if loop == "reference" else contextlib.nullcontext():
        with pytest.raises(ValueError, match="count"):
            generator.ids(-3, rng)
        with pytest.raises(ValueError, match="count"):
            generator.ids(2.5, rng)
    assert _state(rng) == before[0]
    np.testing.assert_array_equal(generator._recent, before[1])
