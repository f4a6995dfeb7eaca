"""Cache-replay equivalence: the native kernel vs the reference loop.

The kernel's whole contract is **bit-identical stats** to the reference
OrderedDict implementation — both inclusion policies, multi-line
accesses, prefetching (degrees 0-4) and ``external_llc_pressure``
interleavings. These tests drive random programs through the reference
loop (a hierarchy built inside ``reference_loops()``) and the native
kernel and compare every counter after every step (record-for-record,
not just final totals), plus regression-test the ``_prefetched_lines``
leak the kernel's per-copy flags were designed against. Without a
compiler the kernel cases skip, and every hierarchy runs the reference
loop. The build cache's key is tested here too.
"""

import ctypes
import dataclasses
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.operators.base import MemoryAccess
from repro.core.operators.sls import EmbeddingTable, SparseLengthsSum
from repro.hw._native import native_available
from repro.hw.hierarchy import CacheHierarchy
from repro.hw.server import BROADWELL, SKYLAKE
from repro.hw.vectorized import VectorizedSetAssociativeCache, expand_spans
from tests.native_build_worker import PROBE_SOURCE, build_probe
from tests.reference_loops import reference_loops

# Tiny hierarchies make evictions, back-invalidations and prefetch
# pollution dense enough for short hypothesis programs to reach them.
TINY_BROADWELL = dataclasses.replace(
    BROADWELL, l1_bytes=1024, l2_bytes=4096, l3_bytes=16384
)
TINY_SKYLAKE = dataclasses.replace(
    SKYLAKE, l1_bytes=1024, l2_bytes=4096, l3_bytes=16384
)

needs_native = pytest.mark.skipif(
    not native_available(), reason="native kernel unavailable"
)
BACKENDS = [pytest.param("native", marks=needs_native)]


def reference_hierarchy(*args, **kwargs) -> CacheHierarchy:
    """A hierarchy held to its reference loop."""
    with reference_loops():
        h = CacheHierarchy(*args, **kwargs)
    assert h.backend == "reference"
    return h


def both_loops(*args, **kwargs) -> list[CacheHierarchy]:
    """The same hierarchy on the reference loop and, when it loads, the kernel."""
    hierarchies = [reference_hierarchy(*args, **kwargs)]
    if native_available():
        hierarchies.append(CacheHierarchy(*args, **kwargs))
        assert hierarchies[-1].backend == "native"
    return hierarchies


def snapshot(h: CacheHierarchy) -> dict:
    """Every counter the two loops must agree on."""
    state = dataclasses.asdict(h.stats)
    for name, level in (("l1", h.l1), ("l2", h.l2), ("l3", h.l3)):
        stats = level.stats
        state[name] = (stats.hits, stats.misses, stats.evictions, stats.invalidations)
        state[name + "_resident"] = level.resident_lines()
    return state


def run_program(h: CacheHierarchy, program) -> list[dict]:
    """Apply a step list to a hierarchy, snapshotting after every step."""
    states = []
    for op, payload in program:
        if op == "lines":
            h.access_lines(np.asarray(payload, dtype=np.int64))
        elif op == "access":
            address, size = payload
            h.access(MemoryAccess(address=address, size=size))
        else:
            h.external_llc_pressure(payload)
        states.append(snapshot(h))
    return states


# One step: a batch of line indices, a (possibly multi-line) MemoryAccess,
# or a pressure burst. Mixed id ranges give both uniform and skewed reuse.
_STEP = st.one_of(
    st.tuples(
        st.just("lines"),
        st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=60),
    ),
    st.tuples(
        st.just("lines"),
        st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=60),
    ),
    st.tuples(
        st.just("access"),
        st.tuples(
            st.integers(min_value=0, max_value=3000 * 64),
            st.integers(min_value=1, max_value=6 * 64),
        ),
    ),
    st.tuples(st.just("pressure"), st.integers(min_value=1, max_value=120)),
)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("server", [TINY_BROADWELL, TINY_SKYLAKE])
@settings(max_examples=40, deadline=None)
@given(
    program=st.lists(_STEP, min_size=1, max_size=12),
    degree=st.integers(min_value=0, max_value=4),
)
def test_property_engines_bit_identical(server, backend, program, degree):
    reference = reference_hierarchy(
        server, l3_share=0.5, prefetch_degree=degree
    )
    kernel = CacheHierarchy(server, l3_share=0.5, prefetch_degree=degree)
    assert kernel.backend == backend
    assert run_program(reference, program) == run_program(kernel, program)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("server", [BROADWELL, SKYLAKE])
@pytest.mark.parametrize("degree", [0, 2])
def test_full_size_servers_bit_identical(server, backend, degree):
    """Table-II geometries, skewed + uniform ids, pressure interleaved."""
    rng = np.random.default_rng(1234)
    uniform = rng.integers(0, 200_000, size=6000)
    skewed = (rng.zipf(1.3, size=6000) - 1) % 200_000
    lines = np.where(rng.random(6000) < 0.5, uniform, skewed).astype(np.int64)
    loops = [
        reference_hierarchy(server, l3_share=0.25, prefetch_degree=degree),
        CacheHierarchy(server, l3_share=0.25, prefetch_degree=degree),
    ]
    assert loops[1].backend == backend
    states = []
    for h in loops:
        per_step = []
        for chunk in np.array_split(lines, 4):
            h.access_lines(chunk)
            h.external_llc_pressure(500)
            per_step.append(snapshot(h))
        states.append(per_step)
    assert states[0] == states[1]


@pytest.mark.parametrize("backend", BACKENDS)
def test_sls_trace_path_bit_identical(backend):
    """line_trace_for_rows + access_lines == trace_for_rows + access_trace."""
    rng = np.random.default_rng(5)
    table = EmbeddingTable(50_000, 48)  # 192B rows straddle line boundaries
    sls = SparseLengthsSum("sls", table, lookups_per_sample=4)
    rows = rng.integers(0, table.rows, size=3000)

    reference = reference_hierarchy(BROADWELL, l3_share=0.1)
    reference.access_trace(sls.trace_for_rows(rows))

    kernel = CacheHierarchy(BROADWELL, l3_share=0.1)
    assert kernel.backend == backend
    kernel.access_lines(sls.line_trace_for_rows(rows))
    assert snapshot(reference) == snapshot(kernel)


def test_reset_stats_keeps_contents_on_both_engines():
    for h in both_loops(TINY_BROADWELL):
        h.access_lines(np.arange(40, dtype=np.int64))
        finished = h.reset_stats()
        assert finished.dram_accesses == 40
        assert h.stats.dram_accesses == 0
        h.access_lines(np.arange(40, dtype=np.int64))
        assert h.stats.dram_accesses == 0  # contents survived the reset


def test_engine_and_backend_validation():
    """Every object picks its own loop: neither option is left to pass."""
    import inspect

    from repro.analysis import mpki
    from repro.experiments import (
        fig05_intensity_mpki,
        fig11_tail_latency,
        fig14_trace_locality,
        fignmp_near_memory,
    )
    from repro.hw import trace_integration
    from repro.memory.near_memory import NearMemorySystem
    from repro.serving import ServingSimulator

    with pytest.raises(TypeError):
        CacheHierarchy(BROADWELL, backend="native")
    takers = [
        ServingSimulator,
        CacheHierarchy,
        NearMemorySystem,
        mpki.measure_mpki,
        mpki.measure_sls_trace_mpki,
        trace_integration.measure_trace_hit_ratio,
        trace_integration.trace_driven_latency,
        fignmp_near_memory._replay_model,
        fig05_intensity_mpki.run,
        fig11_tail_latency.run,
        fig14_trace_locality.run,
        fignmp_near_memory.run,
    ]
    for fn in takers:
        with pytest.raises(TypeError):
            inspect.signature(fn).bind_partial(engine="reference")
    with pytest.raises(TypeError):
        CacheHierarchy(BROADWELL, engine="reference")


def test_vectorized_falls_back_to_reference():
    lines = np.random.default_rng(11).integers(0, 3000, size=4000)
    hierarchies = both_loops(TINY_BROADWELL, prefetch_degree=2)
    states = []
    for h in hierarchies:
        h.access_lines(lines)
        h.external_llc_pressure(200)
        h.access(MemoryAccess(address=64 * 17, size=300))
        states.append(snapshot(h))
    assert states[1:] == states[:1] * (len(states) - 1)


def test_reference_loops_restores_environment_and_kernels():
    disabled = os.environ.get("REPRO_DISABLE_NATIVE")
    available = native_available()
    with reference_loops():
        assert os.environ["REPRO_DISABLE_NATIVE"] == "1"
        assert not native_available()
        assert CacheHierarchy(TINY_BROADWELL).backend == "reference"
    assert os.environ.get("REPRO_DISABLE_NATIVE") == disabled
    assert native_available() == available


def test_build_key_includes_the_compiler(monkeypatch, tmp_path):
    import repro.hw._native as native

    real_cc = native._compiler()
    if real_cc is None:
        pytest.skip("no C compiler")
    cache = tmp_path / "cache"
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
    monkeypatch.delenv("REPRO_DISABLE_NATIVE", raising=False)

    def build_with(name: str, version: str):
        """Build the probe through a wrapper compiler named ``name``."""
        wrapper = tmp_path / name
        wrapper.write_text(
            "#!/bin/sh\n"
            f'if [ "$1" = "--version" ]; then echo "{version}"; exit 0; fi\n'
            f'exec "{real_cc}" "$@"\n'
        )
        wrapper.chmod(0o755)
        monkeypatch.setenv("CC", str(wrapper))
        # Each build stands for a new process: the identity is asked once
        # per compiler and process.
        native._compiler_identity.cache_clear()
        return native.compile_cached(PROBE_SOURCE, "repro_probe")

    first = build_with("cc-a", "wrapper-cc 1.0")
    other_path = build_with("cc-b", "wrapper-cc 1.0")
    other_version = build_with("cc-a", "wrapper-cc 2.0")
    built = sorted(cache.glob("*.so"))
    again = build_with("cc-a", "wrapper-cc 2.0")
    assert len({first, other_path, other_version}) == 3
    assert again == other_version
    assert sorted(cache.glob("*.so")) == built
    for path in (first, other_path, other_version):
        assert ctypes.CDLL(str(path)).repro_probe() == 42
    native._compiler_identity.cache_clear()


def test_compile_cached_creates_missing_cache_dir(monkeypatch, tmp_path):
    import repro.hw._native as native

    if native._compiler() is None:
        pytest.skip("no C compiler")
    cache = tmp_path / "nested" / "not-yet" / "native"
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
    monkeypatch.delenv("REPRO_DISABLE_NATIVE", raising=False)
    path = native.compile_cached(PROBE_SOURCE, "repro_probe")
    assert path is not None and path.parent == cache
    assert ctypes.CDLL(str(path)).repro_probe() == 42
    # The source sits beside the object and no temporary is left behind.
    assert sorted(p.name for p in cache.iterdir()) == sorted(
        [path.name, path.with_suffix(".c").name]
    )


def test_compile_cached_missing_link_input_builds_nothing(monkeypatch, tmp_path):
    import repro.hw._native as native

    cache = tmp_path / "cache"
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
    monkeypatch.delenv("REPRO_DISABLE_NATIVE", raising=False)
    missing = str(tmp_path / "libmissing.a")
    assert native.compile_cached(
        PROBE_SOURCE, "repro_probe", link_inputs=(missing, "-lm")
    ) is None
    assert not cache.exists()  # no source written, no compiler run


def test_compile_cached_concurrent_builds_share_one_object(monkeypatch, tmp_path):
    import repro.hw._native as native

    if native._compiler() is None:
        pytest.skip("no C compiler")
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    monkeypatch.delenv("REPRO_DISABLE_NATIVE", raising=False)
    context = multiprocessing.get_context("spawn")
    barrier = context.Barrier(4)
    workers = [
        context.Process(target=build_probe, args=(barrier,)) for _ in range(4)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=180)
    for worker in workers:
        if worker.is_alive():
            worker.kill()
            worker.join(timeout=10)
    assert [worker.exitcode for worker in workers] == [0, 0, 0, 0]
    # One object and its source; the pid-unique temporaries are gone.
    path = native.compile_cached(PROBE_SOURCE, "repro_probe")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [path.name, path.with_suffix(".c").name]
    )


class TestPrefetchLeakRegression:
    """`_prefetched_lines` must drop entries whose line left L2 and L3."""

    def test_bookkeeping_is_bounded_by_residency(self):
        h = reference_hierarchy(TINY_BROADWELL, l3_share=0.5, prefetch_degree=4)
        rng = np.random.default_rng(0)
        capacity = (
            h.l2.num_sets * h.l2.associativity
            + h.l3.num_sets * h.l3.associativity
        )
        for _ in range(30):
            h.access_lines(rng.integers(0, 4000, size=500).astype(np.int64))
            h.external_llc_pressure(100)
            assert len(h._prefetched_lines) <= capacity

    def test_stale_prefetch_is_not_a_hit(self):
        """A prefetched-then-evicted line must not count as a prefetch hit."""
        for h in both_loops(TINY_BROADWELL, l3_share=0.5, prefetch_degree=1):
            h.access_lines(np.array([0], dtype=np.int64))  # prefetches line 1
            assert h.stats.prefetches_issued == 1
            # Thrash until the prefetched line is gone from both L2 and L3.
            h.external_llc_pressure(4096)
            rng = np.random.default_rng(1)
            h.access_lines(
                rng.integers(10_000, 40_000, size=4000).astype(np.int64)
            )
            assert not h.l2.probe(1) and not h.l3.probe(1)
            assert 1 not in h._prefetched_lines
            before = h.stats.prefetch_hits
            h.access_lines(np.array([1], dtype=np.int64))
            assert h.stats.prefetch_hits == before

    def test_prefetched_line_in_both_l2_and_l3_still_hits(self):
        """Non-inclusive corner: the flag survives while an L2 copy lives,
        even if the L3 copy is evicted first."""
        for h in both_loops(TINY_SKYLAKE, l3_share=0.5, prefetch_degree=1):
            # Demand-miss line 10 -> prefetch line 11 into L2 (victim L3
            # has no copy); a later L3 eviction of anything must not kill it.
            h.access_lines(np.array([10], dtype=np.int64))
            h.external_llc_pressure(2048)
            assert h.l2.probe(11)
            h.access_lines(np.array([11], dtype=np.int64))
            assert h.stats.prefetch_hits == 1


class TestReplayObservability:
    """Tracer/profiler hooks on the batch replay path: off == bit-identical."""

    def _stats(self, tracer, profiler):
        from repro.hw.trace_integration import replay_line_trace

        rng = np.random.default_rng(3)
        h = CacheHierarchy(TINY_BROADWELL, l3_share=0.5)
        lines = rng.integers(0, 2000, size=3000).astype(np.int64)
        delta = replay_line_trace(h, lines, tracer=tracer, profiler=profiler)
        return delta, snapshot(h)

    def test_tracing_off_is_bit_identical(self):
        from repro.obs.profile import OpProfiler
        from repro.obs.tracer import Tracer

        tracer, profiler = Tracer(), OpProfiler()
        plain = self._stats(None, None)
        traced = self._stats(tracer, profiler)
        assert plain == traced

    def test_replay_spans_and_attribution(self):
        from repro.core.operators.base import OP_SLS
        from repro.obs.profile import OpProfiler
        from repro.obs.tracer import Tracer

        tracer, profiler = Tracer(), OpProfiler()
        delta, _ = self._stats(tracer, profiler)
        names = {span.name for span in tracer.spans}
        assert "hw.replay.trace" in names and "hw.replay.dram" in names
        assert not tracer.open_spans()
        parent = next(s for s in tracer.spans if s.name == "hw.replay.trace")
        assert parent.args["dram_accesses"] == delta.dram_accesses
        children = [s for s in tracer.spans if s.parent_id == parent.span_id]
        assert children and all(
            s.begin_s >= parent.begin_s and s.end_s <= parent.end_s + 1e-12
            for s in children
        )
        assert profiler.by_op_type[OP_SLS].invocations == 1
        assert profiler.by_op_type[OP_SLS].cycles > 0

    def test_measure_functions_match_reference(self):
        from repro.analysis.mpki import measure_sls_trace_mpki
        from repro.hw.trace_integration import measure_trace_hit_ratio

        rng = np.random.default_rng(8)
        rows = rng.integers(0, 30_000, size=2000)
        table = EmbeddingTable(30_000, 32)
        sls = SparseLengthsSum("sls", table, lookups_per_sample=4)

        def measure():
            hit_ratio, hierarchy = measure_trace_hit_ratio(
                BROADWELL, 30_000, 32, rows, l3_share=0.5
            )
            mpki = measure_sls_trace_mpki(sls, BROADWELL, rows)
            return hierarchy.backend, mpki, hit_ratio

        with reference_loops():
            backend, *reference = measure()
        assert backend == "reference"
        backend, *kernel = measure()
        assert backend == ("native" if native_available() else "reference")
        assert kernel == reference


class TestVectorizedCacheUnit:
    def test_geometry_validation_matches_reference(self):
        with pytest.raises(ValueError):
            VectorizedSetAssociativeCache("bad", 1000, 8, 64)
        with pytest.raises(ValueError):
            VectorizedSetAssociativeCache("bad", 0)

    @needs_native
    def test_probe_and_ages(self):
        cache = VectorizedSetAssociativeCache("L", 4096, 4, 64)
        h = CacheHierarchy(TINY_BROADWELL)
        h.access_lines(np.array([3, 7, 3], dtype=np.int64))
        assert h.l1.probe(3) and h.l1.probe(7) and not h.l1.probe(99)
        ages = h.l1.age_matrix()
        set3, set7 = 3 % h.l1.num_sets, 7 % h.l1.num_sets
        # 3 was re-touched after 7, so it is the MRU (age 0) of its set.
        assert ages[set3][np.where(h.l1.tags[set3] == 3)[0][0]] == 0
        assert (cache.age_matrix() == -1).all()  # empty cache: all empty

    @needs_native
    def test_probe_lines_matches_scalar_probe(self):
        h = CacheHierarchy(TINY_BROADWELL)
        h.access_lines(np.arange(0, 200, 3, dtype=np.int64))
        queries = np.arange(0, 250, dtype=np.int64)
        batched = h.l2.probe_lines(queries)
        assert batched.tolist() == [h.l2.probe(int(q)) for q in queries]

    def test_expand_spans_matches_lines_spanned(self):
        cache = VectorizedSetAssociativeCache("L", 4096, 4, 64)
        rng = np.random.default_rng(2)
        addresses = rng.integers(0, 100_000, size=200)
        sizes = rng.integers(1, 400, size=200)
        expected = [
            line
            for addr, size in zip(addresses, sizes)
            for line in cache.lines_spanned(int(addr), int(size))
        ]
        got = expand_spans(addresses, sizes, 64)
        assert got.tolist() == expected
        assert expand_spans(np.empty(0), np.empty(0), 64).size == 0
