"""Self-compiled native kernels: the cache-replay kernel and the one loader.

Exact LRU simulation with cross-level feedback (inclusive back-
invalidation, victim fills, prefetch pollution) is inherently sequential
per cache line, so cache replay's inner loop cannot be expressed as
whole-trace numpy array arithmetic without giving up bit-identical stats.
Instead the batch kernel is ~200 lines of C operating **in place on the
hierarchy's structure-of-arrays numpy state** (int64 tag matrices, uint8
prefetch-flag matrices, int64 occupancy vectors — see
:mod:`repro.hw.vectorized`), compiled on first use with the system C
compiler and loaded through :mod:`ctypes`.

No third-party dependency is added: when no compiler is available (or
``REPRO_DISABLE_NATIVE=1`` is set) :class:`~repro.hw.hierarchy.CacheHierarchy`
runs its reference loop instead, with the same results. The equivalence
test suite drives this kernel against that loop (built on
:class:`~repro.hw.cache.SetAssociativeCache`), which remains the
executable specification.

Every kernel in the repo builds through :func:`compile_cached` and loads
through :func:`load_native`, which memoizes each kernel per process.
Build artifacts go to ``REPRO_NATIVE_CACHE`` if set (created when
missing), else a ``_native_build`` directory next to this file when
writable, else a process-private temporary directory. The shared object
is keyed by a hash of the C source, the flags, the link inputs and the
compiler, so a change to any of them triggers a rebuild.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from collections.abc import Callable
from pathlib import Path
from typing import TypeVar

import numpy as np

__all__ = [
    "NPYRANDOM_ARCHIVE",
    "compile_cached",
    "load_kernel",
    "load_native",
    "native_available",
    "NativeKernel",
]

T = TypeVar("T")

#: numpy's static distributions library, which the kernels that draw
#: through a generator's ``bitgen_t`` link after their source. Some numpy
#: builds do not ship it, and then those kernels cannot build.
NPYRANDOM_ARCHIVE = (
    Path(np.__file__).resolve().parent / "random" / "lib" / "libnpyrandom.a"
)

# Mirror of the reference loop in repro.hw.cache / repro.hw.hierarchy.
# Each cache set keeps its resident lines contiguous from slot 0 in LRU
# order (slot 0 = LRU victim, slot occ-1 = MRU), matching the iteration
# order of the reference OrderedDict. The uint8 flag alongside each tag
# marks "filled by a prefetch, not yet demanded"; flags die with their
# copy on eviction, which is the leak-free prefetch-hit bookkeeping.
_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

typedef int64_t i64;
typedef uint8_t u8;

typedef struct {
    i64 *tags;
    u8 *flags;
    i64 *occ;
    i64 nsets;
    i64 ways;
    i64 *ctr; /* [hits, misses, evictions, invalidations] */
} Level;

typedef struct {
    Level l1, l2, l3;
    i64 inclusive;
    i64 degree;
    i64 *ctr; /* [l1_hits, l2_hits, l3_hits, dram, l2_back_inv,
                  pf_issued, pf_hits] */
} Ctx;

/* Python's % (always non-negative) — foreign pressure lines are negative. */
static inline i64 set_of(i64 line, i64 nsets) {
    i64 m = line % nsets;
    return m < 0 ? m + nsets : m;
}

static inline i64 find_way(const Level *L, i64 base, i64 n, i64 line) {
    const i64 *t = L->tags + base;
    for (i64 w = 0; w < n; ++w)
        if (t[w] == line)
            return w;
    return -1;
}

static inline void promote(Level *L, i64 base, i64 n, i64 w) {
    i64 tag = L->tags[base + w];
    u8 f = L->flags[base + w];
    memmove(L->tags + base + w, L->tags + base + w + 1,
            (size_t)(n - 1 - w) * sizeof(i64));
    memmove(L->flags + base + w, L->flags + base + w + 1,
            (size_t)(n - 1 - w) * sizeof(u8));
    L->tags[base + n - 1] = tag;
    L->flags[base + n - 1] = f;
}

static int level_probe(const Level *L, i64 line) {
    i64 s = set_of(line, L->nsets);
    return find_way(L, s * L->ways, L->occ[s], line) >= 0;
}

/* cache.touch(): LRU-promote + hit/miss counters; no allocation. */
static int level_touch(Level *L, i64 line, u8 *flag_out) {
    i64 s = set_of(line, L->nsets);
    i64 base = s * L->ways, n = L->occ[s];
    i64 w = find_way(L, base, n, line);
    if (w < 0) {
        L->ctr[1]++;
        return 0;
    }
    *flag_out = L->flags[base + w];
    L->flags[base + w] = 0; /* demand touch consumes the prefetch flag */
    promote(L, base, n, w);
    L->ctr[0]++;
    return 1;
}

/* cache.insert(): allocate at MRU; returns 1 and the victim on eviction.
   Present lines are promoted and their flag OR-ed (victim re-insertion). */
static int level_insert(Level *L, i64 line, u8 flag, i64 *victim,
                        u8 *victim_flag) {
    i64 s = set_of(line, L->nsets);
    i64 base = s * L->ways, n = L->occ[s];
    i64 w = find_way(L, base, n, line);
    if (w >= 0) {
        L->flags[base + w] |= flag;
        promote(L, base, n, w);
        return 0;
    }
    int evicted = 0;
    if (n >= L->ways) {
        *victim = L->tags[base];
        *victim_flag = L->flags[base];
        memmove(L->tags + base, L->tags + base + 1,
                (size_t)(n - 1) * sizeof(i64));
        memmove(L->flags + base, L->flags + base + 1,
                (size_t)(n - 1) * sizeof(u8));
        n--;
        L->ctr[2]++;
        evicted = 1;
    }
    L->tags[base + n] = line;
    L->flags[base + n] = flag;
    L->occ[s] = n + 1;
    return evicted;
}

/* cache.invalidate(): remove, keeping the order of the others. */
static int level_invalidate(Level *L, i64 line, int count_stat) {
    i64 s = set_of(line, L->nsets);
    i64 base = s * L->ways, n = L->occ[s];
    i64 w = find_way(L, base, n, line);
    if (w < 0)
        return 0;
    memmove(L->tags + base + w, L->tags + base + w + 1,
            (size_t)(n - 1 - w) * sizeof(i64));
    memmove(L->flags + base + w, L->flags + base + w + 1,
            (size_t)(n - 1 - w) * sizeof(u8));
    L->occ[s] = n - 1;
    if (count_stat)
        L->ctr[3]++;
    return 1;
}

static void clear_flag(Level *L, i64 line) {
    i64 s = set_of(line, L->nsets);
    i64 base = s * L->ways;
    i64 w = find_way(L, base, L->occ[s], line);
    if (w >= 0)
        L->flags[base + w] = 0;
}

static void insert_l3_inclusive(Ctx *c, i64 line, u8 flag) {
    i64 victim = 0;
    u8 vf = 0;
    if (level_insert(&c->l3, line, flag, &victim, &vf)) {
        /* Inclusion: the L3 victim is forced out of the inner levels. */
        if (level_invalidate(&c->l2, victim, 1))
            c->ctr[4]++;
        level_invalidate(&c->l1, victim, 1);
    }
}

static void fill_l2(Ctx *c, i64 line, u8 flag) {
    i64 victim = 0;
    u8 vf = 0;
    if (level_insert(&c->l2, line, flag, &victim, &vf) && !c->inclusive) {
        /* Victim-style L3 catches L2 evictions; the prefetch flag travels
           with the line so an eventual demand hit still counts. */
        i64 v2 = 0;
        u8 vf2 = 0;
        level_insert(&c->l3, victim, vf, &v2, &vf2);
    }
}

static void fill_l1(Ctx *c, i64 line) {
    i64 victim = 0;
    u8 vf = 0;
    level_insert(&c->l1, line, 0, &victim, &vf);
}

static void issue_prefetches(Ctx *c, i64 miss_line) {
    for (i64 off = 1; off <= c->degree; ++off) {
        i64 line = miss_line + off;
        if (level_probe(&c->l1, line) || level_probe(&c->l2, line))
            continue;
        c->ctr[5]++;
        if (c->inclusive)
            insert_l3_inclusive(c, line, 1);
        fill_l2(c, line, 1);
    }
}

static void access_line(Ctx *c, i64 line) {
    u8 flag = 0;
    if (level_touch(&c->l1, line, &flag)) {
        /* Prefetched lines never reach L1 without being demanded first,
           so no flag can be pending here. */
        c->ctr[0]++;
        return;
    }
    if (level_touch(&c->l2, line, &flag)) {
        if (flag) {
            c->ctr[6]++;
            /* Mirror the reference's single bookkeeping entry: consuming
               the prefetch clears the flag on any L3 copy too. */
            clear_flag(&c->l3, line);
        }
        c->ctr[1]++;
        fill_l1(c, line);
        return;
    }
    if (level_touch(&c->l3, line, &flag)) {
        if (flag)
            c->ctr[6]++;
        c->ctr[2]++;
        if (!c->inclusive) {
            /* Non-inclusive victim L3: the line moves up (uncounted
               removal, matching the reference's invalidation rollback). */
            level_invalidate(&c->l3, line, 0);
        }
        fill_l2(c, line, 0);
        fill_l1(c, line);
        return;
    }
    c->ctr[3]++;
    if (c->inclusive)
        insert_l3_inclusive(c, line, 0);
    fill_l2(c, line, 0);
    fill_l1(c, line);
    if (c->degree > 0)
        issue_prefetches(c, line);
}

static Ctx make_ctx(i64 *t1, u8 *f1, i64 *o1, i64 n1, i64 w1, i64 *c1,
                    i64 *t2, u8 *f2, i64 *o2, i64 n2, i64 w2, i64 *c2,
                    i64 *t3, u8 *f3, i64 *o3, i64 n3, i64 w3, i64 *c3,
                    i64 inclusive, i64 degree, i64 *hier_ctr) {
    Ctx c;
    c.l1 = (Level){t1, f1, o1, n1, w1, c1};
    c.l2 = (Level){t2, f2, o2, n2, w2, c2};
    c.l3 = (Level){t3, f3, o3, n3, w3, c3};
    c.inclusive = inclusive;
    c.degree = degree;
    c.ctr = hier_ctr;
    return c;
}

void repro_replay(const i64 *lines, i64 n_lines,
                  i64 *t1, u8 *f1, i64 *o1, i64 n1, i64 w1, i64 *c1,
                  i64 *t2, u8 *f2, i64 *o2, i64 n2, i64 w2, i64 *c2,
                  i64 *t3, u8 *f3, i64 *o3, i64 n3, i64 w3, i64 *c3,
                  i64 inclusive, i64 degree, i64 *hier_ctr) {
    Ctx c = make_ctx(t1, f1, o1, n1, w1, c1, t2, f2, o2, n2, w2, c2,
                     t3, f3, o3, n3, w3, c3, inclusive, degree, hier_ctr);
    for (i64 i = 0; i < n_lines; ++i)
        access_line(&c, lines[i]);
}

void repro_pressure(i64 evict_lines, i64 seed_stride,
                    i64 *t1, u8 *f1, i64 *o1, i64 n1, i64 w1, i64 *c1,
                    i64 *t2, u8 *f2, i64 *o2, i64 n2, i64 w2, i64 *c2,
                    i64 *t3, u8 *f3, i64 *o3, i64 n3, i64 w3, i64 *c3,
                    i64 inclusive, i64 degree, i64 *hier_ctr) {
    Ctx c = make_ctx(t1, f1, o1, n1, w1, c1, t2, f2, o2, n2, w2, c2,
                     t3, f3, o3, n3, w3, c3, inclusive, degree, hier_ctr);
    for (i64 i = 0; i < evict_lines; ++i) {
        i64 foreign = -(1 + i * seed_stride);
        if (c.inclusive) {
            insert_l3_inclusive(&c, foreign, 0);
        } else {
            i64 victim = 0;
            u8 vf = 0;
            level_insert(&c.l3, foreign, 0, &victim, &vf);
        }
    }
}
"""

_I64P = ctypes.POINTER(ctypes.c_int64)
_U8P = ctypes.POINTER(ctypes.c_uint8)

_LEVEL_ARGS = [_I64P, _U8P, _I64P, ctypes.c_int64, ctypes.c_int64, _I64P]


class NativeKernel:
    """ctypes facade over the compiled replay kernel."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._replay = lib.repro_replay
        self._replay.restype = None
        self._replay.argtypes = (
            [_I64P, ctypes.c_int64]
            + _LEVEL_ARGS * 3
            + [ctypes.c_int64, ctypes.c_int64, _I64P]
        )
        self._pressure = lib.repro_pressure
        self._pressure.restype = None
        self._pressure.argtypes = (
            [ctypes.c_int64, ctypes.c_int64]
            + _LEVEL_ARGS * 3
            + [ctypes.c_int64, ctypes.c_int64, _I64P]
        )

    @staticmethod
    def _level_args(level) -> list:
        return [
            level.tags.ctypes.data_as(_I64P),
            level.flags.ctypes.data_as(_U8P),
            level.occupancy.ctypes.data_as(_I64P),
            level.num_sets,
            level.associativity,
            level._counters.ctypes.data_as(_I64P),
        ]

    def replay(self, lines: np.ndarray, l1, l2, l3, inclusive: bool,
               degree: int, hier_counters: np.ndarray) -> None:
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        self._replay(
            lines.ctypes.data_as(_I64P),
            lines.size,
            *self._level_args(l1),
            *self._level_args(l2),
            *self._level_args(l3),
            int(inclusive),
            int(degree),
            hier_counters.ctypes.data_as(_I64P),
        )

    def pressure(self, evict_lines: int, seed_stride: int, l1, l2, l3,
                 inclusive: bool, degree: int,
                 hier_counters: np.ndarray) -> None:
        self._pressure(
            int(evict_lines),
            int(seed_stride),
            *self._level_args(l1),
            *self._level_args(l2),
            *self._level_args(l3),
            int(inclusive),
            int(degree),
            hier_counters.ctypes.data_as(_I64P),
        )


def _build_dir() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        path = Path(override)
        path.mkdir(parents=True, exist_ok=True)
        return path
    local = Path(__file__).resolve().parent / "_native_build"
    try:
        local.mkdir(exist_ok=True)
        probe = local / f".probe-{os.getpid()}"
        probe.touch()
        probe.unlink()
        return local
    except OSError:
        return Path(tempfile.mkdtemp(prefix="repro-native-"))


def _compiler() -> str | None:
    """Path of the first C compiler on ``PATH``: ``$CC``, cc, gcc, clang."""
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        path = shutil.which(cand) if cand else None
        if path:
            return path
    return None


@functools.lru_cache(maxsize=None)
def _compiler_identity(cc: str) -> str:
    """``cc``'s resolved path and the first line of its ``--version``.

    Part of every build key, so a kernel built by one compiler (another
    ``CC``, a sanitizing wrapper, an upgraded gcc) is never loaded as if
    another had built it. Asked once per compiler and process.
    """
    try:
        version = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=30
        ).stdout
    except (subprocess.SubprocessError, OSError):
        version = ""
    return os.path.realpath(cc) + "\x00" + (version.splitlines() or [""])[0]


def compile_cached(
    source: str,
    stem: str,
    extra_flags: tuple[str, ...] = (),
    link_inputs: tuple[str, ...] = (),
) -> Path | None:
    """Compile C ``source`` into a cached shared object; None if impossible.

    ``link_inputs`` are linker flags (``-lm``) or files (static archives).
    They go on the command line *after* the source: the linker only pulls
    archive members that earlier inputs reference, so an archive listed
    first resolves nothing. A link input file that does not exist makes
    the build impossible, and no compiler runs. The artifact is keyed by
    a hash of the source, the extra compiler flags, the link inputs, the
    bytes of every link input file, and the compiler's resolved path and
    ``--version`` line, so an edit to any of them (a numpy upgrade
    replacing an archive, or another compiler) triggers a rebuild while
    repeat calls reuse the cached ``.so``. Honours
    ``REPRO_DISABLE_NATIVE=1`` and the ``REPRO_NATIVE_CACHE``
    build-directory override.
    """
    if os.environ.get("REPRO_DISABLE_NATIVE") == "1":
        return None
    cc = _compiler()
    if cc is None:
        return None
    digest = hashlib.sha256(
        (source + "\x00" + " ".join(extra_flags)).encode()
    )
    for item in link_inputs:
        digest.update(b"\x00" + item.encode())
        if not item.startswith("-"):
            if not os.path.isfile(item):
                return None
            digest.update(Path(item).read_bytes())
    digest.update(b"\x00" + _compiler_identity(cc).encode())
    tag = digest.hexdigest()[:16]
    build_dir = _build_dir()
    suffix = ".dylib" if sys.platform == "darwin" else ".so"
    target = build_dir / f"{stem}-{tag}{suffix}"
    if target.exists():
        return target
    # Both files go through pid-unique temporaries and an atomic rename,
    # so racing processes never compile or load a torn file.
    src = build_dir / f"{stem}-{tag}.c"
    tmp_src = build_dir / f".{stem}-{tag}-{os.getpid()}.c"
    tmp_src.write_text(source)
    os.replace(tmp_src, src)
    tmp = build_dir / f".{stem}-{tag}-{os.getpid()}{suffix}"
    cmd = [
        cc, "-O2", "-shared", "-fPIC", *extra_flags,
        "-o", str(tmp), str(src), *link_inputs,
    ]
    try:
        subprocess.run(
            cmd, check=True, capture_output=True, timeout=120
        )
    except (subprocess.SubprocessError, OSError):
        return None
    os.replace(tmp, target)
    return target


#: Every self-compiled kernel this process has asked for, by build stem:
#: its bound ctypes facade, or None when it cannot load here.
_CACHED: dict[str, object] = {}


def load_native(
    stem: str,
    source: str | Path,
    bind: Callable[[ctypes.CDLL], T],
    extra_flags: tuple[str, ...] = (),
    link_inputs: tuple[str, ...] = (),
) -> T | None:
    """Build (once per process) and bind one kernel; None when unavailable.

    The one loader behind every kernel in the repo: cache replay here,
    the router kernel in :mod:`repro.serving._des_native`, NMP replay in
    :mod:`repro.memory.nmp_native` and temporal reuse in
    :mod:`repro.data.sparse`. ``source`` is the C text, or the path of a
    ``.c`` file, read only then. The first call compiles it through
    :func:`compile_cached` and hands the loaded library to ``bind``,
    which declares the ctypes signatures; every later call returns the
    memoized result, so a probe costs one dict lookup.
    """
    if stem in _CACHED:
        return _CACHED[stem]
    kernel = None
    try:
        if isinstance(source, Path):
            source = source.read_text()
        path = compile_cached(source, stem, extra_flags, link_inputs)
        if path is not None:
            kernel = bind(ctypes.CDLL(str(path)))
    except OSError:
        kernel = None
    _CACHED[stem] = kernel
    return kernel


def load_kernel() -> NativeKernel | None:
    """The cache-replay kernel; None when unavailable."""
    return load_native("repro_replay", _C_SOURCE, NativeKernel)


def native_available() -> bool:
    """True when the cache-replay kernel is usable in this process."""
    return load_kernel() is not None
