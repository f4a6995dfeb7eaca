"""Self-compiled C kernels: how each one is built, and the one loader.

Cache replay, NMP replay, the fleet router and temporal-reuse trace
generation each run a C kernel when it loads and their reference loop
otherwise. The kernels' sources are the ``.c`` files beside this module.
:data:`KERNELS` is the only place that says how a kernel is built; an
engine module keeps its ctypes bindings and calls :func:`load`.

Every kernel compiles with ``cc`` and :data:`FLAGS`. ``-ffp-contract=off``
keeps ``a + b*c`` from being fused into an FMA, so the router's floating
point matches numpy's and CPython's bit for bit; the other kernels have
no arithmetic it could change. A kernel that draws through a numpy
generator's ``bitgen_t`` links ``libnpyrandom.a`` and libm *after* its
source, because a static archive only resolves symbols that earlier
inputs reference.

Importing builds nothing. Without a compiler, without ``libnpyrandom.a``
for a kernel that links it, or with ``REPRO_DISABLE_NATIVE=1``,
:func:`load` returns None and the engine runs its reference loop.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from collections.abc import Callable
from pathlib import Path
from typing import TypeVar

import numpy as np

__all__ = ["FLAGS", "KERNELS", "NPYRANDOM_ARCHIVE", "compile_cached", "load"]

T = TypeVar("T")

#: The compiler flags of every kernel build.
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

#: How each kernel is built: build stem -> (source file beside this
#: module, whether it links ``libnpyrandom.a`` and ``-lm`` after it).
KERNELS: dict[str, tuple[str, bool]] = {
    "repro_replay": ("replay.c", False),
    "repro_nmp": ("nmp.c", False),
    "repro_router": ("router.c", True),
    "repro_temporal_reuse": ("temporal_reuse.c", True),
}

#: numpy's static distributions library. Some numpy builds do not ship
#: it, and then the kernels that link it cannot build.
NPYRANDOM_ARCHIVE = (
    Path(np.__file__).resolve().parent / "random" / "lib" / "libnpyrandom.a"
)

#: Seconds a compiler may run before its build counts as failed.
_COMPILE_TIMEOUT_S = 120


@functools.lru_cache(maxsize=None)
def _process_build_dir() -> Path:
    """One temporary build directory for this process, removed at exit."""
    path = tempfile.mkdtemp(prefix="repro-native-")
    atexit.register(shutil.rmtree, path, ignore_errors=True)
    return Path(path)


def _build_dir() -> Path:
    """``REPRO_NATIVE_CACHE``, else ``~/.cache/repro/native``, created when
    missing; the process's temporary directory when it cannot be created
    or written (a read-only home)."""
    try:
        path = Path(
            os.environ.get("REPRO_NATIVE_CACHE")
            or Path.home() / ".cache" / "repro" / "native"
        )
        path.mkdir(parents=True, exist_ok=True)
        if os.access(path, os.W_OK | os.X_OK):
            return path
    except (OSError, RuntimeError):  # RuntimeError: no home directory
        pass
    return _process_build_dir()


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
    source: str, stem: str, link_inputs: tuple[str, ...] = ()
) -> Path | None:
    """Compile C ``source`` into a cached shared object; None if impossible.

    ``link_inputs`` are linker flags (``-lm``) or files (static archives).
    They go on the command line *after* the source. A link input file that
    does not exist makes the build impossible, and no compiler runs. The
    artifact is keyed by a hash of the source, :data:`FLAGS`, the link
    inputs, the bytes of every link input file, and the compiler's
    resolved path and ``--version`` line, so an edit to any of them (a
    numpy upgrade replacing an archive, or another compiler) triggers a
    rebuild while repeat calls reuse the cached ``.so``. A compiler that
    fails or times out warns once (a ``RuntimeWarning`` naming ``stem``
    and quoting its first line of stderr) and gives None. Honours
    ``REPRO_DISABLE_NATIVE=1`` and ``REPRO_NATIVE_CACHE``.
    """
    if os.environ.get("REPRO_DISABLE_NATIVE") == "1":
        return None
    cc = _compiler()
    if cc is None:
        return None
    digest = hashlib.sha256((source + "\x00" + " ".join(FLAGS)).encode())
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
    tmp_src.write_text(source, encoding="utf-8")
    os.replace(tmp_src, src)
    tmp = build_dir / f".{stem}-{tag}-{os.getpid()}{suffix}"
    cmd = [cc, *FLAGS, "-o", str(tmp), str(src), *link_inputs]
    try:
        subprocess.run(
            cmd, check=True, capture_output=True, text=True,
            timeout=_COMPILE_TIMEOUT_S,
        )
    except subprocess.CalledProcessError as exc:
        lines = exc.stderr.strip().splitlines()
        reason = lines[0] if lines else f"exit status {exc.returncode}"
    except subprocess.TimeoutExpired:
        reason = f"no result after {_COMPILE_TIMEOUT_S} s"
    except OSError as exc:
        reason = str(exc)
    else:
        os.replace(tmp, target)
        return target
    warnings.warn(
        f"native kernel {stem} failed to build with {cc}: {reason}",
        RuntimeWarning,
        stacklevel=2,
    )
    return None


#: Every kernel this process has asked for, by build stem: its bound
#: ctypes facade, or None when it cannot load here.
_CACHED: dict[str, object] = {}


def load(stem: str, bind: Callable[[ctypes.CDLL], T]) -> T | None:
    """Build (once per process) and bind one kernel; None when unavailable.

    ``stem`` names an entry of :data:`KERNELS`. The first call compiles
    its source through :func:`compile_cached` and hands the loaded library
    to ``bind``, which declares the ctypes signatures; every later call
    returns the memoized result, so a probe costs one dict lookup.
    """
    if stem in _CACHED:
        return _CACHED[stem]
    source, npyrandom = KERNELS[stem]
    link_inputs = (str(NPYRANDOM_ARCHIVE), "-lm") if npyrandom else ()
    kernel = None
    try:
        text = Path(__file__).with_name(source).read_text(encoding="utf-8")
        path = compile_cached(text, stem, link_inputs)
        if path is not None:
            kernel = bind(ctypes.CDLL(str(path)))
    except OSError:
        kernel = None
    _CACHED[stem] = kernel
    return kernel
