"""Spawned-process worker for the concurrent ``compile_cached`` test.

It lives in its own module because a ``spawn`` child imports the module
that defines its target, and the engine test modules build every native
kernel at import time.
"""

import ctypes

from repro.native import compile_cached

PROBE_SOURCE = "int repro_probe(void) { return 42; }\n"


def build_probe(barrier) -> None:
    """Build and call the probe once every worker is up; exit 1 on failure."""
    barrier.wait(timeout=120)
    path = compile_cached(PROBE_SOURCE, "repro_probe")
    if path is None or ctypes.CDLL(str(path)).repro_probe() != 42:
        raise SystemExit(1)
