"""The one test-only way into every engine's reference loop.

Cache replay, NMP replay, ``ResilientRouter`` and
``TemporalReuseGenerator`` each run their C kernel when it loads (and,
for the router, when no tracer observes the run), and their reference
loop otherwise. Inside :func:`reference_loops` no kernel loads, so an
object built there (cache and NMP replay pick their loop at
construction) or run there (the router picks its loop per run, the
temporal-reuse generator per ``ids()`` call) takes its reference loop. The equivalence suites and the engine benches
compare the two loops this way. ``ServingSimulator`` has one loop.
"""

from __future__ import annotations

import contextlib
import os
from collections.abc import Iterator

from repro import native


@contextlib.contextmanager
def reference_loops() -> Iterator[None]:
    """Hold every engine object to its reference loop inside the block.

    Sets ``REPRO_DISABLE_NATIVE=1`` and empties the kernel memo of
    :func:`repro.native.load`; on exit, restores both, so the
    kernels loaded before the block serve again without a rebuild.
    """
    saved_env = os.environ.get("REPRO_DISABLE_NATIVE")
    saved_memo = dict(native._CACHED)
    os.environ["REPRO_DISABLE_NATIVE"] = "1"
    native._CACHED.clear()
    try:
        yield
    finally:
        native._CACHED.clear()
        native._CACHED.update(saved_memo)
        if saved_env is None:
            del os.environ["REPRO_DISABLE_NATIVE"]
        else:
            os.environ["REPRO_DISABLE_NATIVE"] = saved_env
