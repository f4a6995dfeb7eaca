"""Wrap public entry points of ``repro`` where their callers look them up.

Every wrapper is installed by name (module, optional class, attribute). A
name that no longer exists is reported as "not measured: <reason>" rather
than crashing, so a refactor that moves code shows up as lost coverage in
the traced run instead of a broken benchmark. :meth:`Hooks.restore` puts
every original back.

Two hook sets exist:

* :func:`install_audit` — always on. Construction- and run-level only
  (tens of calls per unit): records which backend each layer ran and the
  simulator's request books, which the output checks need.
* :func:`install_tracing` — traced run only. Spans around each layer's
  entry points, leaf timers on the hot per-request calls, and GC pauses.
"""

from __future__ import annotations

import functools
import gc
import importlib

from spans import Recorder


class Hooks:
    """Installs wrappers by name and undoes them in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []
        #: ``"module[.Class].attr" -> reason`` for names that were not found.
        self.missing: dict[str, str] = {}

    def wrap(self, module: str, attr: str, make, owner: str | None = None) -> bool:
        """Replace ``module[.owner].attr`` by ``make(original)``."""
        label = f"{module}.{owner}.{attr}" if owner else f"{module}.{attr}"
        try:
            target = importlib.import_module(module)
        except ImportError as exc:
            self.missing[label] = f"module not importable ({exc})"
            return False
        if owner is not None:
            target = getattr(target, owner, None)
            if not isinstance(target, type):
                self.missing[label] = f"{module} has no class {owner}"
                return False
            original = target.__dict__.get(attr)
        else:
            original = getattr(target, attr, None)
        if not callable(original):
            self.missing[label] = f"{attr} not found"
            return False
        setattr(target, attr, make(original))
        self._undo.append((target, attr, original))
        return True

    def restore(self) -> None:
        """Put every wrapped name back."""
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)


class Audit:
    """Backends used and simulator books seen since the last :meth:`take`."""

    def __init__(self) -> None:
        self.backends: dict[tuple[str, str], int] = {}
        #: ``(offered, completed, shed, killed, instances)`` per simulator run.
        self.sim_books: list[tuple[int, int, int, int, int]] = []
        self.totals: dict[tuple[str, str], int] = {}

    def backend(self, layer: str, name: str | None) -> None:
        key = (layer, str(name))
        self.backends[key] = self.backends.get(key, 0) + 1
        self.totals[key] = self.totals.get(key, 0) + 1

    def take(self) -> tuple[dict, list]:
        """Return and clear what the last unit recorded."""
        out = (self.backends, self.sim_books)
        self.backends, self.sim_books = {}, []
        return out


def _after(fn, callback):
    """``fn`` that also calls ``callback(args, result)`` on return."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        callback(args, result)
        return result

    return wrapper


def install_audit(hooks: Hooks, audit: Audit) -> None:
    """Record backends and simulator books on every unit."""

    def cache_built(args, _result):
        hierarchy = args[0]
        engine = getattr(hierarchy, "engine", "?")
        backend = getattr(hierarchy, "backend", "?")
        audit.backend("cache", backend if engine == "vectorized" else engine)

    def sim_ran(args, result):
        sim = args[0]
        audit.backend("simulator", getattr(sim, "last_backend", "?"))
        audit.sim_books.append(
            (
                int(result.offered),
                len(result.records),
                int(result.shed),
                int(result.killed),
                int(sim.num_instances),
            )
        )

    def nmp_built(args, _result):
        audit.backend("nmp", getattr(args[0], "backend", "?"))

    def router_ran(args, _result):
        audit.backend("router", getattr(args[0], "engine", "?"))

    hooks.wrap(
        "repro.hw.hierarchy", "__init__",
        lambda fn: _after(fn, cache_built), owner="CacheHierarchy",
    )
    hooks.wrap(
        "repro.memory.near_memory", "__init__",
        lambda fn: _after(fn, nmp_built), owner="NearMemorySystem",
    )
    hooks.wrap(
        "repro.serving.simulator", "run",
        lambda fn: _after(fn, sim_ran), owner="ServingSimulator",
    )
    hooks.wrap(
        "repro.serving.faults", "run",
        lambda fn: _after(fn, router_ran), owner="ResilientRouter",
    )


def _span(rec: Recorder, name: str, on_result=None):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with rec.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    return make


def _leaf(rec: Recorder, name: str):
    slot = rec.leaf(name)
    clock = rec.clock
    cover = rec.cover

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            slot[0] += 1
            slot[1] += elapsed
            cover(elapsed)
            return result

        return wrapper

    return make


def install_tracing(hooks: Hooks, rec: Recorder) -> None:
    """Spans and leaf timers around each layer's public entry points."""

    def router_counts(_args, result):
        attempts = result.offered + result.retries + result.hedges
        rec.count("router.requests", result.offered)
        rec.count("router.attempts", attempts)
        rec.count("router.completed", result.completed)
        rec.count("router.retries", result.retries)
        rec.count("router.hedges", result.hedges)
        overload = getattr(result, "overload", None)
        if overload is not None:
            rec.count("overload.offered", overload.offered)
            rec.count("overload.admitted", overload.admitted)
            rec.count("overload.shed", overload.shed)
            rec.count("overload.breaker_opens", overload.breaker_opens)

    def sim_counts(_args, result):
        rec.count("simulator.requests", int(result.offered))

    hooks.wrap(
        "repro.serving.faults", "__init__",
        _span(rec, "router.build"), owner="ResilientRouter",
    )
    hooks.wrap(
        "repro.serving.faults", "run",
        _span(rec, "router.run", router_counts), owner="ResilientRouter",
    )
    # The routing decision, as bound where each router copy calls it.
    for module in ("repro.serving.faults", "repro.serving.des"):
        hooks.wrap(module, "pick_machine", _leaf(rec, "routing.pick"))
    hooks.wrap(
        "repro.hw.timing", "model_latency",
        _leaf(rec, "hw.pricing"), owner="TimingModel",
    )
    for module in ("repro.experiments.fig11x_faults", "repro.experiments.fleet_day"):
        hooks.wrap(module, "fault_storm", _span(rec, "faults.storm"))
    hooks.wrap(
        "repro.serving.autoscaler", "run",
        _span(rec, "autoscaler.run"), owner="Autoscaler",
    )
    hooks.wrap(
        "repro.serving.simulator", "run",
        _span(rec, "simulator.run", sim_counts), owner="ServingSimulator",
    )
    for method in ("summary", "stats"):
        hooks.wrap(
            "repro.serving.faults", method,
            _span(rec, "analysis.summary"), owner="FaultyServingResult",
        )
    for fn in ("summarize", "count_modes"):
        hooks.wrap(
            "repro.experiments.fig11_tail_latency", fn,
            _span(rec, "analysis.summary"),
        )


#: Unbounded per-instance caches (``functools.lru_cache`` on a method) that
#: keep every object a finished unit built alive, so memory and collector
#: time would grow with the number of units run. They hold nothing a later
#: unit can reuse; the runner clears them between units, outside timing.
UNIT_CACHES = (("repro.serving.simulator", "ServingSimulator", "_base_latency"),)


def clear_unit_caches() -> None:
    """Empty :data:`UNIT_CACHES`; a cache that no longer exists is skipped."""
    for module, owner, attr in UNIT_CACHES:
        try:
            cls = getattr(importlib.import_module(module), owner)
        except (ImportError, AttributeError):
            continue
        clear = getattr(cls.__dict__.get(attr), "cache_clear", None)
        if clear is not None:
            clear()


class GcTimer:
    """Collector pauses and counts, through ``gc.callbacks``."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.seconds = 0.0
        self.collections = 0
        self._start = 0.0

    def __call__(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._start = self.clock()
        else:
            self.seconds += self.clock() - self._start
            self.collections += 1

    def __enter__(self) -> "GcTimer":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)
