#!/usr/bin/env python3
"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload figure_ladder --seed 1 --seconds 20 --trace 0

Load model: one client in a closed loop. Each unit of work starts when the
previous one returns; inside a unit the simulators model open-loop Poisson
arrivals. Every timing is host time (what the simulator costs to run),
scaled to a reference host speed (``calibrate.py``); simulated statistics
are outputs to check, not timings.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same
units untraced for the first half of ``--seconds`` and traced for the
second half, checks that both halves produce identical digests, and prints
the per-layer metrics. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. See
``perfbench/README.md`` for the metric and layer map.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"

# Single-threaded numerics, and native kernels built into a directory the
# benchmark owns, never into src/. Both must be set before numpy or repro
# is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["REPRO_NATIVE_CACHE"] = str(BUILD / "native")

import calibrate  # noqa: E402  (imports numpy: after the thread settings)
import hooks  # noqa: E402
from spans import NullRecorder, Recorder  # noqa: E402

WORKLOAD_NAMES = (
    "figure_ladder", "fleet_peak", "embedding_locality", "colocation_tail",
)
#: The tail percentile of unit times. A run of 20 s holds 40 to 100 units,
#: where p75 is the highest percentile with at least ten units beyond it;
#: it is fixed rather than chosen per run so that the metric keeps its
#: meaning when host speed moves the unit count across a step.
TAIL_PERCENTILE = 75.0
#: Extra fresh processes whose set-up time is measured, besides this one.
SETUP_CHILDREN = 2


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


def import_program():
    """Import ``repro`` from this checkout's ``src/`` and the workloads."""
    # compile_cached neither creates its cache directory nor says why a
    # build failed, so a missing directory would silently mean no kernels.
    (BUILD / "native").mkdir(parents=True, exist_ok=True)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        raise BenchmarkError(f"cannot import repro from {src}: {exc}") from exc
    origin = Path(repro.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise BenchmarkError(f"repro imported from {origin}, not from {src}")
    import workloads

    return workloads


# ---------------------------------------------------------------- natives


@dataclass
class NativeProbe:
    """Which self-compiled kernels load here, and whether they should."""

    available: dict[str, bool]
    missing: dict[str, str]
    compiler: str | None
    disabled: bool
    seconds: float

    @property
    def expected(self) -> bool:
        """A compiler is present and native kernels are not disabled."""
        return self.compiler is not None and not self.disabled

    @property
    def flags(self) -> list[str]:
        """A kernel that should have loaded but did not."""
        if not self.expected:
            return []
        return [
            f"native kernel {name} unavailable although {self.compiler} is "
            "present (the build failed; compile_cached gives no reason)"
            for name, ok in self.available.items()
            if not ok
        ]


def probe_native() -> NativeProbe:
    """Load (building on first use) every native kernel; time the probes."""
    import importlib

    probes = {
        "hw": ("repro.hw._native", "native_available"),
        "des": ("repro.serving._des_native", "native_available"),
        "nmp": ("repro.memory.nmp_native", "nmp_native_available"),
    }
    available: dict[str, bool] = {}
    missing: dict[str, str] = {}
    start = time.perf_counter()
    for name, (module, fn) in probes.items():
        try:
            probe = getattr(importlib.import_module(module), fn)
        except (ImportError, AttributeError) as exc:
            missing[name] = f"{module}.{fn}: {exc}"
            continue
        available[name] = bool(probe())
    seconds = time.perf_counter() - start
    compiler = next(
        (
            shutil.which(cand)
            for cand in (os.environ.get("CC"), "cc", "gcc", "clang")
            if cand and shutil.which(cand)
        ),
        None,
    )
    return NativeProbe(
        available=available,
        missing=missing,
        compiler=compiler,
        disabled=os.environ.get("REPRO_DISABLE_NATIVE") == "1",
        seconds=seconds,
    )


# ------------------------------------------------------------------ units


@dataclass
class Unit:
    """One unit of work: its host time, work count, digest or failure."""

    index: int
    seconds: float
    work: int = 0
    digest: str = ""
    error: str = ""
    #: ``calibrate.speed_scale`` around this unit.
    scale: float = 1.0

    @property
    def ok(self) -> bool:
        return not self.error

    @property
    def scaled_s(self) -> float:
        """Host seconds at the reference speed (see ``calibrate.py``)."""
        return self.seconds * self.scale


def load_pins(cycle: int) -> dict:
    """Pinned unit digests: ``{workload: {seed: [digest per cycle slot]}}``.

    Pins made with another cycle length do not apply and are ignored.
    """
    path = HERE / "expected_digests.json"
    if not path.exists():
        return {}
    doc = json.loads(path.read_text())
    return doc["workloads"] if doc.get("cycle") == cycle else {}


class Runner:
    """Runs seeded units of one workload and checks each one."""

    def __init__(self, wl_module, workload, seed: int, audit, native: NativeProbe,
                 pins: dict) -> None:
        self.wl = wl_module
        self.workload = workload
        self.seed = seed
        self.audit = audit
        self.native = native
        self.pins = pins.get(workload.name, {}).get(str(seed))

    def unit(self, index: int, rec) -> Unit:
        """Run, time and check unit ``index`` (-1 for the warm-up)."""
        wl = self.wl
        slot = wl.WARMUP if index < 0 else index % wl.CYCLE
        seed = wl.unit_seed(self.workload.name, self.seed, slot)
        self.audit.take()
        start = time.perf_counter()
        try:
            with rec.span("experiments.run"):
                raw = self.workload.run(seed, rec)
        except Exception:  # noqa: BLE001 - a raising unit is a failed unit
            return Unit(index, time.perf_counter() - start,
                        error=_last_line(traceback.format_exc()))
        seconds = time.perf_counter() - start
        hooks.clear_unit_caches()
        backends, books = self.audit.take()
        try:
            work, stats = self.workload.check(raw, books)
            digest = wl.digest(stats)
        except wl.CheckFailed as exc:
            return Unit(index, seconds, error=f"check failed: {exc}")
        except Exception:  # noqa: BLE001
            return Unit(index, seconds,
                        error=_last_line(traceback.format_exc()))
        unit = Unit(index, seconds, work=work, digest=digest)
        if self.native.expected:
            fell_back = sorted(
                layer for layer, backend in backends if backend == "python"
            )
            if fell_back:
                unit.error = f"fell back to the python backend in {fell_back}"
        if self.pins is not None and slot < wl.CYCLE and not unit.error:
            if digest != self.pins[slot]:
                unit.error = (
                    f"digest {digest} != pinned {self.pins[slot]} (slot {slot})"
                )
        return unit

    def phase(self, seconds: float, rec) -> list[Unit]:
        """Closed loop: run units back to back until ``seconds`` elapse.

        The reference loop runs between units; each unit is scaled by the
        mean of the scales measured just before and just after it.
        """
        units: list[Unit] = []
        deadline = time.perf_counter() + seconds
        share = self.workload.memory_share
        before = calibrate.speed_scale(share)
        while True:
            unit = self.unit(len(units), rec)
            after = calibrate.speed_scale(share)
            unit.scale = (before + after) / 2
            before = after
            units.append(unit)
            if time.perf_counter() >= deadline:
                return units


def _last_line(text: str) -> str:
    lines = [line for line in text.strip().splitlines() if line.strip()]
    return lines[-1] if lines else "unknown error"


def cycle_consistency(units: list[Unit], cycle: int) -> None:
    """Units replaying the same seed must produce the same digest."""
    first: dict[int, str] = {}
    for unit in units:
        if not unit.ok:
            continue
        slot = unit.index % cycle
        if first.setdefault(slot, unit.digest) != unit.digest:
            unit.error = (
                f"digest {unit.digest} differs from an earlier run of "
                f"slot {slot} ({first[slot]})"
            )


# -------------------------------------------------------------- metrics


def tail(times_ms: list[float]) -> tuple[float, int]:
    """``(value, units beyond)`` at :data:`TAIL_PERCENTILE`."""
    ordered = sorted(times_ms)
    value = _percentile(ordered, TAIL_PERCENTILE)
    return value, sum(1 for t in ordered if t > value)


def _percentile(ordered: list[float], pct: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * pct / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def throughput(units: list[Unit]) -> float:
    """Median over the units that passed of work per scaled host second.

    A median rather than total work over total time, so a few seconds of
    contention from outside the process do not move it.
    """
    rates = [u.work / u.scaled_s for u in units if u.ok and u.seconds > 0]
    return statistics.median(rates) if rates else 0.0


def end_to_end(units: list[Unit], setup_s: float) -> tuple[dict, list[str]]:
    """The end-to-end metrics and the lines that explain them."""
    good = [u for u in units if u.ok]
    if not good:
        raise BenchmarkError("every unit failed")
    times_ms = [u.scaled_s * 1e3 for u in good]
    tail_ms, beyond = tail(times_ms)
    raw_ms = statistics.median(u.seconds * 1e3 for u in good)
    speed = statistics.median(u.scale for u in good)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "work_per_s": (throughput(units), "1/s"),
        "unit_ms_p50": (statistics.median(times_ms), "ms"),
        "unit_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = [
        f"units timed: {len(good)} (p50 over all of them)",
        f"unit_ms_tail is p{TAIL_PERCENTILE:g}: {beyond} units beyond it"
        + ("" if beyond >= 10 else " (fewer than 10: run longer)"),
        f"unscaled host p50 {raw_ms:.3f} ms; host ran at {speed:.3f}x the "
        "reference speed (median)",
    ]
    return metrics, notes


#: Per-layer metrics: name, unit, activity key, hook labels it depends on.
#: The activity key names the span, leaf timer or counter that must be
#: non-zero for the layer to count as exercised by the workload.
LAYER_GROUPS = (
    ("experiments", "span:experiments.run", ()),
    ("data", "span:data.gen", ()),
    ("hw", "span:hw.replay", ()),
    ("hw.pricing", "leaf:hw.pricing", ("repro.hw.timing.TimingModel.model_latency",)),
    ("memory", "span:memory.nmp_replay", ()),
    ("router", "span:router.run", (
        "repro.serving.faults.ResilientRouter.__init__",
        "repro.serving.faults.ResilientRouter.run",
    )),
    ("routing", "leaf:routing.pick", (
        "repro.serving.faults.pick_machine", "repro.serving.des.pick_machine",
    )),
    ("overload", "count:overload.offered", ("repro.serving.faults.ResilientRouter.run",)),
    ("faults", "span:faults.storm", (
        "repro.experiments.fig11x_faults.fault_storm",
        "repro.experiments.fleet_day.fault_storm",
    )),
    ("autoscaler", "span:autoscaler.run", ("repro.serving.autoscaler.Autoscaler.run",)),
    ("simulator", "span:simulator.run", ("repro.serving.simulator.ServingSimulator.run",)),
    ("analysis", "span:analysis.summary", (
        "repro.serving.faults.FaultyServingResult.summary",
        "repro.serving.faults.FaultyServingResult.stats",
        "repro.experiments.fig11_tail_latency.summarize",
    )),
    ("native", "always", ()),
    ("py", "always", ()),
    ("obs", "always", ()),
)


def per_layer(rec, units: int, native: NativeProbe, gc_timer,
              overhead: float) -> dict[str, tuple[float, str, str]]:
    """``name -> (value, unit, group)`` for every per-layer metric."""
    totals = rec.totals()
    leaves = rec.leaves
    counts = rec.counts

    def total(name):
        return totals.get(name, (0.0, 0.0, 0))[0]

    def leaf(name):
        return leaves.get(name, [0, 0.0])

    def count(name):
        return counts.get(name, 0)

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    u = max(units, 1)
    run_s = total("experiments.run")
    ids = count("data.ids")
    lines = count("hw.lines")
    l3, dram = count("hw.l3_hits"), count("hw.dram_accesses")
    lookups = count("memory.nmp_lookups")
    requests = count("router.requests")
    picks, pick_s = leaf("routing.pick")
    pricing_calls, pricing_s = leaf("hw.pricing")
    sim_requests = count("simulator.requests")
    router_s = total("router.build") + total("router.run")
    rows = [
        ("experiments.run_s", run_s / u, "s", "experiments"),
        ("experiments.self_s", totals.get("experiments.run", (0, 0, 0))[1] / u,
         "s", "experiments"),
        ("data.gen_s", total("data.gen") / u, "s", "data"),
        ("data.ids", ids / u, "count", "data"),
        ("data.ns_per_id", ratio(total("data.gen"), ids, 1e9), "ns", "data"),
        ("data.share", ratio(total("data.gen"), run_s), "fraction", "data"),
        ("hw.replay_s", total("hw.replay") / u, "s", "hw"),
        ("hw.lines", lines / u, "count", "hw"),
        ("hw.ns_per_line", ratio(total("hw.replay"), lines, 1e9), "ns", "hw"),
        ("hw.llc_hit_ratio", ratio(l3, l3 + dram), "fraction", "hw"),
        ("hw.dram_accesses", dram / u, "count", "hw"),
        ("hw.share", ratio(total("hw.replay"), run_s), "fraction", "hw"),
        ("hw.pricing_calls", pricing_calls / u, "count", "hw.pricing"),
        ("hw.pricing_s", pricing_s / u, "s", "hw.pricing"),
        ("memory.nmp_replay_s", total("memory.nmp_replay") / u, "s", "memory"),
        ("memory.nmp_lookups", lookups / u, "count", "memory"),
        ("memory.ns_per_lookup", ratio(total("memory.nmp_replay"), lookups, 1e9),
         "ns", "memory"),
        ("memory.hot_hit_ratio", ratio(count("memory.hot_hits"), lookups),
         "fraction", "memory"),
        ("memory.share", ratio(total("memory.nmp_replay"), run_s), "fraction",
         "memory"),
        ("router.build_s", total("router.build") / u, "s", "router"),
        ("router.run_s", total("router.run") / u, "s", "router"),
        ("router.requests", requests / u, "count", "router"),
        ("router.attempts", count("router.attempts") / u, "count", "router"),
        ("router.us_per_request", ratio(total("router.run"), requests, 1e6), "us",
         "router"),
        ("router.useful_ratio",
         ratio(count("router.completed"), count("router.attempts")),
         "fraction", "router"),
        ("router.retries", count("router.retries") / u, "count", "router"),
        ("router.hedges", count("router.hedges") / u, "count", "router"),
        ("router.share", ratio(router_s, run_s), "fraction", "router"),
        ("routing.pick_calls", picks / u, "count", "routing"),
        ("routing.pick_s", pick_s / u, "s", "routing"),
        ("routing.us_per_pick", ratio(pick_s, picks, 1e6), "us", "routing"),
        ("routing.pick_share", ratio(pick_s, run_s), "fraction", "routing"),
        ("overload.admitted_ratio",
         ratio(count("overload.admitted"), count("overload.offered")),
         "fraction", "overload"),
        ("overload.shed", count("overload.shed") / u, "count", "overload"),
        ("overload.breaker_opens", count("overload.breaker_opens") / u, "count",
         "overload"),
        ("faults.storm_s", total("faults.storm") / u, "s", "faults"),
        ("autoscaler.run_s", total("autoscaler.run") / u, "s", "autoscaler"),
        ("simulator.run_s", total("simulator.run") / u, "s", "simulator"),
        ("simulator.requests", sim_requests / u, "count", "simulator"),
        ("simulator.ns_per_request",
         ratio(total("simulator.run"), sim_requests, 1e9), "ns", "simulator"),
        ("simulator.share", ratio(total("simulator.run"), run_s), "fraction",
         "simulator"),
        ("analysis.summary_s", total("analysis.summary") / u, "s", "analysis"),
        ("native.probe_s", native.seconds, "s", "native"),
        ("py.gc_s", gc_timer.seconds / u, "s", "py"),
        ("py.gc_collections", gc_timer.collections / u, "count", "py"),
        ("obs.trace_overhead", overhead, "ratio", "obs"),
    ]
    return {name: (value, unit, group) for name, value, unit, group in rows}


def layer_activity(rec, key: str) -> bool:
    """Whether the span, leaf timer or counter ``key`` saw any work."""
    if key == "always":
        return True
    kind, name = key.split(":", 1)
    if kind == "span":
        return any(span[0] == name for span in rec.spans)
    if kind == "leaf":
        return rec.leaves.get(name, [0])[0] > 0
    return rec.counts.get(name, 0) > 0


def layer_table(rec, units: int) -> list[str]:
    """Total and self host time per span name, per unit, and its share."""
    totals = rec.totals()
    run_s = totals.get("experiments.run", (0.0, 0.0, 0))[0] or 1.0
    u = max(units, 1)
    lines = ["layer split (host ms per unit: total / self / share of unit):"]
    for name, (t, s, n) in sorted(totals.items(), key=lambda kv: -kv[1][0]):
        lines.append(
            f"  {name:<22} {1e3 * t / u:10.3f} {1e3 * s / u:10.3f} "
            f"{100 * t / run_s:6.1f}%  ({n} spans)"
        )
    for name, (calls, seconds) in sorted(rec.leaves.items()):
        if not calls:
            continue
        lines.append(
            f"  {name:<22} {1e3 * seconds / u:10.3f} {'(leaf)':>10} "
            f"{100 * seconds / run_s:6.1f}%  ({calls} calls)"
        )
    return lines


# ------------------------------------------------------------------ main


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke-test sizes")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, run the warm-up unit, print setup_s")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def setup(args):
    """Import, probe natives, install audit hooks, run the warm-up unit.

    Returns ``(runner, hooks, warmup unit, native probe, setup seconds)``;
    set-up time runs from this process's first statement and is scaled to
    the reference speed like every other timing.
    """
    wl = import_program()
    native = probe_native()
    workload = wl.WORKLOADS[args.workload](args.scale)
    hook_set = hooks.Hooks()
    audit = hooks.Audit()
    hooks.install_audit(hook_set, audit)
    pins = load_pins(wl.CYCLE) if args.scale == "full" else {}
    runner = Runner(wl, workload, args.seed, audit, native, pins)
    warmup = runner.unit(-1, NullRecorder())
    setup_s = time.perf_counter() - _START
    scale = calibrate.speed_scale(workload.memory_share, repeats=3)
    return runner, hook_set, warmup, native, setup_s * scale


def child_setups(args) -> list[float]:
    """Set-up time of fresh processes, one after another."""
    out = []
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "1", "--scale", args.scale, "--setup-only",
    ]
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            raise BenchmarkError(
                f"set-up child failed: {_last_line(proc.stderr or proc.stdout)}"
            )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def result_line(units: list[Unit], metrics: dict) -> str:
    failed = sum(1 for u in units if not u.ok)
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": len(units),
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )


def provenance_lines(runner: Runner, hook_set) -> list[str]:
    native = runner.native
    backends = ", ".join(
        f"{layer}={backend} x{n}"
        for (layer, backend), n in sorted(runner.audit.totals.items())
    )
    lines = [
        f"native kernels: {native.available} (compiler {native.compiler}, "
        f"REPRO_DISABLE_NATIVE={'1' if native.disabled else 'unset'}, "
        f"cache {os.environ['REPRO_NATIVE_CACHE']})",
        f"backends used: {backends or 'none recorded'}",
    ]
    lines += [f"FLAG: {flag}" for flag in native.flags]
    lines += [f"not measured: native probe {m}" for m in native.missing.values()]
    lines += [
        f"not measured: {label} ({why})"
        for label, why in hook_set.missing.items()
    ]
    return lines


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    runner, hook_set, warmup, native, setup_s = setup(args)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    name = args.workload
    cycle = runner.wl.CYCLE
    print(f"workload {name} seed {args.seed} scale {args.scale}: "
          f"{runner.workload.why}")
    if not warmup.ok:
        print(f"warm-up unit failed: {warmup.error}")

    if not args.trace:
        setups = [setup_s] + child_setups(args)
        units = runner.phase(args.seconds, NullRecorder())
        cycle_consistency(units, cycle)
        metrics, notes = end_to_end(units, statistics.median(setups))
        work_name = f"{runner.workload.work_unit}_per_s"
        notes.insert(0, f"{work_name} = work_per_s = "
                        f"{metrics['work_per_s'][0]:.1f}")
        notes.append("setup_s samples: " + ", ".join(f"{s:.3f}" for s in setups))
    else:
        half = args.seconds / 2
        plain = runner.phase(half, NullRecorder())
        rec = Recorder()
        hooks.install_tracing(hook_set, rec)
        with hooks.GcTimer(rec.clock) as gc_timer:
            traced = runner.phase(half, rec)
        hook_set.restore()
        cycle_consistency(plain, cycle)
        cycle_consistency(traced, cycle)
        for a, b in zip(plain, traced):
            if a.ok and b.ok and a.digest != b.digest:
                b.error = f"traced digest {b.digest} != untraced {a.digest}"
        units = plain + traced
        overhead = throughput(traced) / max(throughput(plain), 1e-12)
        layers = per_layer(rec, len(traced), native, gc_timer, overhead)
        notes = layer_table(rec, len(traced))
        for group, key, labels in LAYER_GROUPS:
            if layer_activity(rec, key):
                continue
            lost = [f"{label}: {hook_set.missing[label]}"
                    for label in labels if label in hook_set.missing]
            why = "; ".join(lost) if lost else f"layer not exercised by {name}"
            notes.append(f"not measured: {group}.* ({why})")
        spans_path = BUILD / "spans" / f"{name}-seed{args.seed}.json"
        rec.write(spans_path)
        notes.append(f"spans written to {spans_path.relative_to(ROOT)}")
        metrics = {k: (v, unit) for k, (v, unit, _) in layers.items()}

    units = [warmup] + units
    failed = [u for u in units if not u.ok]
    lines = provenance_lines(runner, hook_set) + notes
    lines.append(
        f"error_rate {len(failed) / len(units):.4f} "
        f"({len(failed)} of {len(units)} units, warm-up included)"
    )
    for unit in failed[:5]:
        lines.append(f"  unit {unit.index} failed: {unit.error}")
    cycle_digests = {}
    for unit in units:
        if unit.ok and 0 <= unit.index < cycle:
            cycle_digests[unit.index] = unit.digest
    lines.append(
        "unit digests: " + " ".join(cycle_digests[i] for i in sorted(cycle_digests))
        + (" (pinned)" if runner.pins is not None else " (seed not pinned)")
    )
    for name_, (value, unit) in metrics.items():
        lines.append(f"{name_} = {value:.6g} {unit}")
    print("\n".join(lines))
    print(result_line(units, metrics))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
