"""Smoke tests of the benchmark itself, at the tiny scale.

    python3 -m pytest perfbench -q

They check that every metric prints with its unit, that digests follow the
seed, that a failed check raises the failure count, that tracing never
changes a result, and that the benchmark refuses to run without the
program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets the single-thread and native-cache environment)

wl = run.import_program()
hooks = run.hooks
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def make_runner():
    """Runners over tiny-scale workloads; their audit hooks are undone after."""
    installed = []
    native = run.probe_native()

    def make(name: str, seed: int = 1, pins: dict | None = None):
        hook_set = hooks.Hooks()
        audit = hooks.Audit()
        hooks.install_audit(hook_set, audit)
        installed.append(hook_set)
        workload = wl.WORKLOADS[name]("tiny")
        return run.Runner(wl, workload, seed, audit, native, pins or {}), hook_set

    yield make
    for hook_set in reversed(installed):
        hook_set.restore()


def _cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_prints_with_its_unit(trace, key):
    proc = _cli("--workload", "fleet_peak", "--seed", "1", "--seconds", "0.6",
                "--trace", trace, "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {metric["name"]: metric["unit"] for metric in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(
            line.startswith(f"{name} = ") and line.endswith(f" {unit}")
            for line in lines
        ), name


@pytest.mark.parametrize("name", ["fleet_peak", "embedding_locality"])
def test_digests_follow_the_seed(make_runner, name):
    def digests(runner):
        units = [runner.unit(i, run.NullRecorder()) for i in range(3)]
        assert all(u.ok for u in units), [u.error for u in units]
        return [u.digest for u in units]

    first = digests(make_runner(name, seed=1)[0])
    assert digests(make_runner(name, seed=1)[0]) == first
    assert digests(make_runner(name, seed=2)[0]) != first


def test_failed_check_counts_against_the_run(make_runner, monkeypatch):
    runner, _ = make_runner("fleet_peak")

    def broken(raw, books):
        raise wl.CheckFailed("injected")

    monkeypatch.setattr(runner.workload, "check", broken)
    units = runner.phase(0.05, run.NullRecorder())
    result = json.loads(run.result_line(units, {}))
    assert result["attempted"] == len(units) >= 1
    assert result["failed"] == len(units)
    assert not result["correct"]
    assert "injected" in units[0].error


def test_pinned_digest_mismatch_fails_the_unit(make_runner):
    pins = {"fleet_peak": {"1": ["0" * 16] * wl.CYCLE}}
    runner, _ = make_runner("fleet_peak", pins=pins)
    assert "pinned" in runner.unit(0, run.NullRecorder()).error


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_tracing_never_changes_a_result(make_runner, name):
    runner, hook_set = make_runner(name)
    plain = runner.unit(0, run.NullRecorder())
    rec = run.Recorder()
    hooks.install_tracing(hook_set, rec)
    traced = runner.unit(0, rec)
    assert plain.ok and traced.ok, (plain.error, traced.error)
    assert traced.digest == plain.digest
    assert "experiments.run" in rec.totals()
    assert not hook_set.missing


def test_missing_name_is_reported_not_raised():
    hook_set = hooks.Hooks()
    identity = lambda fn: fn  # noqa: E731
    assert not hook_set.wrap("repro.serving.faults", "no_such_function", identity)
    assert not hook_set.wrap("repro.no_such_module", "run", identity)
    assert not hook_set.wrap("repro.serving.faults", "run", identity, owner="Nope")
    assert len(hook_set.missing) == 3
    hook_set.restore()


def test_refuses_to_run_without_the_program():
    bare = run.BUILD / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _cli("--workload", "fleet_peak", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
