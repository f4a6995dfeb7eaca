"""End-to-end tests for the observability layer.

The two load-bearing guarantees:

* **determinism** — a traced, seeded run exports byte-identical Chrome
  JSON every time;
* **zero perturbation** — running with tracing/metrics off (the default)
  produces bit-identical results to never having instrumented at all.
"""

from __future__ import annotations

import importlib
import inspect
import json
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis.mpki import measure_sls_trace_mpki
from repro.config import presets
from repro.experiments import fig11x_faults, fig14_trace_locality
from repro.hw import TimingModel
from repro.hw.server import BROADWELL
from repro.hw.trace_integration import measure_trace_hit_ratio, replay_line_trace
from repro.obs import (
    MetricsRegistry,
    Tracer,
    dumps_chrome,
    flight_report,
    to_chrome,
    validate_chrome,
)
from repro.serving.batch_serving import BatchedServer
from repro.serving.distributed import (
    NetworkConfig,
    distributed_latency,
    shard_tables,
)
from repro.__main__ import main

_FIG11X_KWARGS = dict(num_machines=4, duration_s=0.4, seed=11)


def _traced_fig11x():
    tracer = Tracer()
    metrics = MetricsRegistry()
    result = fig11x_faults.run(tracer=tracer, metrics=metrics, **_FIG11X_KWARGS)
    return tracer, metrics, result


def _policy_fingerprint(result):
    return {
        name: (
            outcome.summary.p50,
            outcome.summary.p99,
            outcome.summary.p999,
            outcome.stats.offered,
            outcome.stats.completed,
            outcome.stats.failed,
            outcome.stats.retries,
            outcome.stats.hedges,
        )
        for name, outcome in result.outcomes.items()
    }


class TestFig11xTracing:
    def test_traced_runs_export_identical_chrome_json(self):
        tracer_a, _, _ = _traced_fig11x()
        tracer_b, _, _ = _traced_fig11x()
        dump_a = dumps_chrome(tracer_a)
        assert dump_a == dumps_chrome(tracer_b)
        assert len(dump_a) > 1000  # a real timeline, not an empty shell

    def test_traced_export_validates(self):
        tracer, _, _ = _traced_fig11x()
        payload = to_chrome(tracer)
        assert validate_chrome(payload) == []
        # Round-trips through JSON text unchanged.
        assert validate_chrome(json.loads(dumps_chrome(tracer))) == []

    def test_tracing_off_is_bit_identical(self):
        _, _, traced = _traced_fig11x()
        plain = fig11x_faults.run(**_FIG11X_KWARGS)
        assert _policy_fingerprint(plain) == _policy_fingerprint(traced)

    def test_metrics_cover_every_policy(self):
        _, metrics, result = _traced_fig11x()
        payload = metrics.snapshot().to_jsonable()
        for name, outcome in result.outcomes.items():
            offered = payload["counters"][f"serving.router.offered{{policy={name}}}"]
            assert offered == outcome.stats.offered
            latency = payload["histograms"][f"serving.router.latency_s{{policy={name}}}"]
            assert latency["count"] == outcome.stats.completed

    def test_flight_report_summarizes_router_stages(self):
        tracer, _, _ = _traced_fig11x()
        report = flight_report(tracer, top_k=5)
        assert "serving.router.request" in report
        assert "serving.router.attempt" in report


class TestFig14Tracing:
    """The replay's one observer is the tracer ``repro trace figure14`` sets."""

    KWARGS = dict(table_rows=200_000, trace_length=8_000)

    def test_traced_run_matches_untraced(self):
        tracer = Tracer()
        traced = fig14_trace_locality.run(tracer=tracer, **self.KWARGS)
        assert traced == fig14_trace_locality.run(**self.KWARGS)
        replays = [s for s in tracer.spans if s.name == "hw.replay.trace"]
        assert len(replays) == len(traced.rows)
        assert sorted(s.track for s in replays) == list(range(len(traced.rows)))
        for replay in replays:
            children = [s for s in tracer.spans if s.parent_id == replay.span_id]
            assert children and all(s.track == replay.track for s in children)
            assert sum(s.args["count"] for s in children) == replay.args["lines"]
        assert validate_chrome(to_chrome(tracer)) == []


#: The options that fed or placed the per-operator profiler, by function.
_REMOVED_OPTIONS = [
    (TimingModel, "profiler"),
    (replay_line_trace, "profiler"),
    (replay_line_trace, "op_type"),
    (replay_line_trace, "t0_s"),
    (measure_sls_trace_mpki, "profiler"),
    (measure_sls_trace_mpki, "t0_s"),
    (measure_trace_hit_ratio, "tracer"),
    (measure_trace_hit_ratio, "profiler"),
    (measure_trace_hit_ratio, "track"),
    (measure_trace_hit_ratio, "t0_s"),
]


@pytest.mark.parametrize(
    "fn, option",
    _REMOVED_OPTIONS,
    ids=[f"{fn.__name__}-{option}" for fn, option in _REMOVED_OPTIONS],
)
def test_profiler_options_are_gone(fn, option):
    with pytest.raises(TypeError):
        inspect.signature(fn).bind_partial(**{option: None})


def test_profiler_is_gone():
    with pytest.raises(ImportError):
        from repro.obs import OpProfiler  # noqa: F401
    with pytest.raises(ImportError):
        importlib.import_module("repro.obs.profile")
    # The parameters after a removed one are keyword-only, so an old
    # positional call fails instead of binding to the wrong parameter.
    for fn, args in [
        (TimingModel, (BROADWELL, None)),
        (replay_line_trace, (None, None, None)),
        (measure_sls_trace_mpki, (None, BROADWELL, None, None)),
    ]:
        with pytest.raises(TypeError):
            inspect.signature(fn).bind(*args)


class TestDistributedTracing:
    def test_fanout_timeline_matches_result(self):
        config = presets.RMC2_SMALL
        plan = shard_tables(config, num_shards=2)
        tracer = Tracer()
        traced = distributed_latency(
            BROADWELL, config, batch_size=4, plan=plan,
            network=NetworkConfig(), tracer=tracer,
        )
        plain = distributed_latency(
            BROADWELL, config, batch_size=4, plan=plan, network=NetworkConfig()
        )
        assert traced == plain
        assert validate_chrome(to_chrome(tracer)) == []
        fanout = next(
            s for s in tracer.spans if s.name == "serving.shard.fanout"
        )
        assert fanout.end_s == pytest.approx(traced.total_seconds)
        shards = [s for s in tracer.spans if s.name == "serving.shard.sls"]
        assert len(shards) == plan.num_shards


class TestBatchTracing:
    def test_batches_become_spans(self):
        tracer = Tracer()
        server = BatchedServer(
            BROADWELL, presets.RMC1_SMALL, max_batch=8, tracer=tracer
        )
        traced = server.simulate(offered_qps=500, duration_s=0.05, seed=5)
        plain = BatchedServer(
            BROADWELL, presets.RMC1_SMALL, max_batch=8
        ).simulate(offered_qps=500, duration_s=0.05, seed=5)
        assert np.array_equal(traced.query_latencies_s, plain.query_latencies_s)
        assert traced.items_served == plain.items_served
        assert traced.mean_batch_size == plain.mean_batch_size
        assert validate_chrome(to_chrome(tracer)) == []
        requests = [
            s for s in tracer.spans if s.name == "serving.batch.request"
        ]
        assert sum(s.args["num_items"] for s in requests) == traced.items_served


class TestCli:
    def test_json_flag_writes_deterministic_document(self, tmp_path, capsys):
        out = tmp_path / "table1.json"
        assert main(["table1", "--json", str(out)]) == 0
        capsys.readouterr()
        document = json.loads(out.read_text())
        assert document["experiment"] == "table1"
        assert "result" in document

    def test_figure11x_json_is_byte_identical_across_processes(self, tmp_path):
        # The fault storm used to dump its default repr, whose memory
        # address differs from one process to the next.
        dumps = []
        for run in range(2):
            out = tmp_path / f"figure11x-{run}.json"
            subprocess.run(
                [sys.executable, "-m", "repro", "figure11x", "--json", str(out)],
                check=True,
                capture_output=True,
            )
            dumps.append(out.read_bytes())
        assert dumps[0] == dumps[1]
        assert b"object at" not in dumps[0]
        storm = json.loads(dumps[0])["result"]["storm"]
        assert sorted(storm) == ["bandwidth_faults", "crashes", "stragglers"]
        assert storm["crashes"] and set(storm["crashes"][0]) == {
            "replica_id", "at_s", "downtime_s"
        }

    def test_json_flag_defaults_to_stdout(self, capsys):
        assert main(["table1", "--json"]) == 0
        stdout = capsys.readouterr().out
        assert '"experiment": "table1"' in stdout

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["not-an-experiment"]) == 2
        capsys.readouterr()

    def test_trace_rejects_unknown_experiment(self, capsys):
        assert main(["trace", "not-an-experiment"]) == 2
        capsys.readouterr()

    def test_trace_rejects_uninstrumented_experiment(self, capsys):
        assert main(["trace", "table1"]) == 2
        err = capsys.readouterr().err
        assert "figure11x" in err  # points at the traceable ones
