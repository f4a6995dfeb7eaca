"""Observability for the serving stack: tracing and metrics.

The paper's contribution is visibility — operator breakdowns (Figure 4/7),
tail attribution under co-location (Figure 11). ``repro.obs`` gives the
simulators the same visibility at run time:

* :mod:`~repro.obs.tracer` — structured spans on the DES clock, with a
  nil-by-default :data:`NULL_TRACER` so tracing off is bit-identical;
* :mod:`~repro.obs.chrome` — Chrome ``trace_event`` JSON export
  (``chrome://tracing`` / Perfetto) plus a validator;
* :mod:`~repro.obs.metrics` — counters, gauges, streaming histograms with
  labels and snapshot/diff;
* :mod:`~repro.obs.quantiles` — the one shared quantile implementation;
* :mod:`~repro.obs.report` — the flight-recorder terminal report;
* :mod:`~repro.obs.jsonio` — JSON export of results + metrics snapshots.

Per-operator breakdowns come from pricing itself
(``ModelLatency.fraction_by_op_type()``), and a cache replay's per-level
cycles are on its ``hw.replay.*`` spans.

See ``docs/OBSERVABILITY.md`` for the span model and naming convention.
"""

from .chrome import dumps_chrome, to_chrome, validate_chrome
from .jsonio import dumps_result, to_jsonable
from .metrics import (
    SUMMARY_QUANTILES,
    Counter,
    Gauge,
    Histogram,
    HistogramStats,
    MetricsRegistry,
    MetricsSnapshot,
    series_key,
)
from .quantiles import quantile, quantiles
from .report import StageStats, flight_report, stage_stats, top_spans, waterfall
from .tracer import (
    NULL_TRACER,
    Instant,
    NullTracer,
    SPAN_NAME_RE,
    Span,
    Tracer,
    as_tracer,
)

__all__ = [
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramStats",
    "Instant",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NullTracer",
    "SPAN_NAME_RE",
    "SUMMARY_QUANTILES",
    "Span",
    "StageStats",
    "Tracer",
    "as_tracer",
    "dumps_chrome",
    "dumps_result",
    "flight_report",
    "quantile",
    "quantiles",
    "series_key",
    "stage_stats",
    "to_chrome",
    "to_jsonable",
    "top_spans",
    "validate_chrome",
    "waterfall",
]
