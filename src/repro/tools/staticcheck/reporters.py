"""Text and JSON reporters for checker results."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

from .engine import Violation

#: Version of the JSON report schema (tests pin it).
REPORT_SCHEMA_VERSION = 1


@dataclass
class RunStats:
    """Per-phase timing and per-rule counts for one invocation.

    Collected by the CLI under ``--stats`` so analyzer-runtime regressions
    are visible in CI logs.
    """

    files: int = 0
    parse_seconds: float = 0.0
    index_seconds: float = 0.0
    dataflow_seconds: float = 0.0
    rules_seconds: float = 0.0
    #: Violation count per rule id for every rule that ran (zeros kept).
    rule_counts: dict = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return (
            self.parse_seconds
            + self.index_seconds
            + self.dataflow_seconds
            + self.rules_seconds
        )

    def to_jsonable(self) -> dict:
        return {
            "files": self.files,
            "parse_seconds": round(self.parse_seconds, 4),
            "index_seconds": round(self.index_seconds, 4),
            "dataflow_seconds": round(self.dataflow_seconds, 4),
            "rules_seconds": round(self.rules_seconds, 4),
            "total_seconds": round(self.total_seconds, 4),
            "rule_counts": dict(sorted(self.rule_counts.items())),
        }


def render_stats(stats: RunStats) -> str:
    """Human-readable ``--stats`` block appended to the text report."""
    counts = " ".join(f"{r}:{n}" for r, n in sorted(stats.rule_counts.items()))
    return "\n".join(
        [
            "staticcheck stats:",
            f"  files: {stats.files}  parse: {stats.parse_seconds:.2f}s  "
            f"index: {stats.index_seconds:.2f}s  "
            f"dataflow: {stats.dataflow_seconds:.2f}s  "
            f"rules: {stats.rules_seconds:.2f}s  "
            f"total: {stats.total_seconds:.2f}s",
            f"  violations by rule: {counts or '(no rules ran)'}",
        ]
    )


@dataclass
class CheckReport:
    """Everything one checker invocation produced."""

    violations: list[Violation]
    checked_files: int
    suppressed_by_baseline: int = 0
    graph_problems: list = field(default_factory=list)
    stats: RunStats | None = None

    @property
    def exit_code(self) -> int:
        return 1 if self.violations or self.graph_problems else 0


def render_text(report: CheckReport) -> str:
    """Human-readable diagnostics, one ``path:line:col`` line per finding."""
    lines = [v.format() for v in report.violations]
    lines.extend(
        f"src/repro/config/presets.py:0:0: SC701 [preset-graphs] {p.format()}"
        for p in report.graph_problems
    )
    total = len(report.violations) + len(report.graph_problems)
    if total:
        by_rule = Counter(v.rule for v in report.violations)
        if report.graph_problems:
            by_rule["SC701"] = len(report.graph_problems)
        breakdown = ", ".join(f"{r}:{n}" for r, n in sorted(by_rule.items()))
        lines.append(
            f"staticcheck: {total} violation{'s' if total != 1 else ''} "
            f"({breakdown}) in {report.checked_files} files"
        )
    else:
        lines.append(
            f"staticcheck: clean — {report.checked_files} files checked"
            + (
                f", {report.suppressed_by_baseline} baseline-suppressed"
                if report.suppressed_by_baseline
                else ""
            )
        )
    if report.stats is not None:
        lines.append(render_stats(report.stats))
    return "\n".join(lines)


def render_json(report: CheckReport) -> str:
    """Machine-readable report (schema pinned by REPORT_SCHEMA_VERSION)."""
    payload = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "checked_files": report.checked_files,
        "suppressed_by_baseline": report.suppressed_by_baseline,
        "violations": [
            {
                "rule": v.rule,
                "name": v.name,
                "path": v.path,
                "line": v.line,
                "col": v.col,
                "message": v.message,
            }
            for v in report.violations
        ],
        "graph_problems": [
            {"preset": p.preset, "stage": p.stage, "message": p.message}
            for p in report.graph_problems
        ],
        "counts": dict(Counter(v.rule for v in report.violations)),
        "exit_code": report.exit_code,
    }
    if report.stats is not None:
        payload["stats"] = report.stats.to_jsonable()
    return json.dumps(payload, indent=2)
