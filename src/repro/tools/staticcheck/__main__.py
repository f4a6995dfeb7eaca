"""CLI: ``python -m repro.tools.staticcheck src/ tests/ benchmarks/ examples/``.

Exit codes: 0 clean, 1 violations found, 2 bad invocation/baseline.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Sequence

from .baseline import (
    BaselineError,
    DEFAULT_BASELINE_NAME,
    apply_baseline,
    load_baseline,
    save_baseline,
)
from .engine import load_project, run_checks
from .graphs import validate_presets
from .reporters import CheckReport, RunStats, render_json, render_text
from .rules import ALL_RULES, select_rules


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.staticcheck",
        description="AST-based invariant checker for the repro codebase.",
    )
    parser.add_argument("paths", nargs="*", default=["src"], help="files/dirs to check")
    parser.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="emit a JSON report to stdout, or to PATH (text still on stdout)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="report per-phase timing and per-rule counts",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help=f"baseline file (default: ./{DEFAULT_BASELINE_NAME} if present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept all current violations into the baseline file and exit 0",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="RULE",
        help="run only these rules (id or name; repeatable)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=None,
        metavar="RULE",
        help="skip these rules (id or name; repeatable)",
    )
    parser.add_argument(
        "--no-graphs",
        action="store_true",
        help="skip the preset model-graph validation (SC701)",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="root for relative paths in diagnostics (default: cwd)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rules and exit"
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.id}  {rule.name:<22} {rule.description}")
        print("SC701  preset-graphs          static shape validation of config/presets.py")
        return 0

    # Reject typo'd rule tokens and missing paths up front: a --select that
    # matches nothing or a path that doesn't exist would otherwise report
    # "clean" and green a broken CI invocation.
    known_tokens = {t for rule in ALL_RULES for t in (rule.id, rule.name)}
    known_tokens.update({"SC701", "preset-graphs"})
    for token in (args.select or []) + (args.ignore or []):
        if token not in known_tokens:
            print(f"staticcheck: unknown rule {token!r}", file=sys.stderr)
            return 2
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        for p in missing:
            print(f"staticcheck: path does not exist: {p}", file=sys.stderr)
        return 2

    rules = select_rules(args.select, args.ignore)

    t0 = time.perf_counter()
    project = load_project(args.paths, root=args.root)
    parse_seconds = time.perf_counter() - t0

    # Force the whole-program analysis up front so its phase timings are
    # attributable (rules would otherwise trigger it lazily mid-check).
    analysis = project.analysis()

    t0 = time.perf_counter()
    violations = run_checks(project, rules)

    run_graphs = not args.no_graphs and (
        args.select is None or "SC701" in args.select or "preset-graphs" in args.select
    )
    if args.ignore and ("SC701" in args.ignore or "preset-graphs" in args.ignore):
        run_graphs = False
    graph_problems = validate_presets() if run_graphs else []
    rules_seconds = time.perf_counter() - t0

    baseline_path = args.baseline
    if baseline_path is None and not args.no_baseline:
        default = (args.root or Path.cwd()) / DEFAULT_BASELINE_NAME
        baseline_path = default if default.exists() else None
    if args.no_baseline:
        baseline_path = None

    if args.write_baseline:
        target = args.baseline or (args.root or Path.cwd()) / DEFAULT_BASELINE_NAME
        save_baseline(target, violations)
        print(f"staticcheck: wrote {len(violations)} accepted entries to {target}")
        return 0

    suppressed = 0
    if baseline_path is not None:
        try:
            baseline = load_baseline(baseline_path)
        except (BaselineError, OSError) as exc:
            print(f"staticcheck: {exc}", file=sys.stderr)
            return 2
        violations, suppressed = apply_baseline(violations, baseline)

    report = CheckReport(
        violations=violations,
        checked_files=len(project.modules) + len(project.parse_errors),
        suppressed_by_baseline=suppressed,
        graph_problems=graph_problems,
    )
    if args.stats:
        rule_counts = {rule.id: 0 for rule in rules}
        if project.parse_errors:
            rule_counts.setdefault("SC001", 0)
        if run_graphs:
            rule_counts.setdefault("SC701", 0)
        rule_counts.update(Counter(v.rule for v in violations))
        if graph_problems:
            rule_counts["SC701"] = len(graph_problems)
        report.stats = RunStats(
            files=report.checked_files,
            parse_seconds=parse_seconds,
            index_seconds=analysis.index_seconds,
            dataflow_seconds=analysis.dataflow_seconds,
            rules_seconds=rules_seconds,
            rule_counts=rule_counts,
        )

    if args.json == "-":
        print(render_json(report))
    elif args.json is not None:
        json_path = Path(args.json)
        json_path.parent.mkdir(parents=True, exist_ok=True)
        json_path.write_text(render_json(report) + "\n", encoding="utf-8")
        print(render_text(report))
    else:
        print(render_text(report))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
