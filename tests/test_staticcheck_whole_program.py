"""Tier-2 tests for the whole-program staticcheck layer: the project index,
the dataflow summaries, the SC9xx interprocedural rules
(both directions each), the SC002 docs-drift meta rule, the --stats/--json
CLI surface, and a hypothesis suite proving the analyzer never raises on
parseable python."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.tools.staticcheck import dataflow, load_project, run_checks
from repro.tools.staticcheck.__main__ import main
from repro.tools.staticcheck.dataflow import analyze_project
from repro.tools.staticcheck.index import ProjectIndex, module_dotted_name
from repro.tools.staticcheck.rules import ALL_RULES, select_rules

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships in the test extras
    HAVE_HYPOTHESIS = False


def write_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    """Write ``{relpath: source}`` under ``tmp_path`` and return it."""
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return tmp_path


def check_tree(tmp_path: Path, files: dict[str, str], rule: str):
    """Write a multi-file tree and run one rule over the whole project."""
    write_tree(tmp_path, files)
    project = load_project([tmp_path], root=tmp_path)
    return run_checks(project, select_rules([rule]))


# --------------------------------------------------------------------- index


class TestProjectIndex:
    def test_module_dotted_name_strips_src_and_init(self):
        assert module_dotted_name("src/repro/hw/cache.py") == "repro.hw.cache"
        assert module_dotted_name("src/repro/hw/__init__.py") == "repro.hw"
        assert module_dotted_name("tools/helper.py") == "tools.helper"

    def test_symbol_table_records_params_and_defaults(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/pkg/mod.py": """
                def f(a, b_ms, c=None, *, d=3):
                    return a
                """
            },
        )
        project = load_project([tmp_path], root=tmp_path)
        index = ProjectIndex.build(project)
        f = index.functions[("src/pkg/mod.py", "f")]
        names = [p.name for p in f.params]
        assert names == ["a", "b_ms", "c", "d"]
        assert f.params[1].unit == "ms"
        assert "c" in f.none_default_params
        assert f.params[3].kwonly

    def test_resolve_call_exact_via_import(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/pkg/util.py": "def helper(x_s):\n    return x_s\n",
                "src/pkg/app.py": (
                    "from pkg.util import helper\n"
                    "def go():\n"
                    "    return helper(1.0)\n"
                ),
            },
        )
        project = load_project([tmp_path], root=tmp_path)
        index = ProjectIndex.build(project)
        module = next(m for m in project.modules if m.relpath.endswith("app.py"))
        candidates, exact = index.resolve_call(module, "helper")
        assert exact
        assert [c.qualname for c in candidates] == ["helper"]

    def test_resolve_call_falls_back_by_name(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/pkg/a.py": "def frob(x):\n    return x\n",
                "src/pkg/b.py": "def go(obj):\n    return obj.frob(1)\n",
            },
        )
        project = load_project([tmp_path], root=tmp_path)
        index = ProjectIndex.build(project)
        module = next(m for m in project.modules if m.relpath.endswith("b.py"))
        candidates, exact = index.resolve_call(module, "obj.frob")
        assert not exact
        assert [c.qualname for c in candidates] == ["frob"]


# ------------------------------------------------------------------ dataflow


class TestDataflowSummaries:
    def summarize(self, tmp_path, source, relname="src/pkg/mod.py"):
        write_tree(tmp_path, {relname: source})
        project = load_project([tmp_path], root=tmp_path)
        analysis = analyze_project(project)
        return [fn for _, fn in analysis.iter_summaries()]

    def test_return_units_and_param_units(self, tmp_path):
        summaries = self.summarize(
            tmp_path,
            """
            def latency_s(base_ms):
                x_ms = base_ms * 2
                return x_ms
            """,
        )
        fn = next(s for s in summaries if s.qualname == "latency_s")
        assert fn.param_units == {"base_ms": "ms"}
        assert [u for u, _, _ in fn.return_units] == ["ms"]

    def test_guarded_use_is_marked_guarded(self, tmp_path):
        summaries = self.summarize(
            tmp_path,
            """
            def f(tracer=None):
                if tracer is not None:
                    tracer.begin("a.b.c")
            """,
        )
        fn = next(s for s in summaries if s.qualname == "f")
        assert [u.guarded for u in fn.maybe_none_uses] == [True]

    def test_early_return_guard_dominates(self, tmp_path):
        summaries = self.summarize(
            tmp_path,
            """
            def f(faults=None):
                if faults is None:
                    return 0
                return faults.rate
            """,
        )
        fn = next(s for s in summaries if s.qualname == "f")
        assert [u.guarded for u in fn.maybe_none_uses] == [True]

    def test_unguarded_use_is_not_guarded(self, tmp_path):
        summaries = self.summarize(
            tmp_path,
            """
            def f(faults=None):
                return faults.rate
            """,
        )
        fn = next(s for s in summaries if s.qualname == "f")
        assert [u.guarded for u in fn.maybe_none_uses] == [False]


# --------------------------------------------------------------------- SC901


class TestUnitFlow:
    def test_keyword_unit_mismatch_flagged(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "src/pkg/mod.py": """
                def wait(timeout_s):
                    return timeout_s

                def go(budget_ms):
                    return wait(timeout_s=budget_ms)
                """
            },
            "SC901",
        )
        assert len(violations) == 1
        assert "timeout_s" in violations[0].message
        assert "ms" in violations[0].message

    def test_positional_unit_mismatch_across_modules_flagged(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "src/pkg/util.py": """
                def wait(timeout_s):
                    return timeout_s
                """,
                "src/pkg/app.py": """
                from pkg.util import wait

                def go(budget_ms):
                    return wait(budget_ms)
                """,
            },
            "SC901",
        )
        assert len(violations) == 1
        assert violations[0].path.endswith("app.py")

    def test_return_unit_mismatch_flagged(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "src/pkg/mod.py": """
                def latency_s(x_ms):
                    return x_ms
                """
            },
            "SC901",
        )
        assert len(violations) == 1
        assert "return" in violations[0].message

    def test_matching_units_clean(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "src/pkg/mod.py": """
                def wait(timeout_s):
                    return timeout_s

                def go(budget_s):
                    return wait(budget_s)
                """
            },
            "SC901",
        )
        assert violations == []

    def test_division_is_a_conversion(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "src/pkg/mod.py": """
                def wait(timeout_s):
                    return timeout_s

                def go(budget_ms):
                    return wait(budget_ms / 1e3)
                """
            },
            "SC901",
        )
        assert violations == []

    def test_seconds_alias_not_a_mismatch(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "src/pkg/mod.py": """
                def wait(timeout_s):
                    return timeout_s

                def go(total_seconds):
                    return wait(total_seconds)
                """
            },
            "SC901",
        )
        assert violations == []

    def test_ambiguous_candidates_not_flagged(self, tmp_path):
        # Two same-named callees with *different* parameter units: the
        # conservative rule must stay silent rather than guess.
        violations = check_tree(
            tmp_path,
            {
                "src/pkg/a.py": "def wait(timeout_s):\n    return timeout_s\n",
                "src/pkg/b.py": "def wait(timeout_ms):\n    return timeout_ms\n",
                "src/pkg/app.py": """
                def go(obj, budget_ms):
                    return obj.wait(budget_ms)
                """,
            },
            "SC901",
        )
        assert violations == []

    def test_tests_are_exempt(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "tests/test_mod.py": """
                def wait(timeout_s):
                    return timeout_s

                def test_go(budget_ms):
                    return wait(timeout_s=budget_ms)
                """
            },
            "SC901",
        )
        assert violations == []


# --------------------------------------------------------------------- SC902


class TestRngPlumbing:
    def test_own_seeded_generator_with_rng_holding_caller_flagged(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "src/pkg/mod.py": """
                import numpy as np

                def sample(n):
                    rng = np.random.default_rng(42)
                    return rng.random(n)

                def driver(n, rng):
                    return sample(n)
                """
            },
            "SC902",
        )
        assert len(violations) == 1
        assert "sample" in violations[0].message
        assert "driver" in violations[0].message

    def test_no_rng_holding_caller_clean(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "src/pkg/mod.py": """
                import numpy as np

                def sample(n):
                    rng = np.random.default_rng(42)
                    return rng.random(n)

                def driver(n):
                    return sample(n)
                """
            },
            "SC902",
        )
        assert violations == []

    def test_plumbed_rng_clean(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "src/pkg/mod.py": """
                def sample(n, rng):
                    return rng.random(n)

                def driver(n, rng):
                    return sample(n, rng)
                """
            },
            "SC902",
        )
        assert violations == []

    def test_stable_seed_helper_clean(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "src/pkg/mod.py": """
                import numpy as np

                def stable_table_seed(name):
                    return 7

                def sample(n, name):
                    rng = np.random.default_rng(stable_table_seed(name))
                    return rng.random(n)

                def driver(n, rng):
                    return sample(n, "t0")
                """
            },
            "SC902",
        )
        assert violations == []

    def test_outside_src_clean(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "benchmarks/bench.py": """
                import numpy as np

                def sample(n):
                    rng = np.random.default_rng(42)
                    return rng.random(n)

                def driver(n, rng):
                    return sample(n)
                """
            },
            "SC902",
        )
        assert violations == []


# --------------------------------------------------------------------- SC903


class TestOffSwitchPurity:
    def test_unguarded_param_use_flagged(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "src/pkg/mod.py": """
                def step(faults=None):
                    return faults.rate
                """
            },
            "SC903",
        )
        assert len(violations) == 1
        assert "faults" in violations[0].message
        assert "None" in violations[0].message

    def test_is_not_none_guard_clean(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "src/pkg/mod.py": """
                def step(faults=None):
                    if faults is not None:
                        return faults.rate
                    return 0.0
                """
            },
            "SC903",
        )
        assert violations == []

    def test_early_return_guard_clean(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "src/pkg/mod.py": """
                def step(faults=None):
                    if faults is None:
                        return 0.0
                    return faults.rate
                """
            },
            "SC903",
        )
        assert violations == []

    def test_null_object_rebind_clean(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "src/pkg/mod.py": """
                NULL_TRACER = object()

                def step(tracer=None):
                    tracer = tracer or NULL_TRACER
                    return tracer.begin("a.b.c")
                """
            },
            "SC903",
        )
        assert violations == []

    def test_unguarded_none_field_flagged(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "src/pkg/mod.py": """
                from dataclasses import dataclass

                @dataclass
                class Sim:
                    overload: object = None

                    def tick(self):
                        return self.overload.admit()
                """
            },
            "SC903",
        )
        assert len(violations) == 1
        assert "self.overload" in violations[0].message

    def test_guarded_none_field_clean(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "src/pkg/mod.py": """
                from dataclasses import dataclass

                @dataclass
                class Sim:
                    overload: object = None

                    def tick(self):
                        if self.overload is not None:
                            return self.overload.admit()
                        return True
                """
            },
            "SC903",
        )
        assert violations == []

    def test_tests_are_exempt(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "tests/test_mod.py": """
                def step(faults=None):
                    return faults.rate
                """
            },
            "SC903",
        )
        assert violations == []


# --------------------------------------------------------------------- SC904


class TestWallClock:
    def test_time_call_in_src_flagged(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "src/pkg/mod.py": """
                import time

                def measure():
                    return time.perf_counter()
                """
            },
            "SC904",
        )
        assert len(violations) == 1
        assert "perf_counter" in violations[0].message

    def test_aliased_import_flagged(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "src/pkg/mod.py": """
                from time import perf_counter as pc

                def measure():
                    return pc()
                """
            },
            "SC904",
        )
        assert len(violations) == 1

    def test_datetime_now_flagged(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "src/pkg/mod.py": """
                import datetime

                def stamp():
                    return datetime.datetime.now()
                """
            },
            "SC904",
        )
        assert len(violations) == 1

    def test_module_level_call_flagged(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "src/pkg/mod.py": """
                import time

                STARTED = time.time()
                """
            },
            "SC904",
        )
        assert len(violations) == 1
        assert "import time" in violations[0].message or "at import" in violations[0].message

    def test_benchmarks_and_tools_exempt(self, tmp_path):
        for relname in ("benchmarks/bench.py", "src/pkg/tools/cli.py"):
            violations = check_tree(
                tmp_path,
                {
                    relname: """
                    import time

                    def measure():
                        return time.perf_counter()
                    """
                },
                "SC904",
            )
            assert violations == [], relname

    def test_simulated_clock_clean(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "src/pkg/mod.py": """
                def advance(clock, dt_s):
                    clock.now_s += dt_s
                    return clock.now_s
                """
            },
            "SC904",
        )
        assert violations == []

    def test_inline_ignore_respected(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "src/pkg/mod.py": (
                    "import time\n\n"
                    "def measure():\n"
                    "    return time.perf_counter()  # staticcheck: ignore[SC904]\n"
                )
            },
            "SC904",
        )
        assert violations == []


# --------------------------------------------------------------------- SC002


class TestRuleDocsDrift:
    DOCS = "docs/STATIC_ANALYSIS.md"

    def docs_for(self, ids):
        return "\n\n".join(f"### {rule_id} `x`\nWords." for rule_id in ids)

    def all_ids(self):
        ids = {rule.id for rule in ALL_RULES}
        ids.update({"SC001", "SC701"})
        return sorted(ids)

    def test_in_sync_docs_clean(self, tmp_path):
        write_tree(tmp_path, {self.DOCS: self.docs_for(self.all_ids())})
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "mod.py").write_text("x_s = 1\n")
        project = load_project([tmp_path / "src"], root=tmp_path)
        assert run_checks(project, select_rules(["SC002"])) == []

    def test_undocumented_rule_flagged(self, tmp_path):
        ids = [i for i in self.all_ids() if i != "SC301"]
        write_tree(tmp_path, {self.DOCS: self.docs_for(ids)})
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "mod.py").write_text("x_s = 1\n")
        project = load_project([tmp_path / "src"], root=tmp_path)
        violations = run_checks(project, select_rules(["SC002"]))
        assert len(violations) == 1
        assert "SC301" in violations[0].message

    def test_stale_doc_section_flagged(self, tmp_path):
        write_tree(
            tmp_path, {self.DOCS: self.docs_for(self.all_ids() + ["SC999"])}
        )
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "mod.py").write_text("x_s = 1\n")
        project = load_project([tmp_path / "src"], root=tmp_path)
        violations = run_checks(project, select_rules(["SC002"]))
        assert len(violations) == 1
        assert "SC999" in violations[0].message

    def test_missing_docs_file_silent(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "mod.py").write_text("x_s = 1\n")
        project = load_project([tmp_path / "src"], root=tmp_path)
        assert run_checks(project, select_rules(["SC002"])) == []


# ----------------------------------------------------------------- CLI layer


class TestCliStats:
    def test_stats_block_printed(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x_ns = 1\n")
        code = main(
            [str(tmp_path), "--root", str(tmp_path), "--no-graphs", "--stats"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "staticcheck stats:" in out
        assert "violations by rule:" in out

    def test_stats_in_json_report(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x_ns = 1\n")
        code = main(
            [str(tmp_path), "--root", str(tmp_path), "--no-graphs", "--stats", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        stats = payload["stats"]
        assert stats["files"] == 1
        for key in ("parse_seconds", "index_seconds", "dataflow_seconds", "rules_seconds"):
            assert stats[key] >= 0.0
        assert set(stats["rule_counts"]) >= {rule.id for rule in ALL_RULES}

    def test_stats_counts_violations_per_rule(self, tmp_path, capsys):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "bad.py").write_text(
            "import time\n\ndef f():\n    return time.time()\n"
        )
        code = main(
            [
                str(tmp_path / "src"),
                "--root", str(tmp_path),
                "--no-graphs", "--no-baseline", "--stats", "--json",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["rule_counts"]["SC904"] == 1
        assert payload["stats"]["rule_counts"]["SC201"] == 0

    def test_json_to_path_writes_file_and_prints_text(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x_ns = 1\n")
        report_path = tmp_path / "out" / "report.json"
        code = main(
            [
                str(tmp_path),
                "--root", str(tmp_path),
                "--no-graphs", "--json", str(report_path),
            ]
        )
        assert code == 0
        assert "clean" in capsys.readouterr().out
        payload = json.loads(report_path.read_text())
        assert payload["exit_code"] == 0

    def test_no_cache_skips_persistence(self, tmp_path, capsys):
        # Nothing persists between runs: a run leaves behind only the
        # report it was asked to write.
        (tmp_path / "ok.py").write_text("x_ns = 1\n")
        report_path = tmp_path / "report.json"
        argv = [
            str(tmp_path), "--root", str(tmp_path),
            "--no-graphs", "--json", str(report_path),
        ]
        assert main(argv) == 0
        assert main(argv) == 0
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["ok.py", "report.json"]

    def test_analyzer_edit_takes_effect_on_next_run(self, tmp_path, capsys, monkeypatch):
        # A verdict comes from the analyzer that runs, never from
        # summaries an earlier run (under an older analyzer) left on disk.
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "clock.py").write_text(
            "import time\n\ndef f():\n    return time.time()\n"
        )
        argv = [
            str(tmp_path / "src"), "--root", str(tmp_path),
            "--no-graphs", "--no-baseline",
        ]
        with monkeypatch.context() as patched:
            patched.setattr(
                dataflow, "WALL_CLOCK_CALLS", dataflow.WALL_CLOCK_CALLS - {"time.time"}
            )
            assert main(argv) == 0
        assert main(argv) == 1
        assert "SC904" in capsys.readouterr().out


# ------------------------------------------------------------- robustness


def assert_analyzer_survives(tmp_path: Path, source: str) -> None:
    """The full pipeline must never raise on syntactically valid python."""
    target = tmp_path / "src" / "gen.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    project = load_project([tmp_path], root=tmp_path)
    run_checks(project, list(ALL_RULES))


HAND_PICKED_NASTIES = [
    "",
    "async def f():\n    async with a() as b:\n        await b.c\n",
    "def f(faults=None):\n    return (lambda: faults.rate)()\n",
    "class A:\n    class B:\n        def m(self, x=None):\n            return x.y\n",
    "def f():\n    global g\n    g = 1\n",
    "match p:\n    case {'a': x} if x is not None:\n        x.y\n",
    "def f(*args, **kw):\n    return f(*args, **kw)\n",
    "x: int\ndef f(x_s=...):\n    return x_s\n",
    "from __future__ import annotations\ndef f(a: 'Missing') -> 'Missing':\n    return a\n",
    "def f():\n    yield from (x.y for x in [] if x is not None)\n",
    "try:\n    import nope\nexcept ImportError:\n    nope = None\nif nope is not None:\n    nope.go()\n",
    "def f(x=None):\n    del x\n",
    "def outer():\n    def inner(t=None):\n        return t.u if t else None\n    return inner\n",
    "(a := 1)\nprint(a)\n",
    "def f(x=None):\n    with x:\n        pass\n",
]


@pytest.mark.parametrize("source", HAND_PICKED_NASTIES)
def test_analyzer_survives_nasty_snippets(tmp_path, source):
    assert_analyzer_survives(tmp_path, source)


if HAVE_HYPOTHESIS:

    IDENT = st.sampled_from(
        ["x", "x_s", "x_ms", "faults", "rng", "seed", "tracer", "obj", "time"]
    )

    @st.composite
    def expressions(draw, depth=0):
        if depth > 2:
            return draw(IDENT)
        kind = draw(st.integers(0, 5))
        if kind == 0:
            return draw(IDENT)
        if kind == 1:
            return str(draw(st.integers(0, 99)))
        if kind == 2:
            return f"({draw(expressions(depth + 1))}).{draw(IDENT)}"
        if kind == 3:
            return f"({draw(expressions(depth + 1))})({draw(expressions(depth + 1))})"
        if kind == 4:
            op = draw(st.sampled_from(["+", "-", "*", "/", "or", "and"]))
            return f"({draw(expressions(depth + 1))} {op} {draw(expressions(depth + 1))})"
        return f"({draw(expressions(depth + 1))} if {draw(expressions(depth + 1))} is not None else {draw(expressions(depth + 1))})"

    @st.composite
    def statements(draw, depth=0):
        indent = "    " * depth
        kind = draw(st.integers(0, 4 if depth < 2 else 2))
        if kind == 0:
            return f"{indent}{draw(IDENT)} = {draw(expressions())}\n"
        if kind == 1:
            return f"{indent}return {draw(expressions())}\n"
        if kind == 2:
            return f"{indent}{draw(expressions())}\n"
        if kind == 3:
            body = "".join(
                draw(st.lists(statements(depth + 1), min_size=1, max_size=2))
            )
            return f"{indent}if {draw(expressions())}:\n{body}"
        body = "".join(draw(st.lists(statements(depth + 1), min_size=1, max_size=2)))
        return f"{indent}for {draw(IDENT)} in {draw(expressions())}:\n{body}"

    @st.composite
    def modules(draw):
        params = draw(
            st.sampled_from(["", "x", "x_ms, y=None", "rng, *a, **k", "faults=None"])
        )
        body = "".join(draw(st.lists(statements(1), min_size=1, max_size=4)))
        return f"import time\n\ndef f({params}):\n{body}"

    class TestHypothesisRobustness:
        @settings(
            max_examples=60,
            deadline=None,
            suppress_health_check=[HealthCheck.function_scoped_fixture],
        )
        @given(source=modules())
        def test_analyzer_never_raises_on_parseable_python(self, tmp_path, source):
            compile(source, "<gen>", "exec")  # precondition: valid python
            assert_analyzer_survives(tmp_path, source)

        @settings(
            max_examples=30,
            deadline=None,
            suppress_health_check=[HealthCheck.function_scoped_fixture],
        )
        @given(text=st.text(max_size=200))
        def test_arbitrary_text_never_crashes_checker(self, tmp_path, text):
            # Unparseable text must surface as SC001, not an exception.
            target = tmp_path / "src" / "gen.py"
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text, encoding="utf-8", errors="replace")
            project = load_project([tmp_path], root=tmp_path)
            run_checks(project, list(ALL_RULES))
