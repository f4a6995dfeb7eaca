"""Rule engine: file discovery, parsing, rule dispatch, inline suppression.

The engine parses every ``*.py`` file under the requested paths once into a
:class:`ModuleInfo`, hands the whole :class:`Project` to each rule, and
collects :class:`Violation` records. Rules come in two granularities:

* per-module (:meth:`Rule.check_module`) — purely local AST checks;
* project-wide (:meth:`Rule.check_project`) — checks that need the whole
  class hierarchy or cross-module usage counts (cost contracts, config
  reachability, the experiment registry).

A violation can be silenced at the source line with an inline marker::

    foo = np.random.rand(3)  # staticcheck: ignore[SC301]

(``# staticcheck: ignore`` with no bracket silences every rule on that
line). Longer-lived exceptions belong in the baseline file instead — see
:mod:`repro.tools.staticcheck.baseline`.
"""

from __future__ import annotations

import abc
import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

#: Directories never scanned (build artifacts, VCS internals, caches).
SKIP_DIRS = {
    "__pycache__",
    ".git",
    ".hypothesis",
    ".pytest_cache",
    "build",
    "dist",
}

_IGNORE_RE = re.compile(r"#\s*staticcheck:\s*ignore(?:\[([A-Za-z0-9_,\s-]+)\])?")


@dataclass(frozen=True)
class Violation:
    """One diagnostic produced by a rule.

    ``fingerprint`` deliberately omits the line number so baseline entries
    survive unrelated edits that shift code up or down a file.
    """

    rule: str
    name: str
    path: str
    line: int
    col: int
    message: str

    @property
    def fingerprint(self) -> tuple[str, str, str]:
        return (self.rule, self.path, self.message)

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} [{self.name}] {self.message}"


@dataclass
class ModuleInfo:
    """One parsed source file plus the path-derived facts rules key off."""

    path: Path
    relpath: str
    tree: ast.Module
    source_lines: list[str]

    @property
    def is_test(self) -> bool:
        """Test code is exempt from the determinism rule."""
        parts = Path(self.relpath).parts
        stem = Path(self.relpath).name
        return (
            "tests" in parts
            or stem.startswith("test_")
            or stem == "conftest.py"
        )

    @property
    def is_operator_hot_path(self) -> bool:
        """Files holding the numpy operator kernels (dtype rule scope)."""
        return "core/operators" in self.relpath.replace("\\", "/")

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.source_lines):
            return self.source_lines[line - 1]
        return ""


@dataclass
class Project:
    """All parsed modules for one checker invocation."""

    root: Path
    modules: list[ModuleInfo] = field(default_factory=list)
    parse_errors: list[Violation] = field(default_factory=list)
    _analysis: "object | None" = None

    def analysis(self):
        """Whole-program analysis (index + dataflow summaries), built
        lazily on first use and shared by every SC9xx rule."""
        if self._analysis is None:
            from .dataflow import analyze_project  # local: keep engine light

            self._analysis = analyze_project(self)
        return self._analysis

    def src_modules(self) -> list[ModuleInfo]:
        """Modules under ``src/`` (library code, not tests/benchmarks)."""
        return [
            m
            for m in self.modules
            if Path(m.relpath).parts[:1] == ("src",) or "/src/" in m.relpath
        ]

    def by_relpath(self, suffix: str) -> ModuleInfo | None:
        """First module whose relative path ends with ``suffix``."""
        norm = suffix.replace("\\", "/")
        for module in self.modules:
            if module.relpath.replace("\\", "/").endswith(norm):
                return module
        return None


class Rule(abc.ABC):
    """Base class for checks. Subclasses set ``id``/``name``/``description``
    and override one (or both) of the check hooks."""

    id: str = "SC000"
    name: str = "unnamed"
    description: str = ""

    def check_module(self, module: ModuleInfo, project: Project) -> Iterator[Violation]:
        return iter(())

    def check_project(self, project: Project) -> Iterator[Violation]:
        return iter(())

    def violation(
        self, module_or_path: ModuleInfo | str, node: ast.AST | None, message: str
    ) -> Violation:
        path = (
            module_or_path.relpath
            if isinstance(module_or_path, ModuleInfo)
            else module_or_path
        )
        line = getattr(node, "lineno", 0) if node is not None else 0
        col = getattr(node, "col_offset", 0) if node is not None else 0
        return Violation(
            rule=self.id, name=self.name, path=path, line=line, col=col, message=message
        )


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Yield every ``*.py`` file under ``paths`` (files pass through)."""
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            yield path
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                parts = set(candidate.parts)
                if parts & SKIP_DIRS:
                    continue
                if any(p.endswith(".egg-info") for p in candidate.parts):
                    continue
                yield candidate


def _relativize(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def load_project(paths: Sequence[Path | str], root: Path | str | None = None) -> Project:
    """Parse every python file under ``paths`` into a :class:`Project`.

    Files that fail to parse become ``SC001 parse-error`` violations rather
    than aborting the run — a syntactically broken file must fail the check,
    not crash it.
    """
    root = Path(root) if root is not None else Path.cwd()
    project = Project(root=root)
    for file_path in iter_python_files([Path(p) for p in paths]):
        relpath = _relativize(file_path, root)
        try:
            source = file_path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(file_path))
        except (SyntaxError, UnicodeDecodeError) as exc:
            line = getattr(exc, "lineno", 0) or 0
            project.parse_errors.append(
                Violation(
                    rule="SC001",
                    name="parse-error",
                    path=relpath,
                    line=line,
                    col=0,
                    message=f"cannot parse: {exc.msg if hasattr(exc, 'msg') else exc}",
                )
            )
            continue
        project.modules.append(
            ModuleInfo(
                path=file_path,
                relpath=relpath,
                tree=tree,
                source_lines=source.splitlines(),
            )
        )
    return project


def _inline_suppressed(violation: Violation, project: Project) -> bool:
    module = next((m for m in project.modules if m.relpath == violation.path), None)
    if module is None:
        return False
    match = _IGNORE_RE.search(module.line_text(violation.line))
    if not match:
        return False
    listed = match.group(1)
    if listed is None:
        return True
    tokens = {t.strip() for t in listed.split(",")}
    return violation.rule in tokens or violation.name in tokens


def run_checks(
    project: Project, rules: Iterable[Rule]
) -> list[Violation]:
    """Run ``rules`` over ``project``; returns sorted, unsuppressed violations."""
    violations: list[Violation] = list(project.parse_errors)
    for rule in rules:
        for module in project.modules:
            violations.extend(rule.check_module(module, project))
        violations.extend(rule.check_project(project))
    violations = [v for v in violations if not _inline_suppressed(v, project)]
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations
