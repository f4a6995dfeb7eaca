"""Intraprocedural dataflow: per-function summaries.

One forward pass per function computes everything the SC9xx rules need,
conservatively and without fixpoints:

* **None-guard domination** — every attribute/call/subscript use of a
  maybe-``None`` value (a parameter defaulting to ``None``, or a
  ``self.<field>`` whose field starts life as ``None``) is recorded with
  a ``guarded`` flag. Recognized guards: ``if x is not None`` (and the
  inverted early-return form), plain truthiness tests, ``assert``,
  ``x and x.y`` short-circuits, ``x.y if x else z`` ternaries, and
  re-assignment through a normalizer (``x = x or NULL_TRACER``,
  ``self.tracer = as_tracer(tracer)``).
* **unit-tag propagation** — a tiny unit environment follows suffixes
  (``_ns``, ``_bytes``, ...) through local assignments so call-argument
  and return units reflect reaching definitions, not just spellings.
* **RNG construction sites** and whether the function already threads an
  ``rng``/``seed`` parameter.
* **call sites** with per-argument inferred units (feeding SC901 and the
  reverse call graph for SC902).
* **wall-clock calls** (``time.time``/``perf_counter``/``datetime.now``/
  ``sleep``), import-alias aware, for SC904.

Every run analyzes every file, so a verdict never depends on what an
earlier run left on disk. The analysis never executes checked code and
is written to *never raise* on any parseable input — anything it does
not understand simply widens to "unknown".
"""

from __future__ import annotations

import ast
import time
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ._astutil import dotted_name, unit_of_name
from .engine import ModuleInfo, Project
from .index import ProjectIndex, build_index

#: Wall-clock entry points (canonical dotted names) banned by SC904.
WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.sleep",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Seed-fork helpers: constructing a Generator from one of these is the
#: sanctioned way to derive an independent stream (see serving.simulator).
STABLE_SEED_PREFIX = "stable_"


# ------------------------------------------------------------- summary types


@dataclass
class CallSite:
    """One call expression inside a function body."""

    callee: str
    line: int
    col: int
    arg_units: list[str | None] = field(default_factory=list)
    kw_units: dict[str, str | None] = field(default_factory=dict)
    kw_lines: dict[str, tuple[int, int]] = field(default_factory=dict)
    has_starargs: bool = False


@dataclass
class MaybeNoneUse:
    """An attribute/call/subscript use of a maybe-None value."""

    target: str  # "faults" or "self.tracer"
    detail: str  # ".apply(...)" style description of the use
    line: int
    col: int
    guarded: bool


@dataclass
class RngConstruction:
    """A ``np.random.default_rng(...)``/``Generator(...)`` construction."""

    line: int
    col: int
    #: "literal" — hard-coded seed; "param" — seed derived from a
    #: parameter/attribute; "helper" — stable_*-seed helper call;
    #: "unseeded" — no/None seed (SC301's domain); "expr" — anything else.
    seed_kind: str


@dataclass
class WallClockCall:
    line: int
    col: int
    func: str  # canonical dotted name, e.g. "time.perf_counter"


@dataclass
class FunctionSummary:
    """Everything one forward pass learned about one function."""

    qualname: str  # "func", "Class.meth", or "<module>"
    name: str
    lineno: int
    col: int
    class_name: str | None = None
    param_units: dict[str, str] = field(default_factory=dict)
    none_default_params: list[str] = field(default_factory=list)
    return_units: list[tuple[str, int, int]] = field(default_factory=list)
    maybe_none_uses: list[MaybeNoneUse] = field(default_factory=list)
    rng_constructions: list[RngConstruction] = field(default_factory=list)
    has_rng_param: bool = False
    holds_rng: bool = False
    calls: list[CallSite] = field(default_factory=list)
    wall_clock: list[WallClockCall] = field(default_factory=list)

    @property
    def name_unit(self) -> str | None:
        return unit_of_name(self.name)


@dataclass
class ModuleSummary:
    """All function summaries of one file (plus module-level code)."""

    relpath: str
    functions: list[FunctionSummary] = field(default_factory=list)


# --------------------------------------------------------- helper predicates


_RNG_PARAM_MARKERS = ("rng", "seed")


def _is_rng_param_name(name: str) -> bool:
    lowered = name.lower()
    return any(
        lowered == marker or lowered.endswith("_" + marker) or lowered.startswith(marker + "_")
        for marker in _RNG_PARAM_MARKERS
    )


def _is_default_rng_call(dotted: str) -> bool:
    parts = dotted.split(".")
    return parts[-1] == "default_rng" or (
        len(parts) >= 2 and parts[-2] == "random" and parts[-1] == "Generator"
    )


def _wall_clock_names(tree: ast.Module) -> dict[str, str]:
    """Local dotted spellings → canonical banned wall-clock names."""
    banned: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name
                if alias.name == "time":
                    for canon in WALL_CLOCK_CALLS:
                        if canon.startswith("time."):
                            banned[local + canon[len("time"):]] = canon
                elif alias.name == "datetime":
                    for canon in WALL_CLOCK_CALLS:
                        if canon.startswith("datetime."):
                            banned[local + canon[len("datetime"):]] = canon
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "time":
                for alias in node.names:
                    canon = f"time.{alias.name}"
                    if canon in WALL_CLOCK_CALLS:
                        banned[alias.asname or alias.name] = canon
            elif node.module == "datetime":
                for alias in node.names:
                    local = alias.asname or alias.name
                    for canon in WALL_CLOCK_CALLS:
                        if canon.startswith(f"datetime.{alias.name}."):
                            suffix = canon[len(f"datetime.{alias.name}"):]
                            banned[local + suffix] = canon
    return banned


# ------------------------------------------------------------ the one pass


class _FunctionWalker:
    """Single forward pass over one function body.

    Carries two environments: the set of names currently known non-None
    (``guarded``) and a name → unit map (``units``). Nested function and
    class definitions are *not* descended into — they are analyzed as
    their own summaries, and uses of outer maybe-None names inside a
    closure run at an unknown time, so flagging them would be a false
    positive factory.
    """

    def __init__(
        self,
        summary: FunctionSummary,
        tracked: set[str],
        banned_clocks: dict[str, str],
    ) -> None:
        self.summary = summary
        self.tracked = tracked
        self.banned_clocks = banned_clocks
        self.units: dict[str, str] = dict(summary.param_units)

    # -- small expression facts

    def _tracked_key(self, node: ast.AST) -> str | None:
        if isinstance(node, ast.Name) and node.id in self.tracked:
            return node.id
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            key = f"self.{node.attr}"
            if key in self.tracked:
                return key
        return None

    def unit_of(self, node: ast.expr) -> str | None:
        """Reaching-definition-aware unit inference."""
        if isinstance(node, ast.Name):
            if node.id in self.units:
                return self.units[node.id]
            return unit_of_name(node.id)
        if isinstance(node, ast.Attribute):
            return unit_of_name(node.attr)
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            return self.unit_of(node.left) or self.unit_of(node.right)
        if isinstance(node, ast.UnaryOp):
            return self.unit_of(node.operand)
        if isinstance(node, ast.IfExp):
            body = self.unit_of(node.body)
            orelse = self.unit_of(node.orelse)
            return body if body == orelse else None
        if isinstance(node, ast.Call):
            func = dotted_name(node.func)
            if func is not None:
                leaf = func.split(".")[-1]
                if leaf in ("min", "max", "sum", "abs") and node.args:
                    known = {u for u in (self.unit_of(a) for a in node.args) if u}
                    if len(known) == 1:
                        return known.pop()
                    return None
                return unit_of_name(leaf)
        return None

    # -- narrowing from test expressions

    def _narrow(self, test: ast.expr) -> tuple[set[str], set[str]]:
        """(names non-None when test is true, names non-None when false)."""
        pos: set[str] = set()
        neg: set[str] = set()
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            left, op, right = test.left, test.ops[0], test.comparators[0]
            key = self._tracked_key(left) or self._tracked_key(right)
            if key is not None:
                right_is_none = isinstance(right, ast.Constant) and right.value is None
                left_is_none = isinstance(left, ast.Constant) and left.value is None
                if right_is_none or left_is_none:
                    if isinstance(op, (ast.IsNot, ast.NotEq)):
                        pos.add(key)
                    elif isinstance(op, (ast.Is, ast.Eq)):
                        neg.add(key)
        elif isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            p, n = self._narrow(test.operand)
            return n, p
        elif isinstance(test, ast.BoolOp):
            parts = [self._narrow(v) for v in test.values]
            if isinstance(test.op, ast.And):
                for p, _ in parts:
                    pos |= p
            else:  # Or: false only when every operand is false
                for _, n in parts:
                    neg |= n
        elif isinstance(test, ast.Call):
            func = dotted_name(test.func)
            if func is not None and func.split(".")[-1] in ("isinstance", "callable", "len"):
                for arg in test.args[:1]:
                    key = self._tracked_key(arg)
                    if key is not None:
                        pos.add(key)
        else:
            key = self._tracked_key(test)
            if key is not None:
                pos.add(key)  # plain truthiness: `if tracer:`
        return pos, neg

    # -- expression scanning (uses + calls + rng + clocks)

    def scan_expr(self, node: ast.expr | None, guarded: set[str]) -> None:
        if node is None:
            return
        self._scan(node, guarded)

    def _scan(self, node: ast.AST, guarded: set[str]) -> None:
        if isinstance(node, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(node, ast.BoolOp):
            acc = set(guarded)
            for value in node.values:
                self._scan(value, acc)
                pos, neg = self._narrow(value)
                acc |= pos if isinstance(node.op, ast.And) else neg
            return
        if isinstance(node, ast.IfExp):
            self._scan(node.test, guarded)
            pos, neg = self._narrow(node.test)
            self._scan(node.body, guarded | pos)
            self._scan(node.orelse, guarded | neg)
            return
        if isinstance(node, ast.Call):
            self._record_call(node, guarded)
            # fall through to scan children (receiver, args)
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            key = self._tracked_key(node.value)
            if key is not None:
                detail = (
                    f".{node.attr}" if isinstance(node, ast.Attribute) else "[...]"
                )
                self.summary.maybe_none_uses.append(
                    MaybeNoneUse(
                        target=key,
                        detail=detail,
                        line=node.lineno,
                        col=node.col_offset,
                        guarded=key in guarded,
                    )
                )
        if isinstance(node, ast.Compare):
            # `x.y is not None` is a use of x, but `x is not None` is the
            # guard itself — Name operands carry no attribute access.
            pass
        for child in ast.iter_child_nodes(node):
            self._scan(child, guarded)

    def _record_call(self, node: ast.Call, guarded: set[str]) -> None:
        dotted = dotted_name(node.func)
        # Calling a maybe-None value directly: `callback()` / `self.hook()`.
        key = self._tracked_key(node.func)
        if key is not None:
            self.summary.maybe_none_uses.append(
                MaybeNoneUse(
                    target=key,
                    detail="(...)",
                    line=node.lineno,
                    col=node.col_offset,
                    guarded=key in guarded,
                )
            )
        if dotted is None:
            return
        canon = self.banned_clocks.get(dotted)
        if canon is not None:
            self.summary.wall_clock.append(
                WallClockCall(line=node.lineno, col=node.col_offset, func=canon)
            )
        if _is_default_rng_call(dotted):
            self.summary.holds_rng = True
            self.summary.rng_constructions.append(
                RngConstruction(
                    line=node.lineno,
                    col=node.col_offset,
                    seed_kind=self._seed_kind(node),
                )
            )
        site = CallSite(
            callee=dotted,
            line=node.lineno,
            col=node.col_offset,
            has_starargs=any(isinstance(a, ast.Starred) for a in node.args)
            or any(kw.arg is None for kw in node.keywords),
        )
        for arg in node.args:
            site.arg_units.append(
                None if isinstance(arg, ast.Starred) else self.unit_of(arg)
            )
        for kw in node.keywords:
            if kw.arg is None:
                continue
            site.kw_units[kw.arg] = self.unit_of(kw.value)
            site.kw_lines[kw.arg] = (
                getattr(kw.value, "lineno", node.lineno),
                getattr(kw.value, "col_offset", node.col_offset),
            )
        self.summary.calls.append(site)

    def _seed_kind(self, node: ast.Call) -> str:
        if not node.args and not node.keywords:
            return "unseeded"
        seed = node.args[0] if node.args else node.keywords[0].value
        if isinstance(seed, ast.Constant):
            return "unseeded" if seed.value is None else "literal"
        if isinstance(seed, ast.Call):
            callee = dotted_name(seed.func)
            if callee is not None:
                leaf = callee.split(".")[-1]
                if leaf.startswith(STABLE_SEED_PREFIX) or leaf.endswith("_seed"):
                    return "helper"
            return "expr"
        # Any identifier/attribute in the seed expression ties it to state
        # the caller controls (a parameter, self.seed, a module constant).
        for sub in ast.walk(seed):
            if isinstance(sub, (ast.Name, ast.Attribute)):
                return "param"
        return "expr"

    # -- statements

    def visit_block(
        self, stmts: Sequence[ast.stmt], guarded: set[str]
    ) -> tuple[set[str], bool]:
        """Returns (guarded-set on fallthrough, always-terminates)."""
        g = set(guarded)
        for stmt in stmts:
            terminated = self.visit_stmt(stmt, g)
            if terminated:
                return g, True
        return g, False

    def visit_stmt(self, stmt: ast.stmt, g: set[str]) -> bool:
        """Visit one statement, mutating ``g`` in place; True if it
        unconditionally leaves the block (return/raise/break/continue)."""
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for dec in stmt.decorator_list:
                self.scan_expr(dec, g)
            return False
        if isinstance(stmt, ast.Return):
            self.scan_expr(stmt.value, g)
            if stmt.value is not None:
                unit = self.unit_of(stmt.value)
                if unit is not None:
                    self.summary.return_units.append(
                        (unit, stmt.lineno, stmt.col_offset)
                    )
            return True
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return True
        if isinstance(stmt, ast.Raise):
            self.scan_expr(stmt.exc, g)
            self.scan_expr(stmt.cause, g)
            return True
        if isinstance(stmt, ast.Assert):
            self.scan_expr(stmt.test, g)
            self.scan_expr(stmt.msg, g)
            pos, _ = self._narrow(stmt.test)
            g |= pos
            return False
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._visit_assign(stmt, g)
            return False
        if isinstance(stmt, ast.If):
            self.scan_expr(stmt.test, g)
            pos, neg = self._narrow(stmt.test)
            g_body, term_body = self.visit_block(stmt.body, g | pos)
            g_else, term_else = self.visit_block(stmt.orelse, g | neg)
            if term_body and term_else:
                return True
            if term_body:
                g |= g_else
            elif term_else:
                g |= g_body
            else:
                g |= g_body & g_else
            return False
        if isinstance(stmt, ast.While):
            self.scan_expr(stmt.test, g)
            pos, _ = self._narrow(stmt.test)
            self.visit_block(stmt.body, g | pos)
            self.visit_block(stmt.orelse, g)
            return False
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.scan_expr(stmt.iter, g)
            self.visit_block(stmt.body, g)
            self.visit_block(stmt.orelse, g)
            return False
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.scan_expr(item.context_expr, g)
            g_body, terminated = self.visit_block(stmt.body, g)
            g |= g_body
            return terminated
        if isinstance(stmt, ast.Try):
            self.visit_block(stmt.body, g)
            for handler in stmt.handlers:
                self.visit_block(handler.body, g)
            self.visit_block(stmt.orelse, g)
            g_final, terminated = self.visit_block(stmt.finalbody, g)
            g |= g_final
            return terminated
        if isinstance(stmt, ast.Match):
            self.scan_expr(stmt.subject, g)
            for case in stmt.cases:
                self.scan_expr(case.guard, g)
                self.visit_block(case.body, g)
            return False
        if isinstance(stmt, ast.Expr):
            self.scan_expr(stmt.value, g)
            return False
        # Delete, Import, Global, Nonlocal, Pass, ...
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self.scan_expr(child, g)
        return False

    def _visit_assign(
        self, stmt: ast.Assign | ast.AnnAssign | ast.AugAssign, g: set[str]
    ) -> None:
        value = stmt.value
        targets: list[ast.expr]
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        else:
            targets = [stmt.target]
        # The RHS may use maybe-None names; narrow ternary/boolop forms.
        self.scan_expr(value, g)
        if isinstance(stmt, ast.AugAssign):
            return
        if value is None:
            return
        value_unit = self.unit_of(value)
        for target in targets:
            if isinstance(target, ast.Tuple):
                continue  # tuple unpacking: give up on units and guards
            if isinstance(target, ast.Name):
                if value_unit is not None:
                    self.units[target.id] = value_unit
                else:
                    self.units.pop(target.id, None)
            key = None
            if isinstance(target, ast.Name) and target.id in self.tracked:
                key = target.id
            elif (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and f"self.{target.attr}" in self.tracked
            ):
                key = f"self.{target.attr}"
            if key is None:
                continue
            if self._still_maybe_none(value, key):
                g.discard(key)
            else:
                g.add(key)

    def _still_maybe_none(self, value: ast.expr, key: str) -> bool:
        """True if assigning ``value`` leaves ``key`` possibly None."""
        if isinstance(value, ast.Constant):
            return value.value is None
        value_key = self._tracked_key(value)
        if value_key is not None:
            # Aliasing another maybe-None (including `x = x`).
            return True
        if isinstance(value, ast.IfExp):
            return self._still_maybe_none(value.body, key) or self._still_maybe_none(
                value.orelse, key
            )
        if isinstance(value, ast.BoolOp) and isinstance(value.op, ast.Or):
            # `x or DEFAULT` is None only if the last operand can be.
            return self._still_maybe_none(value.values[-1], key)
        if isinstance(value, (ast.Name, ast.Attribute)):
            # Unknown other name: could be anything — stay conservative
            # only for plain None-y constructs; a fresh name is assumed
            # meaningful (matches `x = x or NULL_TRACER` and factory
            # assignments without drowning real guards in noise).
            return False
        return False


# --------------------------------------------------------------- module pass


def analyze_module(module: ModuleInfo, index: ProjectIndex) -> ModuleSummary:
    """Summarize every function in one parsed file (plus module level)."""
    summary = ModuleSummary(relpath=module.relpath)
    banned_clocks = _wall_clock_names(module.tree)

    def walk_body(
        body: Sequence[ast.stmt], class_name: str | None
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                summary.functions.append(
                    _analyze_function(stmt, module, index, class_name, banned_clocks)
                )
                # Nested defs get their own (flat) summaries.
                walk_body(stmt.body, class_name=None)
            elif isinstance(stmt, ast.ClassDef):
                walk_body(stmt.body, class_name=stmt.name if class_name is None else None)

    walk_body(module.tree.body, class_name=None)

    # Module-level statements (import-time code) as a pseudo-function.
    top = FunctionSummary(qualname="<module>", name="<module>", lineno=1, col=0)
    top_level = [
        stmt
        for stmt in module.tree.body
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    walker = _FunctionWalker(top, tracked=set(), banned_clocks=banned_clocks)
    walker.visit_block(top_level, set())
    summary.functions.append(top)
    return summary


def _analyze_function(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    module: ModuleInfo,
    index: ProjectIndex,
    class_name: str | None,
    banned_clocks: dict[str, str],
) -> FunctionSummary:
    qualname = f"{class_name}.{node.name}" if class_name else node.name
    info = index.functions.get((module.relpath, qualname))
    summary = FunctionSummary(
        qualname=qualname,
        name=node.name,
        lineno=node.lineno,
        col=node.col_offset,
        class_name=class_name,
    )
    tracked: set[str] = set()
    if info is not None:
        for param in info.params:
            unit = param.unit
            if unit is not None:
                summary.param_units[param.name] = unit
            if param.default == "none":
                summary.none_default_params.append(param.name)
                tracked.add(param.name)
            if _is_rng_param_name(param.name):
                summary.has_rng_param = True
                summary.holds_rng = True
        for none_field in index.none_fields_for(module.relpath, class_name):
            tracked.add(f"self.{none_field}")
    else:
        # Nested function: derive params straight from the AST node.
        args = list(node.args.posonlyargs) + list(node.args.args) + list(node.args.kwonlyargs)
        for arg in args:
            unit = unit_of_name(arg.arg)
            if unit is not None:
                summary.param_units[arg.arg] = unit
            if _is_rng_param_name(arg.arg):
                summary.has_rng_param = True
                summary.holds_rng = True
        defaults = node.args.defaults
        positional = list(node.args.posonlyargs) + list(node.args.args)
        for arg, default in zip(positional[len(positional) - len(defaults):], defaults):
            if isinstance(default, ast.Constant) and default.value is None:
                summary.none_default_params.append(arg.arg)
                tracked.add(arg.arg)
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if isinstance(default, ast.Constant) and default.value is None:
                summary.none_default_params.append(arg.arg)
                tracked.add(arg.arg)

    walker = _FunctionWalker(summary, tracked=tracked, banned_clocks=banned_clocks)
    walker.visit_block(node.body, set())
    return summary


# ------------------------------------------------------------ whole program


@dataclass
class WholeProgramAnalysis:
    """Index + summaries + reverse call graph for one checker run."""

    index: ProjectIndex
    summaries: dict[str, ModuleSummary]
    index_seconds: float = 0.0
    dataflow_seconds: float = 0.0
    _callers: dict[tuple[str, str], list[tuple[str, FunctionSummary]]] | None = None

    def iter_summaries(self) -> Iterator[tuple[str, FunctionSummary]]:
        for relpath in sorted(self.summaries):
            for fn in self.summaries[relpath].functions:
                yield relpath, fn

    def callers_of(self, relpath: str, qualname: str) -> list[tuple[str, FunctionSummary]]:
        """Functions whose resolved call sites reach (relpath, qualname)."""
        if self._callers is None:
            callers: dict[tuple[str, str], list[tuple[str, FunctionSummary]]] = {}
            for caller_relpath, fn in self.iter_summaries():
                class_ctx = fn.class_name
                seen: set[tuple[str, str]] = set()
                for site in fn.calls:
                    candidates, _ = self.index.resolve_call(
                        caller_relpath, site.callee, class_context=class_ctx
                    )
                    for target in candidates:
                        if target.key in seen:
                            continue
                        seen.add(target.key)
                        callers.setdefault(target.key, []).append((caller_relpath, fn))
            self._callers = callers
        return self._callers.get((relpath, qualname), [])


def analyze_project(project: Project) -> WholeProgramAnalysis:
    """Build the whole-program analysis every SC9xx rule shares."""
    t0 = time.perf_counter()
    index = build_index(project)
    t1 = time.perf_counter()
    summaries = {
        module.relpath: analyze_module(module, index) for module in project.modules
    }
    t2 = time.perf_counter()
    return WholeProgramAnalysis(
        index=index,
        summaries=summaries,
        index_seconds=t1 - t0,
        dataflow_seconds=t2 - t1,
    )
