"""Project indexer: symbols, imports, and a conservative call graph.

The per-file rules of PR 1 cannot see across call boundaries — a ``_s``
value bound to a ``_ns`` parameter two modules away is invisible to them.
This module builds the whole-program facts the SC9xx rule family keys off:

* a **symbol table** of every function, method and class in the checked
  tree (:class:`FunctionInfo` / :class:`ClassInfo`), with parameter
  names, default kinds and unit suffixes;
* per-module **import bindings** (``import a.b as c`` / ``from .x import
  y``), resolved against the checked files so cross-module references
  land on the actual definition;
* :meth:`ProjectIndex.resolve_call` — a deliberately conservative
  resolver: exact matches through imports, local definitions and
  ``self.<method>`` first, then a name-based fallback that returns *all*
  same-named candidates so downstream rules can require agreement before
  flagging anything.

Everything here is derived from the ASTs the engine already parsed; no
code is imported or executed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ._astutil import dotted_name, unit_of_name
from .engine import ModuleInfo, Project

#: Name-based fallback resolution gives up beyond this many candidates:
#: a name that common is a generic verb, not a traceable callee.
MAX_NAME_CANDIDATES = 8


@dataclass(frozen=True)
class ParamInfo:
    """One formal parameter of an indexed function."""

    name: str
    #: "none" — default is the literal ``None``; "value" — any other
    #: default; None — the parameter is required.
    default: str | None
    kwonly: bool = False

    @property
    def unit(self) -> str | None:
        return unit_of_name(self.name)


@dataclass
class FunctionInfo:
    """One function or method definition in the checked tree."""

    relpath: str
    qualname: str  # "func" or "Class.meth"
    name: str
    lineno: int
    col: int
    params: list[ParamInfo] = field(default_factory=list)
    has_vararg: bool = False
    has_kwarg: bool = False
    class_name: str | None = None

    @property
    def key(self) -> tuple[str, str]:
        return (self.relpath, self.qualname)

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    def positional(self, skip_self: bool) -> list[ParamInfo]:
        """Positionally bindable parameters, optionally minus self/cls."""
        pos = [p for p in self.params if not p.kwonly]
        if skip_self and self.is_method and pos and pos[0].name in ("self", "cls"):
            pos = pos[1:]
        return pos

    @property
    def none_default_params(self) -> list[str]:
        return [p.name for p in self.params if p.default == "none"]


@dataclass
class ClassInfo:
    """One class definition: its methods and its None-default fields."""

    relpath: str
    name: str
    lineno: int
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: Fields that start life as ``None`` — dataclass fields declared
    #: ``x: T | None = None`` and ``self.x = <param defaulting to None>``
    #: assignments in ``__init__``. The off-switch pattern.
    none_fields: set[str] = field(default_factory=set)
    bases: tuple[str, ...] = ()


def module_dotted_name(relpath: str) -> str:
    """Importable dotted name for a checked file.

    ``src/repro/serving/faults.py`` → ``repro.serving.faults``;
    package ``__init__.py`` files name the package itself.
    """
    parts = list(relpath.replace("\\", "/").split("/"))
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return ""
    leaf = parts[-1]
    if leaf == "__init__.py":
        parts = parts[:-1]
    elif leaf.endswith(".py"):
        parts[-1] = leaf[: -len(".py")]
    return ".".join(parts)


def _default_kind(node: ast.expr | None) -> str | None:
    if node is None:
        return None
    if isinstance(node, ast.Constant) and node.value is None:
        return "none"
    return "value"


def _params_of(node: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[list[ParamInfo], bool, bool]:
    args = node.args
    params: list[ParamInfo] = []
    ordered = list(args.posonlyargs) + list(args.args)
    defaults: list[ast.expr | None] = [None] * (len(ordered) - len(args.defaults))
    defaults += list(args.defaults)
    for arg, default in zip(ordered, defaults):
        params.append(ParamInfo(name=arg.arg, default=_default_kind(default)))
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        params.append(ParamInfo(name=arg.arg, default=_default_kind(default), kwonly=True))
    return params, args.vararg is not None, args.kwarg is not None


@dataclass
class ModuleBindings:
    """Import bindings of one module: local name → what it refers to."""

    #: local alias → fully qualified module name (``import a.b as c``).
    modules: dict[str, str] = field(default_factory=dict)
    #: local name → (source module fq, symbol) (``from a import b``).
    symbols: dict[str, tuple[str, str]] = field(default_factory=dict)


class ProjectIndex:
    """Symbol table + import graph over one :class:`Project`."""

    def __init__(self) -> None:
        self.functions: dict[tuple[str, str], FunctionInfo] = {}
        self.classes_by_module: dict[str, dict[str, ClassInfo]] = {}
        self.by_bare_name: dict[str, list[FunctionInfo]] = {}
        self.bindings: dict[str, ModuleBindings] = {}
        self.dotted_to_relpath: dict[str, str] = {}

    # ------------------------------------------------------------ building

    @classmethod
    def build(cls, project: Project) -> "ProjectIndex":
        index = cls()
        for module in project.modules:
            index.dotted_to_relpath.setdefault(
                module_dotted_name(module.relpath), module.relpath
            )
        for module in project.modules:
            index._index_module(module)
        return index

    def _index_module(self, module: ModuleInfo) -> None:
        relpath = module.relpath
        self.classes_by_module[relpath] = {}
        self.bindings[relpath] = self._bindings_of(module)
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(relpath, stmt, class_name=None)
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(relpath, stmt)

    def _add_function(
        self,
        relpath: str,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        class_name: str | None,
    ) -> FunctionInfo:
        params, has_vararg, has_kwarg = _params_of(node)
        qualname = f"{class_name}.{node.name}" if class_name else node.name
        info = FunctionInfo(
            relpath=relpath,
            qualname=qualname,
            name=node.name,
            lineno=node.lineno,
            col=node.col_offset,
            params=params,
            has_vararg=has_vararg,
            has_kwarg=has_kwarg,
            class_name=class_name,
        )
        self.functions[info.key] = info
        self.by_bare_name.setdefault(node.name, []).append(info)
        return info

    def _index_class(self, relpath: str, node: ast.ClassDef) -> None:
        info = ClassInfo(
            relpath=relpath,
            name=node.name,
            lineno=node.lineno,
            bases=tuple(b for b in (dotted_name(base) for base in node.bases) if b),
        )
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods[stmt.name] = self._add_function(
                    relpath, stmt, class_name=node.name
                )
            elif (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and self._is_none_default(stmt.value)
            ):
                info.none_fields.add(stmt.target.id)
        init = info.methods.get("__init__")
        if init is not None:
            none_params = set(init.none_default_params)
            init_node = next(
                (
                    s
                    for s in node.body
                    if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and s.name == "__init__"
                ),
                None,
            )
            if init_node is not None:
                for sub in ast.walk(init_node):
                    if not isinstance(sub, ast.Assign):
                        continue
                    for target in sub.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                            and isinstance(sub.value, ast.Name)
                            and sub.value.id in none_params
                        ):
                            info.none_fields.add(target.attr)
        self.classes_by_module[relpath][node.name] = info

    @staticmethod
    def _is_none_default(value: ast.expr | None) -> bool:
        if value is None:
            return False
        if isinstance(value, ast.Constant) and value.value is None:
            return True
        # dataclasses.field(default=None)
        if isinstance(value, ast.Call):
            callee = dotted_name(value.func)
            if callee and callee.split(".")[-1] == "field":
                for kw in value.keywords:
                    if (
                        kw.arg == "default"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is None
                    ):
                        return True
        return False

    def _bindings_of(self, module: ModuleInfo) -> ModuleBindings:
        bindings = ModuleBindings()
        package = module_dotted_name(module.relpath)
        if not module.relpath.replace("\\", "/").endswith("__init__.py"):
            package = package.rpartition(".")[0]
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    bindings.modules[local] = target
            elif isinstance(node, ast.ImportFrom):
                source = self._resolve_from(node, package)
                if source is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bindings.symbols[alias.asname or alias.name] = (source, alias.name)
        return bindings

    @staticmethod
    def _resolve_from(node: ast.ImportFrom, package: str) -> str | None:
        if node.level == 0:
            return node.module
        parts = package.split(".") if package else []
        drop = node.level - 1
        if drop > len(parts):
            return None
        base = parts[: len(parts) - drop]
        if node.module:
            base.append(node.module)
        return ".".join(base) if base else None

    # ----------------------------------------------------------- resolving

    def class_in_module(self, relpath: str, name: str) -> ClassInfo | None:
        return self.classes_by_module.get(relpath, {}).get(name)

    def _function_in_dotted(self, dotted_module: str, qualname: str) -> FunctionInfo | None:
        relpath = self.dotted_to_relpath.get(dotted_module)
        if relpath is None:
            return None
        return self.functions.get((relpath, qualname))

    def _symbol_target(
        self, source: str, symbol: str, remainder: list[str]
    ) -> list[FunctionInfo]:
        """Resolve ``from source import symbol`` then ``symbol.remainder``."""
        relpath = self.dotted_to_relpath.get(source)
        if relpath is None:
            # Re-exports: `from a import b` where a is a package whose
            # __init__ re-exports b from a.b — try a.b as a module.
            return self._module_member(f"{source}.{symbol}", remainder)
        if not remainder:
            fn = self.functions.get((relpath, symbol))
            if fn is not None:
                return [fn]
            klass = self.class_in_module(relpath, symbol)
            if klass is not None:
                init = klass.methods.get("__init__")
                return [init] if init is not None else []
            # The symbol may itself be a submodule (`from repro import hw`).
            return self._module_member(f"{source}.{symbol}", remainder)
        if len(remainder) == 1:
            klass = self.class_in_module(relpath, symbol)
            if klass is not None:
                meth = klass.methods.get(remainder[0])
                return [meth] if meth is not None else []
        return self._module_member(f"{source}.{symbol}", remainder)

    def _module_member(self, dotted_module: str, remainder: list[str]) -> list[FunctionInfo]:
        """Resolve ``<module>.<remainder>`` trying ever-longer module prefixes."""
        if not remainder:
            return []
        if len(remainder) >= 1:
            fn = self._function_in_dotted(dotted_module, remainder[0])
            if fn is not None and len(remainder) == 1:
                return [fn]
            relpath = self.dotted_to_relpath.get(dotted_module)
            if relpath is not None and len(remainder) <= 2:
                klass = self.class_in_module(relpath, remainder[0])
                if klass is not None:
                    if len(remainder) == 1:
                        init = klass.methods.get("__init__")
                        return [init] if init is not None else []
                    meth = klass.methods.get(remainder[1])
                    return [meth] if meth is not None else []
        return self._module_member(
            f"{dotted_module}.{remainder[0]}", remainder[1:]
        )

    def resolve_call(
        self,
        module: ModuleInfo | str,
        dotted: str,
        class_context: str | None = None,
    ) -> tuple[list[FunctionInfo], bool]:
        """Resolve a call target to candidate definitions.

        Returns ``(candidates, exact)``. ``exact`` is True when resolution
        went through imports/local scope and the answer is authoritative;
        False for the name-based fallback, where *all* candidates sharing
        the bare name are returned and callers must require agreement.
        """
        relpath = module if isinstance(module, str) else module.relpath
        parts = dotted.split(".")
        bindings = self.bindings.get(relpath, ModuleBindings())

        # self.method() within a known class.
        if parts[0] in ("self", "cls") and class_context and len(parts) == 2:
            klass = self.class_in_module(relpath, class_context)
            if klass is not None and parts[1] in klass.methods:
                return [klass.methods[parts[1]]], True

        if parts[0] in bindings.symbols:
            source, symbol = bindings.symbols[parts[0]]
            found = self._symbol_target(source, symbol, parts[1:])
            if found:
                return found, True
        elif parts[0] in bindings.modules and len(parts) > 1:
            found = self._module_member(bindings.modules[parts[0]], parts[1:])
            if found:
                return found, True
        elif len(parts) == 1:
            fn = self.functions.get((relpath, parts[0]))
            if fn is not None:
                return [fn], True
            klass = self.class_in_module(relpath, parts[0])
            if klass is not None:
                init = klass.methods.get("__init__")
                return ([init], True) if init is not None else ([], True)

        candidates = self.by_bare_name.get(parts[-1], [])
        if 0 < len(candidates) <= MAX_NAME_CANDIDATES:
            return list(candidates), False
        return [], False

    def none_fields_for(self, relpath: str, class_name: str | None) -> set[str]:
        if class_name is None:
            return set()
        klass = self.class_in_module(relpath, class_name)
        return set(klass.none_fields) if klass is not None else set()


def build_index(project: Project) -> ProjectIndex:
    """Convenience wrapper used by :meth:`Project.analysis`."""
    return ProjectIndex.build(project)
