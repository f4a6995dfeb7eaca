"""Small AST helpers shared by the rules."""

from __future__ import annotations

import ast


def dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute/name chains as a string, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def names_in(node: ast.AST) -> set[str]:
    """Every bare identifier referenced anywhere inside ``node``.

    ``self.x`` contributes both ``self`` and the attribute name ``x`` so
    data-flow checks can follow instance attributes by name.
    """
    found: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def contains_mult(node: ast.AST) -> bool:
    """True if any multiplication appears inside ``node``."""
    return any(
        isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mult)
        for sub in ast.walk(node)
    )


def call_keyword(call: ast.Call, name: str) -> ast.expr | None:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def decorator_names(node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef) -> set[str]:
    names: set[str] = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        dotted = dotted_name(target)
        if dotted:
            names.add(dotted.split(".")[-1])
    return names


def is_constant_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


#: Unit vocabulary shared by SC201 (per-file) and SC901 (interprocedural).
TIME_UNITS = {"ns", "us", "ms", "s", "sec", "seconds"}
SIZE_UNITS = {"bytes", "kb", "mb", "gb", "tb", "kib", "mib", "gib"}
UNIT_SUFFIXES = TIME_UNITS | SIZE_UNITS

#: Spelling variants of the same unit (``elapsed_seconds`` == ``elapsed_s``).
_UNIT_ALIASES = {"sec": "s", "seconds": "s"}


def unit_of_name(name: str) -> str | None:
    """Canonical unit suffix carried by an identifier, or ``None``.

    Rates (``bytes_per_s``, ``per_s``) are not unit-suffixed quantities,
    and alias spellings collapse (``_seconds``/``_sec`` → ``s``) so the
    same physical unit never reads as a mix.
    """
    lowered = name.lower()
    if "_per_" in lowered or lowered.startswith("per_"):
        return None
    suffix = lowered.rsplit("_", 1)[-1] if "_" in lowered else None
    if suffix in UNIT_SUFFIXES:
        return _UNIT_ALIASES.get(suffix, suffix)
    return None
