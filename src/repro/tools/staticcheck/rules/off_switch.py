"""SC903 off-switch-purity: maybe-None off-switches need a dominating guard.

The ROADMAP's standing guardrail is that every optional subsystem —
``faults=None``, ``overload=None``, ``tracer=None``, ``metrics=None``,
``nmp=None`` — leaves runs bit-identical to baselines when off.
The failure mode is not a wrong number but a crash on the *off* path: an
unguarded ``self.tracer.begin(...)`` works in every traced test and
raises ``AttributeError`` the first time someone runs the default
configuration. Goldens cannot catch it, because the golden run usually
is the configuration that crashes.

The dataflow layer records every attribute access, call or subscript on

* a parameter whose default is ``None``, and
* a ``self.<field>`` whose field starts life as ``None`` (dataclass
  ``x: T | None = None`` or ``self.x = <param defaulting to None>``),

together with whether a None-guard dominates it. Recognized guards:
``if x is not None:`` (and the ``if x is None: return`` early-exit
form), plain truthiness, ``assert x is not None``, ``x and x.use()``
short-circuits, ``x.use() if x else ...`` ternaries, and re-assignment
through a normalizer (``x = x or NULL_TRACER``, ``self.tracer =
as_tracer(tracer)``). Anything not dominated is flagged. Test modules
are exempt — fixtures pass stand-ins that are never None.
"""

from __future__ import annotations

from typing import Iterator

from ..engine import ModuleInfo, Project, Rule, Violation


class OffSwitchPurityRule(Rule):
    id = "SC903"
    name = "off-switch-purity"
    description = (
        "attribute/call use of a None-default parameter or field must be "
        "dominated by a None-guard (if x is not None / x = x or NULL_...)"
    )

    def check_project(self, project: Project) -> Iterator[Violation]:
        analysis = project.analysis()
        modules = {m.relpath: m for m in project.modules}
        for relpath, fn in analysis.iter_summaries():
            module = modules.get(relpath)
            if module is None or module.is_test:
                continue
            for use in fn.maybe_none_uses:
                if use.guarded:
                    continue
                origin = (
                    "field" if use.target.startswith("self.") else "parameter"
                )
                bare = use.target.split(".")[-1]
                yield Violation(
                    rule=self.id,
                    name=self.name,
                    path=relpath,
                    line=use.line,
                    col=use.col,
                    message=(
                        f"{fn.qualname}() uses {use.target}{use.detail} but "
                        f"{origin} {bare!r} defaults to None and no None-guard "
                        "dominates this use; guard it (if x is not None / early "
                        "return) or normalize once (x = x or NULL_...)"
                    ),
                )
