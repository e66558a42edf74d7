"""The whole-program rule catalogue (FAS011-FAS014).

Each rule consumes the :class:`~repro.devtools.analyze.graph.ProjectGraph`
plus the dataflow passes and emits plain fasealint
:class:`~repro.devtools.lint.engine.Violation` records, so the existing
text/JSON reporters render them unchanged.

Messages deliberately contain **no line numbers**: the violation record
carries the location.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Type

from repro.devtools.analyze.dataflow import (
    IMPURITY_KINDS,
    compute_impurity,
    compute_taint,
    impurity_message,
    reachable_from,
    witness_chain,
)
from repro.devtools.analyze.graph import ModuleSummary, ProjectGraph
from repro.devtools.lint.engine import Violation


@dataclass(frozen=True)
class AnalyzeConfig:
    """Knobs for the whole-program passes.

    ``select``/``ignore`` filter the rule set like the lint engine's
    config.  ``deterministic_components`` names module-path components
    that mark reward/selection code (the deterministic paths FAS013
    guards); ``exempt_prefixes`` are sanctioned side-effect packages
    FAS012 does not descend into; ``entry_module_names`` are the module
    basenames whose symbols root the FAS014 reachability sweep;
    ``extra_roots`` adds fully-qualified symbols (e.g. names imported by
    the test suite) to those roots.
    """

    select: Optional[Tuple[str, ...]] = None
    ignore: Tuple[str, ...] = ()
    deterministic_components: Tuple[str, ...] = (
        "bandits",
        "oracle",
        "selection",
        "reward",
        "simulation",
        "baselines",
        "extensions",
        "analysis",
        "mab",
    )
    exempt_prefixes: Tuple[str, ...] = ("repro.obs",)
    entry_module_names: Tuple[str, ...] = ("cli", "__main__")
    extra_roots: Tuple[str, ...] = ()

    #: Submission entry points whose first argument is a work unit.
    work_unit_entry_points: Tuple[str, ...] = ("run_work_units",)


class AnalyzeRule:
    """Base class: one whole-program pass emitting violations."""

    rule_id: str = ""
    summary: str = ""

    def __init__(self, config: AnalyzeConfig) -> None:
        self.config = config

    def check(self, graph: ProjectGraph) -> List[Violation]:
        raise NotImplementedError

    def violation(
        self, summary: ModuleSummary, lineno: int, col: int, message: str
    ) -> Optional[Violation]:
        if summary.is_suppressed(self.rule_id, lineno):
            return None
        return Violation(
            path=summary.path,
            line=lineno,
            col=col,
            rule_id=self.rule_id,
            message=message,
        )


_ANALYZE_REGISTRY: Dict[str, Type[AnalyzeRule]] = {}


def register(cls: Type[AnalyzeRule]) -> Type[AnalyzeRule]:
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} must define rule_id")
    if cls.rule_id in _ANALYZE_REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _ANALYZE_REGISTRY[cls.rule_id] = cls
    return cls


def registered_analyze_rules() -> Dict[str, Type[AnalyzeRule]]:
    """Rule id -> class for the whole-program catalogue."""
    return dict(_ANALYZE_REGISTRY)


def resolve_analyze_rules(config: AnalyzeConfig) -> List[AnalyzeRule]:
    """Instantiate the rules enabled by ``config`` (stable id order)."""
    registry = registered_analyze_rules()
    for rule_id in tuple(config.select or ()) + tuple(config.ignore):
        if rule_id not in registry:
            raise ValueError(f"unknown rule id(s): {rule_id}")
    chosen = set(config.select) if config.select is not None else set(registry)
    chosen -= set(config.ignore)
    return [registry[rule_id](config) for rule_id in sorted(chosen)]


# ----------------------------------------------------------------------
# FAS011 — transitive RNG consumers must thread rng/seed
# ----------------------------------------------------------------------
@register
class RngTaintRule(AnalyzeRule):
    """Public entry paths that transitively consume randomness must
    expose an ``rng``/``seed``-like parameter.

    FAS002 checks the function that *builds* a generator; this closes
    the cross-module hole: a public function whose callee three modules
    away constructs uncontrolled randomness is just as non-replayable,
    and only the call graph can see it.
    """

    rule_id = "FAS011"
    summary = "public entry paths thread rng/seed through transitive RNG use"

    def check(self, graph: ProjectGraph) -> List[Violation]:
        taint = compute_taint(graph)
        violations: List[Violation] = []
        for qualname, function in graph.public_functions():
            info = taint[qualname]
            if not info.tainted or function.has_seed_param:
                continue
            summary = graph.module_of(qualname)
            kind = "method" if function.class_name else "function"
            message = (
                f"public {kind} {graph.display_name(qualname)!r} transitively "
                f"consumes randomness via {witness_chain(info.witness)} but "
                "exposes no rng/seed parameter; thread a generator or seed "
                "through this entry path"
            )
            found = self.violation(summary, function.lineno, function.col, message)
            if found is not None:
                violations.append(found)
        return violations


# ----------------------------------------------------------------------
# FAS012 — parallel work units must be transitively pure
# ----------------------------------------------------------------------
@register
class WorkUnitPurityRule(AnalyzeRule):
    """Callables submitted to ``repro.parallel`` executors must be
    transitively free of global-state mutation, wall-clock reads and
    ``print``: any of those makes the merged output depend on worker
    scheduling, which breaks the bit-for-bit ``--jobs N`` contract.
    """

    rule_id = "FAS012"
    summary = "parallel work units are transitively pure (no globals/clock/print)"

    def check(self, graph: ProjectGraph) -> List[Violation]:
        impurity = compute_impurity(graph, self.config.exempt_prefixes)
        entry_tails = frozenset(self.config.work_unit_entry_points)
        violations: List[Violation] = []
        for caller in sorted(graph.call_edges):
            summary = graph.module_of(caller)
            caller_fn = graph.functions[caller]
            for edge in graph.call_edges[caller]:
                if edge.target.split(".")[-1] not in entry_tails:
                    continue
                if edge.site.first_arg is None:
                    continue
                work = graph.resolve_call(summary, caller_fn, edge.site.first_arg)
                if work is None:
                    continue
                info = impurity.get(work)
                if info is None or not info.impure:
                    continue
                for kind in IMPURITY_KINDS:
                    if kind not in info.kinds:
                        continue
                    message = (
                        f"work unit {graph.display_name(work)!r} submitted to "
                        f"{edge.target.split('.')[-1]} "
                        f"{impurity_message(kind, info.kinds[kind])}; parallel "
                        "work units must be transitively pure"
                    )
                    found = self.violation(
                        summary, edge.site.lineno, edge.site.col, message
                    )
                    if found is not None:
                        violations.append(found)
        return violations


# ----------------------------------------------------------------------
# FAS013 — no unordered iteration on deterministic paths
# ----------------------------------------------------------------------
@register
class UnorderedIterationRule(AnalyzeRule):
    """Iterating a ``set``/``frozenset`` (or set-algebra result) in code
    reachable from reward/selection entry points makes tie-breaks and
    accumulation order depend on hash seeding; wrap the iterable in
    ``sorted(...)``.  Dict views keep insertion order on the supported
    interpreters and are deliberately not flagged.
    """

    rule_id = "FAS013"
    summary = "no unordered set iteration on reward/selection paths"

    def _is_deterministic_module(self, module: str) -> bool:
        components = module.split(".")
        return any(
            component in self.config.deterministic_components
            for component in components
        )

    def check(self, graph: ProjectGraph) -> List[Violation]:
        roots = [
            qualname
            for qualname, function in graph.public_functions()
            if self._is_deterministic_module(graph.owning_module[qualname])
        ]
        origin = reachable_from(graph, roots, use_calls=True, use_refs=False)
        violations: List[Violation] = []
        for qualname in sorted(origin):
            function = graph.functions.get(qualname)
            if function is None or not function.set_iterations:
                continue
            summary = graph.module_of(qualname)
            root = origin[qualname]
            for site in function.set_iterations:
                via = (
                    ""
                    if root == qualname
                    else f" (reached from {graph.display_name(root)!r})"
                )
                message = (
                    f"iteration over a {site.detail} in "
                    f"{graph.display_name(qualname)!r} lies on a deterministic "
                    f"reward/selection path{via}; wrap it in sorted(...)"
                )
                found = self.violation(summary, site.lineno, site.col, message)
                if found is not None:
                    violations.append(found)
        return violations


# ----------------------------------------------------------------------
# FAS014 — dead exports
# ----------------------------------------------------------------------
@register
class DeadExportRule(AnalyzeRule):
    """Public module-level symbols unreachable from the CLI modules,
    any ``__all__`` export list, module bodies, or the extra roots (the
    test/benchmark/example import surface) are dead weight: they rot
    unreviewed and widen the determinism audit surface for free.
    Decorated definitions are exempt (decorators register side-effects
    the graph cannot see).
    """

    rule_id = "FAS014"
    summary = "no dead exports: public symbols reachable from entry points"

    def _roots(self, graph: ProjectGraph) -> List[str]:
        roots: List[str] = []
        for module, summary in sorted(graph.modules.items()):
            basename = module.split(".")[-1] if module else module
            # Module bodies run at import time: their references root
            # registry tables and other import-time wiring.
            roots.append(f"<module>:{module}")
            if basename in self.config.entry_module_names:
                for function in summary.functions:
                    roots.append(ProjectGraph.qualname_of(summary, function))
                for klass in summary.classes:
                    roots.append(f"{module}.{klass.name}")
            for name in summary.all_exports or []:
                resolved = graph.resolve_global(f"{module}.{name}")
                if resolved is not None:
                    roots.append(resolved)
            # Decorated definitions are registration sites the graph
            # cannot see through — treat them as externally reachable.
            for function in summary.functions:
                if function.decorated and function.class_name is None:
                    roots.append(ProjectGraph.qualname_of(summary, function))
            for klass in summary.classes:
                if klass.decorated:
                    roots.append(f"{module}.{klass.name}")
        for extra in self.config.extra_roots:
            resolved = graph.resolve_global(extra)
            if resolved is not None:
                roots.append(resolved)
        return roots

    def check(self, graph: ProjectGraph) -> List[Violation]:
        origin = reachable_from(
            graph, self._roots(graph), use_calls=True, use_refs=True
        )
        violations: List[Violation] = []
        for module, summary in sorted(graph.modules.items()):
            basename = module.split(".")[-1] if module else module
            if basename in self.config.entry_module_names:
                continue
            candidates: List[Tuple[str, int, int, bool, str]] = []
            for function in summary.functions:
                if function.class_name is not None or not function.is_public:
                    continue
                if function.decorated:
                    continue
                qualname = ProjectGraph.qualname_of(summary, function)
                candidates.append(
                    (qualname, function.lineno, function.col, False, function.name)
                )
            for klass in summary.classes:
                if not klass.is_public or klass.decorated:
                    continue
                candidates.append(
                    (f"{module}.{klass.name}", klass.lineno, klass.col, True, klass.name)
                )
            for qualname, lineno, col, is_class, name in candidates:
                if qualname in origin:
                    continue
                kind = "class" if is_class else "function"
                message = (
                    f"public {kind} {name!r} is unreachable from the CLI, any "
                    "__all__ list, module bodies or the configured entry "
                    "roots; delete it or export it deliberately"
                )
                found = self.violation(summary, lineno, col, message)
                if found is not None:
                    violations.append(found)
        return violations


def run_rules(graph: ProjectGraph, config: AnalyzeConfig) -> List[Violation]:
    """Run every enabled whole-program rule; sorted, parse errors first."""
    from repro.devtools.lint.engine import PARSE_ERROR_ID

    violations: List[Violation] = []
    for summary in graph.modules.values():
        if summary.parse_error is not None:
            violations.append(
                Violation(
                    path=summary.path,
                    line=summary.parse_error.lineno,
                    col=summary.parse_error.col,
                    rule_id=PARSE_ERROR_ID,
                    message=summary.parse_error.detail,
                )
            )
    for rule in resolve_analyze_rules(config):
        violations.extend(rule.check(graph))
    return sorted(violations)
