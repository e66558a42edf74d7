"""fasealint core: file contexts, rule registry, dispatch, pragmas.

The engine parses each Python file **once** into a :class:`FileContext`
(AST + parent map + pragma index) and then runs every applicable rule
over a **single walk** of the tree: rules declare interest in node
types by defining ``visit_<NodeType>`` methods, and the engine
dispatches each node to every interested rule.  Rules may also
implement ``prepare`` (a pre-pass over the whole tree, e.g. to collect
import aliases) and ``finish`` (emit violations that need whole-file
context).

Suppression works at two granularities:

* ``# fasealint: disable=FAS001,FAS003`` on a line suppresses those
  rules for violations reported *on that line*;
* ``# fasealint: disable-file=FAS008`` anywhere in a file suppresses
  the rules for the whole file;
* ``all`` is accepted in place of a rule list.

Violations are returned sorted by ``(path, line, col, rule_id)`` so
reports — including the golden JSON fixtures under
``tests/fixtures/lint/`` — are stable across runs and platforms.
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

#: Rule id used for files the engine itself cannot process (syntax or
#: encoding errors).  Not a registered rule: it cannot be suppressed.
PARSE_ERROR_ID = "FAS000"

_PRAGMA_RE = re.compile(
    r"#\s*fasealint:\s*(?P<kind>disable|disable-file)\s*=\s*(?P<rules>[A-Za-z0-9_,\s]+)"
)


@dataclass(frozen=True, order=True)
class Violation:
    """One rule hit at a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }


@dataclass(frozen=True)
class LintConfig:
    """Which rules run and rule-specific knobs.

    ``select`` limits the run to the given rule ids (``None`` = all
    registered rules); ``ignore`` then removes ids from that set.
    ``rng_whitelist`` holds path suffixes (POSIX style) of modules
    allowed to touch global RNG state — e.g. a ``conftest.py`` wiring
    test determinism.
    """

    select: Optional[Tuple[str, ...]] = None
    ignore: Tuple[str, ...] = ()
    rng_whitelist: Tuple[str, ...] = ()


class FileContext:
    """Everything the rules need to know about one parsed file."""

    def __init__(self, path: Path, display_path: str, source: str) -> None:
        self.path = path
        self.display_path = display_path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        self.parents: Dict[ast.AST, ast.AST] = {}
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node
        self.line_pragmas, self.file_pragmas = _collect_pragmas(source)
        self._extend_pragmas_over_decorators()
        parts = path.with_suffix("").parts
        self.path_parts: Tuple[str, ...] = path.parts
        self.module_parts: Tuple[str, ...] = (
            parts[parts.index("src") + 1 :] if "src" in parts else parts
        )

    # ------------------------------------------------------------------
    # Helpers shared by rules
    # ------------------------------------------------------------------
    @property
    def is_src(self) -> bool:
        """True for production modules (under a ``src`` dir or ``repro``)."""
        return "src" in self.path_parts or (
            bool(self.module_parts) and self.module_parts[0] == "repro"
        )

    def in_package(self, *suffix: str) -> bool:
        """True when the module lives under the given package path,
        e.g. ``ctx.in_package("repro", "linalg")``."""
        return self.module_parts[: len(suffix)] == suffix

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        """Nearest enclosing function/async-function def, if any."""
        current = self.parents.get(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return current
            current = self.parents.get(current)
        return None

    def _extend_pragmas_over_decorators(self) -> None:
        """Let decorator-line pragmas cover the decorated statement.

        Several rules report on the ``def``/``class`` line of a decorated
        definition, but the natural place to write the pragma is next to
        the decorator that makes the pattern necessary.  A ``disable=``
        pragma on any decorator line therefore also suppresses rules on
        the decorated definition's own line.
        """
        for node in ast.walk(self.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            carried: Set[str] = set()
            for decorator in node.decorator_list:
                last = getattr(decorator, "end_lineno", None) or decorator.lineno
                for line in range(decorator.lineno, last + 1):
                    carried |= self.line_pragmas.get(line, set())
            if carried:
                self.line_pragmas.setdefault(node.lineno, set()).update(carried)

    def is_suppressed(self, violation: Violation) -> bool:
        if violation.rule_id == PARSE_ERROR_ID:
            return False
        if _matches(self.file_pragmas, violation.rule_id):
            return True
        return _matches(self.line_pragmas.get(violation.line, set()), violation.rule_id)


def _matches(pragmas: Set[str], rule_id: str) -> bool:
    return "all" in pragmas or rule_id in pragmas


def _collect_pragmas(source: str) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Map line -> suppressed rule ids, plus file-wide suppressions.

    Pragmas are read from real comment tokens (not string literals), so
    documentation *about* pragmas never suppresses anything.
    """
    line_pragmas: Dict[int, Set[str]] = {}
    file_pragmas: Set[str] = set()
    lines = iter(source.splitlines(keepends=True))
    try:
        tokens = list(tokenize.generate_tokens(lambda: next(lines, "")))
    except tokenize.TokenError:  # unterminated strings etc.: no pragmas
        return line_pragmas, file_pragmas
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _PRAGMA_RE.search(token.string)
        if match is None:
            continue
        rules = {part.strip() for part in match.group("rules").split(",") if part.strip()}
        if match.group("kind") == "disable-file":
            file_pragmas |= rules
        else:
            line_pragmas.setdefault(token.start[0], set()).update(rules)
    return line_pragmas, file_pragmas


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
class Rule:
    """Base class for fasealint rules.

    Subclasses set ``rule_id``/``summary`` and implement any of:

    ``applies_to(ctx)``
        Gate the rule per file (path-scoped rules like FAS007/FAS008).
    ``prepare(ctx)``
        Pre-pass before dispatch (collect imports, module bindings).
    ``visit_<NodeType>(node, ctx)``
        Called for every matching node during the single engine walk;
        returns an iterable of :class:`Violation` (or ``None``).
    ``finish(ctx)``
        Emit whole-file violations after the walk.
    """

    rule_id: str = ""
    summary: str = ""

    def __init__(self, config: Optional[LintConfig] = None) -> None:
        self.config = config if config is not None else LintConfig()

    def applies_to(self, ctx: FileContext) -> bool:
        return True

    def prepare(self, ctx: FileContext) -> None:
        return None

    def finish(self, ctx: FileContext) -> Iterable[Violation]:
        return ()

    # Convenience for subclasses.
    def violation(self, ctx: FileContext, node: ast.AST, message: str) -> Violation:
        return Violation(
            path=ctx.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            message=message,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} must define rule_id")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def registered_rules() -> Dict[str, Type[Rule]]:
    """Rule id -> rule class for every registered rule (import-complete)."""
    # Importing the rules module populates the registry exactly once.
    from repro.devtools.lint import rules as _rules  # noqa: F401

    return dict(_REGISTRY)


def resolve_rules(config: LintConfig) -> List[Rule]:
    """Instantiate the rules enabled by ``config`` (stable id order)."""
    registry = registered_rules()
    if config.select is not None:
        unknown = [rule_id for rule_id in config.select if rule_id not in registry]
        if unknown:
            raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    unknown = [rule_id for rule_id in config.ignore if rule_id not in registry]
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    chosen = set(config.select) if config.select is not None else set(registry)
    chosen -= set(config.ignore)
    return [registry[rule_id](config) for rule_id in sorted(chosen)]


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
def _handler_table(rules: Sequence[Rule]) -> Dict[str, List[Tuple[Rule, object]]]:
    table: Dict[str, List[Tuple[Rule, object]]] = {}
    for rule in rules:
        for name in dir(rule):
            if name.startswith("visit_"):
                table.setdefault(name[len("visit_") :], []).append(
                    (rule, getattr(rule, name))
                )
    return table


def run_rules(ctx: FileContext, rules: Sequence[Rule]) -> List[Violation]:
    """Single-pass dispatch of ``rules`` over ``ctx`` (pragma-filtered)."""
    active = [rule for rule in rules if rule.applies_to(ctx)]
    for rule in active:
        rule.prepare(ctx)
    table = _handler_table(active)
    violations: List[Violation] = []
    for node in ast.walk(ctx.tree):
        for _rule, handler in table.get(type(node).__name__, ()):
            result = handler(node, ctx)
            if result:
                violations.extend(result)
    for rule in active:
        violations.extend(rule.finish(ctx))
    return sorted(v for v in violations if not ctx.is_suppressed(v))


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def lint_file(
    path: "str | Path",
    config: Optional[LintConfig] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Violation]:
    """Lint one file; parse failures surface as a FAS000 violation."""
    config = config or LintConfig()
    display = str(path)
    path = Path(path)
    try:
        source = path.read_text(encoding="utf-8")
        ctx = FileContext(path, display, source)
    except (SyntaxError, UnicodeDecodeError, ValueError) as error:
        line = getattr(error, "lineno", None) or 1
        col = getattr(error, "offset", None) or 0
        return [
            Violation(
                path=display,
                line=int(line),
                col=int(col),
                rule_id=PARSE_ERROR_ID,
                message=f"could not parse file: {error}",
            )
        ]
    return run_rules(ctx, list(rules) if rules is not None else resolve_rules(config))


def iter_python_files(paths: Sequence["str | Path"]) -> Iterator[Path]:
    """Yield ``.py`` files under ``paths`` in sorted order, skipping
    caches, egg-info and hidden directories."""
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        for candidate in sorted(path.rglob("*.py")):
            parts = candidate.parts
            if any(
                part == "__pycache__" or part.endswith(".egg-info") or part.startswith(".")
                for part in parts[:-1]
            ):
                continue
            yield candidate


def _lint_one_path(payload: Tuple[str, LintConfig]) -> List[Violation]:
    """Parallel work unit: lint a single file.

    Module-level by FAS006's own contract — it is pickled by reference
    when ``fasea lint --jobs N`` fans files out over ``repro.parallel``.
    """
    path, config = payload
    return lint_file(path, config)


def lint_paths(
    paths: Sequence["str | Path"],
    config: Optional[LintConfig] = None,
    jobs: Optional[int] = None,
) -> List[Violation]:
    """Lint every Python file under ``paths`` (files or directories).

    ``jobs`` fans per-file work units out over
    :func:`repro.parallel.run_work_units`; results are merged in
    submission order and globally sorted, so the output is byte-identical
    to the serial path for every worker count.
    """
    config = config or LintConfig()
    files = list(iter_python_files(paths))
    violations: List[Violation] = []
    parallel = jobs is not None and jobs != 1
    if parallel:
        from repro.parallel import resolve_jobs, run_work_units

        resolve_jobs(jobs)  # a negative count fails even for one file
    if parallel and len(files) > 1:
        units = [(str(path), config) for path in files]
        for batch in run_work_units(_lint_one_path, units, jobs=jobs):
            violations.extend(batch)
    else:
        for path in files:
            # Rules keep only per-file state (reset in ``prepare``), but a
            # fresh instantiation per file makes that a non-issue by design.
            violations.extend(lint_file(path, config, rules=resolve_rules(config)))
    return sorted(violations)


@dataclass
class LintReport:
    """Aggregated result of a lint run (used by the CLI and tests)."""

    violations: List[Violation] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.violations)

    @property
    def by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.rule_id] = counts.get(violation.rule_id, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def ok(self) -> bool:
        return not self.violations
