"""Project-wide parse layer for the whole-program analyzer.

Every Python file under the analyzed roots is parsed **once** (reusing
the fasealint :class:`~repro.devtools.lint.engine.FileContext`) into a
plain-data :class:`ModuleSummary`: symbols, imports, ``__all__``, the
per-function facts the dataflow passes need (RNG-factory calls,
global-state mutation, wall-clock reads, ``print`` calls, unordered
iteration sites) and the raw call/reference expressions.

On top of the summaries, :class:`ProjectGraph` builds the whole-program
symbol table and resolves raw call/reference expressions into
fully-qualified symbol names: ``from``-import aliases are chased across
modules (so package ``__init__`` re-exports resolve to the defining
module), ``self.method()`` resolves through class-local lookup (one
level of project-resolvable bases included), and class instantiation
resolves to ``__init__``.  The result is an *approximate* call graph —
attribute calls on arbitrary objects are not typed — that is
deterministic: every iteration order is sorted.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.devtools.lint.engine import FileContext, iter_python_files
from repro.devtools.lint.rules import _RNG_FACTORIES, _SEED_NAME_RE, _dotted_name

#: Fully-qualified wall-clock reads (module attribute chains after
#: import-alias resolution).
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.clock",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Callables that return their argument's elements in arbitrary order.
_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})
#: Wrappers that preserve their argument's (arbitrary) element order.
_ORDER_TRANSPARENT = frozenset({"list", "tuple", "enumerate", "reversed", "iter"})
#: Wrappers that impose a deterministic order (or reduce away order).
_ORDER_DISCHARGING = frozenset({"sorted", "min", "max", "sum", "len", "any", "all"})


@dataclass
class CallSite:
    """One call expression inside a function body."""

    callee: str  #: raw dotted expression, e.g. ``helpers.make_stream``
    lineno: int
    col: int
    has_args: bool  #: at least one positional or keyword argument
    all_const: bool  #: every argument is a literal constant
    seed_args: bool  #: some argument mentions an rng/seed-like name
    first_arg: Optional[str]  #: raw dotted first positional / ``fn=`` arg


@dataclass
class Site:
    """A plain source location with a human-readable detail string."""

    lineno: int
    col: int
    detail: str


@dataclass
class FunctionSummary:
    """Per-function facts feeding the inter-procedural passes."""

    name: str
    class_name: Optional[str]
    lineno: int
    col: int
    is_public: bool
    has_seed_param: bool
    decorated: bool
    calls: List[CallSite] = field(default_factory=list)
    #: undischarged RNG-factory calls (no args, or non-constant args that
    #: mention no seed-like name) — the taint sources of FAS011.
    rng_sources: List[Site] = field(default_factory=list)
    global_mutations: List[Site] = field(default_factory=list)
    wall_clock_reads: List[Site] = field(default_factory=list)
    print_calls: List[Site] = field(default_factory=list)
    set_iterations: List[Site] = field(default_factory=list)
    refs: List[str] = field(default_factory=list)


@dataclass
class ClassSummary:
    """A module-level class: public surface + method names for lookup."""

    name: str
    lineno: int
    col: int
    is_public: bool
    decorated: bool
    methods: List[str] = field(default_factory=list)
    bases: List[str] = field(default_factory=list)


@dataclass
class ModuleSummary:
    """Everything the whole-program passes need from one parsed file."""

    module: str
    path: str  #: display path, POSIX style
    imports: Dict[str, str] = field(default_factory=dict)
    all_exports: Optional[List[str]] = None
    functions: List[FunctionSummary] = field(default_factory=list)
    classes: List[ClassSummary] = field(default_factory=list)
    module_refs: List[str] = field(default_factory=list)
    file_pragmas: List[str] = field(default_factory=list)
    line_pragmas: Dict[int, List[str]] = field(default_factory=dict)
    parse_error: Optional[Site] = None

    def is_suppressed(self, rule_id: str, lineno: int) -> bool:
        """Honour ``# fasealint: disable[-file]=`` pragmas for findings."""
        for scope in (self.file_pragmas, self.line_pragmas.get(lineno, [])):
            if "all" in scope or rule_id in scope:
                return True
        return False


# ----------------------------------------------------------------------
# Per-file extraction
# ----------------------------------------------------------------------
def module_name_for(path: Path, root: Path) -> str:
    """Dotted module name for ``path``.

    The segment after the innermost ``src`` directory wins (matching the
    repository layout and the fixture mini-projects); otherwise the path
    relative to the scanned root is used.
    """
    parts = list(path.with_suffix("").parts)
    if "src" in parts:
        index = len(parts) - 1 - parts[::-1].index("src")
        parts = parts[index + 1 :]
    else:
        try:
            parts = list(path.relative_to(root).with_suffix("").parts)
        except ValueError:
            parts = [path.stem]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _package_of(module: str, path: str) -> str:
    """The package a module's relative imports resolve against."""
    if path.endswith("__init__.py"):
        return module
    return module.rsplit(".", 1)[0] if "." in module else ""


def _collect_imports(tree: ast.Module, module: str, path: str) -> Dict[str, str]:
    imports: Dict[str, str] = {}
    package = _package_of(module, path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imports[bound] = alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".") if package else []
                anchor = anchor[: len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                imports[bound] = f"{base}.{alias.name}" if base else alias.name
    return imports


def _collect_all_exports(tree: ast.Module) -> Optional[List[str]]:
    for node in tree.body:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                if isinstance(value, (ast.List, ast.Tuple)):
                    return [
                        element.value
                        for element in value.elts
                        if isinstance(element, ast.Constant)
                        and isinstance(element.value, str)
                    ]
    return None


def _param_names(node: ast.AST) -> List[str]:
    args = node.args  # type: ignore[attr-defined]
    params = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    names = [param.arg for param in params]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return names


def _mentions_seed_name(node: ast.AST) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and _SEED_NAME_RE.search(child.id):
            return True
        if isinstance(child, ast.Attribute) and _SEED_NAME_RE.search(child.attr):
            return True
    return False


def _call_site(call: ast.Call) -> Optional[CallSite]:
    callee = _dotted_name(call.func)
    if callee is None:
        return None
    arguments = list(call.args) + [kw.value for kw in call.keywords]
    first_arg: Optional[str] = None
    if call.args:
        first_arg = _dotted_name(call.args[0])
    else:
        for keyword in call.keywords:
            if keyword.arg == "fn":
                first_arg = _dotted_name(keyword.value)
    return CallSite(
        callee=callee,
        lineno=call.lineno,
        col=call.col_offset,
        has_args=bool(arguments),
        all_const=bool(arguments)
        and all(isinstance(arg, ast.Constant) for arg in arguments),
        seed_args=any(_mentions_seed_name(arg) for arg in arguments),
        first_arg=first_arg,
    )


def _own_nodes(function: ast.AST) -> Iterable[ast.AST]:
    """Walk a function body without descending into nested defs/lambdas."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


class _SetishTracker:
    """Conservative, function-local inference of unordered iterables."""

    def __init__(self, function: ast.AST) -> None:
        self.set_names: Set[str] = set()
        for node in _own_nodes(function):
            if isinstance(node, ast.Assign):
                if self._is_setish(node.value):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self.set_names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if self._is_setish(node.value) and isinstance(node.target, ast.Name):
                    self.set_names.add(node.target.id)

    def _is_setish(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_setish(node.left) or self._is_setish(node.right)
        if isinstance(node, ast.Call):
            tail = (_dotted_name(node.func) or "").split(".")[-1]
            if tail in _SET_CONSTRUCTORS:
                return True
            if tail in _ORDER_TRANSPARENT and node.args:
                return self._is_setish(node.args[0])
            if tail in {"union", "intersection", "difference", "symmetric_difference"}:
                receiver = node.func
                if isinstance(receiver, ast.Attribute):
                    return self._is_setish(receiver.value)
        return False

    def unordered_iter(self, iterable: ast.AST) -> Optional[str]:
        """Describe ``iterable`` if its order is arbitrary, else ``None``."""
        if isinstance(iterable, ast.Call):
            tail = (_dotted_name(iterable.func) or "").split(".")[-1]
            if tail in _ORDER_DISCHARGING:
                return None
        if not self._is_setish(iterable):
            return None
        if isinstance(iterable, ast.Set):
            return "set literal"
        if isinstance(iterable, ast.SetComp):
            return "set comprehension"
        if isinstance(iterable, ast.Name):
            return f"set-valued name {iterable.id!r}"
        if isinstance(iterable, ast.Call):
            tail = (_dotted_name(iterable.func) or "").split(".")[-1]
            return f"{tail}(...) result"
        return "set expression"


def _summarize_function(
    node: ast.AST,
    class_name: Optional[str],
    class_public: bool,
    imports: Dict[str, str],
) -> FunctionSummary:
    name = node.name  # type: ignore[attr-defined]
    is_dunder = name.startswith("__") and name.endswith("__")
    is_public = (not name.startswith("_") or is_dunder) and (
        class_name is None or class_public
    )
    summary = FunctionSummary(
        name=name,
        class_name=class_name,
        lineno=node.lineno,  # type: ignore[attr-defined]
        col=node.col_offset,  # type: ignore[attr-defined]
        is_public=is_public,
        has_seed_param=any(_SEED_NAME_RE.search(p) for p in _param_names(node)),
        decorated=bool(node.decorator_list),  # type: ignore[attr-defined]
    )
    tracker = _SetishTracker(node)
    refs: Set[str] = set()
    for child in _own_nodes(node):
        if isinstance(child, ast.Call):
            site = _call_site(child)
            if site is not None:
                summary.calls.append(site)
                tail = site.callee.split(".")[-1]
                if tail in _RNG_FACTORIES and not (site.all_const or site.seed_args):
                    summary.rng_sources.append(
                        Site(site.lineno, site.col, f"{tail}({'...' if site.has_args else ''})")
                    )
                resolved = _resolve_raw(site.callee, imports)
                if resolved in _WALL_CLOCK_CALLS:
                    summary.wall_clock_reads.append(
                        Site(site.lineno, site.col, f"{resolved}()")
                    )
                if isinstance(child.func, ast.Name) and child.func.id == "print":
                    summary.print_calls.append(Site(site.lineno, site.col, "print()"))
        elif isinstance(child, ast.Global):
            summary.global_mutations.append(
                Site(
                    child.lineno,
                    child.col_offset,
                    "global " + ", ".join(child.names),
                )
            )
        elif isinstance(child, ast.For):
            detail = tracker.unordered_iter(child.iter)
            if detail is not None:
                summary.set_iterations.append(
                    Site(child.iter.lineno, child.iter.col_offset, detail)
                )
        elif isinstance(child, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for generator in child.generators:
                detail = tracker.unordered_iter(generator.iter)
                if detail is not None:
                    summary.set_iterations.append(
                        Site(generator.iter.lineno, generator.iter.col_offset, detail)
                    )
        if isinstance(child, (ast.Name, ast.Attribute)) and isinstance(
            getattr(child, "ctx", None), ast.Load
        ):
            dotted = _dotted_name(child)
            if dotted is not None:
                refs.add(dotted)
    summary.refs = sorted(refs)
    summary.calls.sort(key=lambda c: (c.lineno, c.col, c.callee))
    for sites in (
        summary.rng_sources,
        summary.global_mutations,
        summary.wall_clock_reads,
        summary.print_calls,
        summary.set_iterations,
    ):
        sites.sort(key=lambda s: (s.lineno, s.col, s.detail))
    return summary


def _resolve_raw(raw: str, imports: Dict[str, str]) -> str:
    """Rewrite the head of a dotted expression through the import map."""
    head, _, rest = raw.partition(".")
    target = imports.get(head)
    if target is None:
        return raw
    return f"{target}.{rest}" if rest else target


def summarize_module(path: Path, root: Path) -> ModuleSummary:
    """Parse one file into its :class:`ModuleSummary` (never raises)."""
    display = path.as_posix()
    module = module_name_for(path, root)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        return ModuleSummary(
            module=module,
            path=display,
            parse_error=Site(1, 0, f"could not read file: {error}"),
        )
    try:
        ctx = FileContext(path, display, source)
    except (SyntaxError, ValueError) as error:
        line = getattr(error, "lineno", None) or 1
        col = getattr(error, "offset", None) or 0
        return ModuleSummary(
            module=module,
            path=display,
            parse_error=Site(int(line), int(col), f"could not parse file: {error}"),
        )
    tree = ctx.tree
    imports = _collect_imports(tree, module, display)
    summary = ModuleSummary(
        module=module,
        path=display,
        imports=imports,
        all_exports=_collect_all_exports(tree),
        file_pragmas=sorted(ctx.file_pragmas),
        line_pragmas={
            line: sorted(rules) for line, rules in sorted(ctx.line_pragmas.items())
        },
    )
    module_refs: Set[str] = set()

    def _record_import_time_refs(node: ast.AST) -> None:
        # Decorator and base-class expressions execute at import time:
        # they are module-body references (registration wiring included).
        expressions = list(getattr(node, "decorator_list", []))
        expressions.extend(getattr(node, "bases", []))
        for expression in expressions:
            for child in ast.walk(expression):
                if isinstance(child, (ast.Name, ast.Attribute)):
                    dotted = _dotted_name(child)
                    if dotted is not None:
                        module_refs.add(dotted)

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _record_import_time_refs(node)
            summary.functions.append(
                _summarize_function(node, None, True, imports)
            )
        elif isinstance(node, ast.ClassDef):
            klass = ClassSummary(
                name=node.name,
                lineno=node.lineno,
                col=node.col_offset,
                is_public=not node.name.startswith("_"),
                decorated=bool(node.decorator_list),
                bases=sorted(
                    base
                    for base in (_dotted_name(expr) for expr in node.bases)
                    if base is not None
                ),
            )
            _record_import_time_refs(node)
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    _record_import_time_refs(member)
                    klass.methods.append(member.name)
                    summary.functions.append(
                        _summarize_function(
                            member, node.name, klass.is_public, imports
                        )
                    )
            klass.methods.sort()
            summary.classes.append(klass)
        else:
            for child in ast.walk(node):
                if isinstance(child, (ast.Name, ast.Attribute)) and isinstance(
                    getattr(child, "ctx", None), ast.Load
                ):
                    dotted = _dotted_name(child)
                    if dotted is not None:
                        module_refs.add(dotted)
    summary.module_refs = sorted(module_refs)
    summary.functions.sort(key=lambda fn: (fn.lineno, fn.col, fn.name))
    summary.classes.sort(key=lambda k: (k.lineno, k.col, k.name))
    return summary


# ----------------------------------------------------------------------
# Whole-program graph
# ----------------------------------------------------------------------
@dataclass
class ResolvedCall:
    """A call edge after symbol resolution."""

    site: CallSite
    target: str  #: fully-qualified name (may be outside the project)
    in_project: bool


class ProjectGraph:
    """Symbol table + import graph + approximate call graph."""

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        self.modules: Dict[str, ModuleSummary] = {
            summary.module: summary for summary in sorted(summaries, key=lambda s: s.path)
        }
        self.functions: Dict[str, FunctionSummary] = {}
        self.classes: Dict[str, ClassSummary] = {}
        self.owning_module: Dict[str, str] = {}
        for summary in self.modules.values():
            for klass in summary.classes:
                qualname = f"{summary.module}.{klass.name}"
                self.classes[qualname] = klass
                self.owning_module[qualname] = summary.module
            for function in summary.functions:
                qualname = self.qualname_of(summary, function)
                self.functions[qualname] = function
                self.owning_module[qualname] = summary.module
        self._call_edges: Optional[Dict[str, List[ResolvedCall]]] = None
        self._ref_edges: Optional[Dict[str, List[str]]] = None

    # -- naming --------------------------------------------------------
    @staticmethod
    def qualname_of(summary: ModuleSummary, function: FunctionSummary) -> str:
        if function.class_name is not None:
            return f"{summary.module}.{function.class_name}.{function.name}"
        return f"{summary.module}.{function.name}"

    def module_of(self, qualname: str) -> ModuleSummary:
        return self.modules[self.owning_module[qualname]]

    def display_name(self, qualname: str) -> str:
        """Human-readable name: strip the shared package prefix noise."""
        module = self.owning_module.get(qualname)
        if module is None:
            return qualname
        return qualname[len(module) + 1 :]

    # -- resolution ----------------------------------------------------
    def resolve_global(self, fq: str, _depth: int = 0) -> Optional[str]:
        """Resolve a fully-qualified name, chasing re-export aliases."""
        if _depth > 8 or not fq:
            return None
        if fq in self.functions or fq in self.classes:
            return fq
        # Longest known module prefix, then chase its import aliases.
        parts = fq.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                rest = parts[cut:]
                candidate = f"{prefix}.{rest[0]}"
                if candidate in self.functions or candidate in self.classes:
                    resolved = candidate if len(rest) == 1 else ".".join([candidate] + rest[1:])
                    if resolved in self.functions or resolved in self.classes:
                        return resolved
                    return candidate if candidate in self.classes else None
                target = self.modules[prefix].imports.get(rest[0])
                if target is not None:
                    chased = ".".join([target] + rest[1:])
                    return self.resolve_global(chased, _depth + 1)
                return None
        return None

    def resolve_call(
        self, summary: ModuleSummary, function: FunctionSummary, raw: str
    ) -> Optional[str]:
        """Resolve a raw dotted call expression to a project symbol."""
        parts = raw.split(".")
        head = parts[0]
        # self/cls method resolution through class-local lookup.
        if (
            function.class_name is not None
            and head in ("self", "cls")
            and len(parts) == 2
        ):
            return self._resolve_method(
                f"{summary.module}.{function.class_name}", parts[1]
            )
        if head in summary.imports:
            fq = ".".join([summary.imports[head]] + parts[1:])
        else:
            fq = f"{summary.module}.{raw}"
        resolved = self.resolve_global(fq)
        if resolved is None:
            return None
        if resolved in self.classes:
            init = f"{resolved}.__init__"
            return init if init in self.functions else resolved
        return resolved

    def _resolve_method(self, class_qualname: str, method: str, _depth: int = 0) -> Optional[str]:
        if _depth > 4:
            return None
        klass = self.classes.get(class_qualname)
        if klass is None:
            return None
        if method in klass.methods:
            return f"{class_qualname}.{method}"
        module = self.modules[self.owning_module[class_qualname]]
        for base in klass.bases:
            head = base.split(".")[0]
            if head in module.imports:
                base_fq = ".".join([module.imports[head]] + base.split(".")[1:])
            else:
                base_fq = f"{module.module}.{base}"
            base_resolved = self.resolve_global(base_fq)
            if base_resolved is not None and base_resolved in self.classes:
                found = self._resolve_method(base_resolved, method, _depth + 1)
                if found is not None:
                    return found
        return None

    def resolve_ref(self, summary: ModuleSummary, raw: str) -> Optional[str]:
        """Resolve a bare reference: imports first, then local symbols."""
        parts = raw.split(".")
        if parts[0] in summary.imports:
            fq = ".".join([summary.imports[parts[0]]] + parts[1:])
            return self.resolve_global(fq)
        local = self.resolve_global(f"{summary.module}.{raw}")
        if local is not None:
            return local
        return self.resolve_global(raw)

    def resolve_external(self, summary: ModuleSummary, raw: str) -> str:
        """Best-effort fully-qualified name even outside the project."""
        parts = raw.split(".")
        head = parts[0]
        if head in summary.imports:
            return ".".join([summary.imports[head]] + parts[1:])
        return raw

    # -- graphs --------------------------------------------------------
    @property
    def call_edges(self) -> Dict[str, List[ResolvedCall]]:
        """Caller qualname -> resolved call edges (sorted, deterministic)."""
        if self._call_edges is None:
            edges: Dict[str, List[ResolvedCall]] = {}
            for module, summary in sorted(self.modules.items()):
                for function in summary.functions:
                    caller = self.qualname_of(summary, function)
                    resolved_calls: List[ResolvedCall] = []
                    for site in function.calls:
                        target = self.resolve_call(summary, function, site.callee)
                        if target is not None:
                            resolved_calls.append(ResolvedCall(site, target, True))
                        else:
                            external = self.resolve_external(summary, site.callee)
                            resolved_calls.append(ResolvedCall(site, external, False))
                    edges[caller] = resolved_calls
            self._call_edges = edges
        return self._call_edges

    @property
    def ref_edges(self) -> Dict[str, List[str]]:
        """Caller/module qualname -> referenced project symbols.

        Module bodies appear under the pseudo-node ``<module>:NAME`` so
        registry tables and other import-time references keep their
        targets alive for FAS014.
        """
        if self._ref_edges is None:
            edges: Dict[str, List[str]] = {}
            for module, summary in sorted(self.modules.items()):
                body_targets: Set[str] = set()
                for raw in summary.module_refs:
                    resolved = self.resolve_ref(summary, raw)
                    if resolved is not None:
                        body_targets.add(resolved)
                edges[f"<module>:{module}"] = sorted(body_targets)
                for function in summary.functions:
                    caller = self.qualname_of(summary, function)
                    targets: Set[str] = set()
                    for raw in function.refs:
                        resolved = self.resolve_ref(summary, raw)
                        if resolved is not None:
                            targets.add(resolved)
                    edges[caller] = sorted(targets)
            self._ref_edges = edges
        return self._ref_edges

    def public_functions(self) -> List[Tuple[str, FunctionSummary]]:
        """Sorted (qualname, summary) pairs for every public function."""
        items = [
            (qualname, function)
            for qualname, function in self.functions.items()
            if function.is_public
        ]
        return sorted(items, key=lambda pair: pair[0])


def scan_files(paths: Sequence["str | Path"]) -> List[Path]:
    """The deterministic file list the analyzer operates on."""
    return list(iter_python_files(paths))
