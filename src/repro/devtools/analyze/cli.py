"""Orchestration and argument wiring for ``fasea analyze``.

Pipeline per run: scan files → summarize each one → build the
:class:`ProjectGraph` → run the FAS011-FAS014 whole-program rules →
render text/JSON.  The gate is zero findings: the command exits 1 on
any finding and 2 on a usage error (unknown rule id, missing path).
"""

from __future__ import annotations

import argparse
import ast
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Set, Tuple

from repro.devtools.analyze.graph import ProjectGraph, scan_files, summarize_module
from repro.devtools.analyze.rules import (
    AnalyzeConfig,
    registered_analyze_rules,
    run_rules,
)
from repro.devtools.lint.cli import report_missing_paths
from repro.devtools.lint.engine import Violation
from repro.devtools.lint.reporters import render_json, render_text

#: Directories scanned (when present) for the FAS014 import roots.
DEFAULT_ROOT_DIRS: Tuple[str, ...] = ("tests", "benchmarks", "examples")


@dataclass
class AnalyzeResult:
    """Everything one analyzer run produced."""

    violations: List[Violation] = field(default_factory=list)
    files_total: int = 0
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations


# ----------------------------------------------------------------------
# FAS014 roots from the test/benchmark/example import surface
# ----------------------------------------------------------------------
def collect_import_roots(root_dirs: Sequence["str | Path"]) -> Tuple[str, ...]:
    """Fully-qualified names imported by files under ``root_dirs``.

    Only ``from module import name`` bindings contribute — plain module
    imports add nothing because every analyzed module body is already a
    live root.  The scan is import-only (no summaries built), so it is
    cheap enough to rerun cold on every invocation.
    """
    roots: Set[str] = set()
    existing = [Path(d) for d in root_dirs if Path(d).exists()]
    for path in scan_files(existing):
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        except (OSError, SyntaxError, UnicodeDecodeError, ValueError):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                for alias in node.names:
                    if alias.name != "*":
                        roots.add(f"{node.module}.{alias.name}")
    return tuple(sorted(roots))


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------
def run_project(
    paths: Sequence["str | Path"],
    config: Optional[AnalyzeConfig] = None,
    root_dirs: Sequence["str | Path"] = DEFAULT_ROOT_DIRS,
) -> AnalyzeResult:
    """Run the whole-program analyzer end to end (library entry point)."""
    started = time.perf_counter()
    config = config or AnalyzeConfig()
    summaries = [summarize_module(path, Path(".")) for path in scan_files(paths)]
    graph = ProjectGraph(summaries)
    extra_roots = tuple(config.extra_roots) + collect_import_roots(root_dirs)
    config = AnalyzeConfig(
        select=config.select,
        ignore=config.ignore,
        deterministic_components=config.deterministic_components,
        exempt_prefixes=config.exempt_prefixes,
        entry_module_names=config.entry_module_names,
        extra_roots=extra_roots,
        work_unit_entry_points=config.work_unit_entry_points,
    )
    return AnalyzeResult(
        violations=run_rules(graph, config),
        files_total=len(summaries),
        seconds=time.perf_counter() - started,
    )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def add_analyze_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach ``fasea analyze`` options to an (existing) subparser."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="project roots to analyze (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--roots",
        default=",".join(DEFAULT_ROOT_DIRS),
        help=(
            "comma-separated directories whose imports root the FAS014 "
            "reachability sweep (missing directories are skipped)"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the whole-program rule catalogue and exit",
    )


def _split(value: Optional[str]) -> Optional[Tuple[str, ...]]:
    if value is None:
        return None
    parts = tuple(part.strip() for part in value.split(",") if part.strip())
    return parts or None


def run_analyze(args: argparse.Namespace) -> int:
    """Execute ``fasea analyze`` from parsed arguments; return exit code."""
    if args.list_rules:
        for rule_id, rule_cls in sorted(registered_analyze_rules().items()):
            print(f"{rule_id}  {rule_cls.summary}")
        return 0
    config = AnalyzeConfig(
        select=_split(args.select), ignore=_split(args.ignore) or ()
    )
    if report_missing_paths("analyze", args.paths):
        return 2
    try:
        result = run_project(
            args.paths, config=config, root_dirs=_split(args.roots) or ()
        )
    except ValueError as error:  # unknown rule ids in --select/--ignore
        print(f"fasea analyze: {error}", file=sys.stderr)
        return 2
    print(
        f"fasea analyze: {result.files_total} files in {result.seconds:.2f}s; "
        f"{len(result.violations)} finding(s)",
        file=sys.stderr,
    )
    renderer = render_json if args.format == "json" else render_text
    print(renderer(result.violations), end="")
    return 0 if result.ok else 1
