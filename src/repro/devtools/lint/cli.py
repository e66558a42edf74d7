"""Argument wiring for ``fasea lint`` (kept out of the hot CLI import).

``repro.cli`` registers the subparser via :func:`add_lint_arguments`
and delegates execution to :func:`run_lint`, so the lint machinery is
imported only when the subcommand actually runs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence, Tuple

from repro.devtools.lint.engine import LintConfig, lint_paths, registered_rules
from repro.devtools.lint.reporters import render_json, render_text
from repro.exceptions import ConfigurationError

#: Default lint targets relative to the repository root.
DEFAULT_PATHS: Tuple[str, ...] = ("src",)


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach fasealint options to an (existing) subparser."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help="files or directories to lint (default: src)",
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
        "--rng-whitelist",
        default=None,
        help=(
            "comma-separated path suffixes allowed to touch global RNG "
            "state (FAS001)"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for per-file lint units (0 = all CPUs); "
            "output is byte-identical to --jobs 1, only faster"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )


def _split(value: Optional[str]) -> Optional[Tuple[str, ...]]:
    if value is None:
        return None
    parts = tuple(part.strip() for part in value.split(",") if part.strip())
    return parts or None


def report_missing_paths(command: str, paths: Sequence[str]) -> bool:
    """Print a usage error for each path that does not exist; True if any.

    Scanning a mistyped path would find no files and pass the gate.
    """
    missing = [path for path in paths if not Path(path).exists()]
    for path in missing:
        print(f"fasea {command}: no such file or directory: {path}", file=sys.stderr)
    return bool(missing)


def run_lint(args: argparse.Namespace) -> int:
    """Execute ``fasea lint`` from parsed arguments; return exit code."""
    if args.list_rules:
        for rule_id, rule_cls in sorted(registered_rules().items()):
            print(f"{rule_id}  {rule_cls.summary}")
        return 0
    config = LintConfig(
        select=_split(args.select),
        ignore=_split(args.ignore) or (),
        rng_whitelist=_split(args.rng_whitelist) or (),
    )
    if report_missing_paths("lint", args.paths):
        return 2
    try:
        violations = lint_paths(args.paths, config, jobs=args.jobs)
    except (ValueError, ConfigurationError) as error:  # bad rule ids or --jobs
        print(f"fasea lint: {error}", file=sys.stderr)
        return 2
    renderer = render_json if args.format == "json" else render_text
    output = renderer(violations)
    print(output, end="")
    return 1 if violations else 0
