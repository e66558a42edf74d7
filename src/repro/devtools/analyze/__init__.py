"""Whole-program static analysis for the FASEA determinism contract.

``repro.devtools.analyze`` layers a project-wide symbol table, import
graph and approximate call graph (:mod:`.graph`) plus inter-procedural
dataflow passes (:mod:`.dataflow`) on top of the single-file fasealint
engine, and ships four cross-module rules (:mod:`.rules`):

* **FAS011** — public entry paths that transitively consume randomness
  must thread an ``rng``/``seed`` parameter (closes FAS002's
  cross-module hole);
* **FAS012** — callables submitted to ``repro.parallel`` must be
  transitively free of global-state mutation, wall-clock reads and
  ``print``;
* **FAS013** — no unordered ``set`` iteration on reward/selection
  paths;
* **FAS014** — no dead exports: public symbols must be reachable from
  the CLI, ``__all__`` lists, module bodies or the test import surface.

Findings report through the shared fasealint text/JSON reporters, and
``fasea analyze`` fails on any finding: the gate is zero findings.  See
``docs/static-analysis.md`` and DESIGN.md §5.10.
"""

from repro.devtools.analyze.cli import AnalyzeResult, run_project
from repro.devtools.analyze.dataflow import (
    compute_impurity,
    compute_taint,
    reachable_from,
)
from repro.devtools.analyze.graph import ModuleSummary, ProjectGraph, summarize_module
from repro.devtools.analyze.rules import (
    AnalyzeConfig,
    registered_analyze_rules,
    run_rules,
)

__all__ = [
    "AnalyzeConfig",
    "AnalyzeResult",
    "ModuleSummary",
    "ProjectGraph",
    "compute_impurity",
    "compute_taint",
    "reachable_from",
    "registered_analyze_rules",
    "run_project",
    "run_rules",
    "summarize_module",
]
