"""Tests for the whole-program analyzer (``repro.devtools.analyze``).

Covers: the FAS011-FAS014 rule catalogue on a seeded fixture project,
the golden JSON report, pragma suppression, the CLI (exit codes, status
line, usage errors) and the self-check that the repository's own
``src/`` tree has no findings.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.devtools.analyze import (
    AnalyzeConfig,
    ProjectGraph,
    registered_analyze_rules,
    run_project,
    summarize_module,
)
from repro.devtools.analyze.cli import collect_import_roots
from repro.devtools.lint.reporters import render_json, render_text

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "analyze"
PROJ = FIXTURES / "cases" / "proj"
CLEAN = FIXTURES / "cases" / "clean"

ANALYZE_RULES = ("FAS011", "FAS012", "FAS013", "FAS014")


def _run(root, **kwargs):
    kwargs.setdefault("root_dirs", ())
    return run_project([Path(root) / "src"], **kwargs)


# ----------------------------------------------------------------------
# Registry / rule firing
# ----------------------------------------------------------------------
def test_registry_contains_the_whole_program_catalogue():
    registry = registered_analyze_rules()
    assert tuple(sorted(registry)) == ANALYZE_RULES
    for rule_id, rule_cls in registry.items():
        assert rule_cls.rule_id == rule_id
        assert rule_cls.summary


def test_each_rule_fires_exactly_once_on_the_seeded_project():
    result = _run(PROJ)
    counts = {}
    for violation in result.violations:
        counts[violation.rule_id] = counts.get(violation.rule_id, 0) + 1
    assert counts == {rule_id: 1 for rule_id in ANALYZE_RULES}, render_text(
        result.violations
    )


def test_clean_project_produces_no_findings():
    result = _run(CLEAN)
    assert result.violations == [], render_text(result.violations)
    assert result.ok


def test_golden_json_report_matches():
    result = _run(PROJ)
    rendered = render_json(result.violations, base=PROJ)
    expected = (FIXTURES / "expected.json").read_text()
    assert rendered == expected


def test_select_and_ignore_filter_rules():
    only_dead = _run(PROJ, config=AnalyzeConfig(select=("FAS014",)))
    assert {v.rule_id for v in only_dead.violations} == {"FAS014"}
    no_dead = _run(PROJ, config=AnalyzeConfig(ignore=("FAS014",)))
    assert "FAS014" not in {v.rule_id for v in no_dead.violations}


def test_unknown_rule_id_is_rejected():
    with pytest.raises(ValueError, match="FAS999"):
        _run(PROJ, config=AnalyzeConfig(select=("FAS999",)))


# ----------------------------------------------------------------------
# Graph / summaries
# ----------------------------------------------------------------------
def test_call_graph_resolves_cross_module_imports():
    summaries = [
        summarize_module(path, PROJ)
        for path in sorted((PROJ / "src").rglob("*.py"))
    ]
    graph = ProjectGraph(summaries)
    edges = graph.call_edges["miniapp.pipeline.run_pipeline"]
    targets = {edge.target for edge in edges if edge.in_project}
    assert "miniapp.helpers._draw_noise" in targets


# ----------------------------------------------------------------------
# Pragma suppression
# ----------------------------------------------------------------------
def test_analyzer_findings_respect_line_pragmas(tmp_path):
    project = tmp_path / "proj"
    shutil.copytree(PROJ, project)
    legacy = project / "src" / "miniapp" / "legacy.py"
    legacy.write_text(
        legacy.read_text().replace(
            "def unused_helper(values):",
            "def unused_helper(values):  # fasealint: disable=FAS014",
        )
    )
    result = _run(project)
    assert {v.rule_id for v in result.violations} == {
        "FAS011",
        "FAS012",
        "FAS013",
    }


# ----------------------------------------------------------------------
# FAS014 roots from the import surface
# ----------------------------------------------------------------------
def test_collect_import_roots_reads_from_imports(tmp_path):
    consumer = tmp_path / "roots" / "test_consumer.py"
    consumer.parent.mkdir()
    consumer.write_text(
        "from miniapp.legacy import unused_helper\nimport miniapp.util\n"
    )
    roots = collect_import_roots([consumer.parent, tmp_path / "missing"])
    assert roots == ("miniapp.legacy.unused_helper",)


def test_extra_roots_resurrect_dead_exports():
    config = AnalyzeConfig(extra_roots=("miniapp.legacy.unused_helper",))
    result = _run(PROJ, config=config)
    assert "FAS014" not in {v.rule_id for v in result.violations}


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _analyze_args(root, *extra):
    return [
        "analyze",
        str(Path(root) / "src"),
        "--roots",
        "",
        *extra,
    ]


def test_cli_analyze_exit_codes(capsys):
    assert cli_main(_analyze_args(CLEAN)) == 0
    assert "no violations" in capsys.readouterr().out
    assert cli_main(_analyze_args(PROJ)) == 1
    out = capsys.readouterr().out
    for rule_id in ANALYZE_RULES:
        assert rule_id in out


def test_cli_analyze_status_line_reports_files_and_findings(capsys):
    assert cli_main(_analyze_args(PROJ)) == 1
    err = capsys.readouterr().err
    assert err.startswith("fasea analyze: 8 files in ")
    assert err.endswith("s; 4 finding(s)\n")


def test_cli_analyze_json_format(capsys):
    assert cli_main(_analyze_args(PROJ, "--format", "json")) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 4
    assert set(payload["by_rule"]) == set(ANALYZE_RULES)


def test_cli_analyze_unknown_rule_is_usage_error(capsys):
    assert cli_main(_analyze_args(PROJ, "--select", "FAS999")) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_analyze_list_rules(capsys):
    assert cli_main(["analyze", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ANALYZE_RULES:
        assert rule_id in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lint", "srcc"], "fasea lint: no such file or directory: srcc"),
        (["analyze", "srcc"], "fasea analyze: no such file or directory: srcc"),
        (["analyze", "src", "srcc"], "fasea analyze: no such file or directory: srcc"),
        (["lint", "--jobs", "-2", str(PROJ / "src")], "fasea lint: jobs must be >= 0, got -2"),
    ],
    ids=["lint-missing", "analyze-missing", "analyze-one-missing", "lint-negative-jobs"],
)
def test_cli_usage_errors_exit_2(argv, message, capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    assert cli_main(argv) == 2
    assert capsys.readouterr().err.strip() == message


# ----------------------------------------------------------------------
# Self-check: the repository's own code is analyze-clean
# ----------------------------------------------------------------------
def test_repository_src_has_no_findings():
    result = run_project(
        [REPO_ROOT / "src"],
        root_dirs=(REPO_ROOT / "tests", REPO_ROOT / "benchmarks"),
    )
    assert result.ok, render_text(result.violations)
    assert result.files_total > 100  # the whole tree was visited
