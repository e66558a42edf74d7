"""The reproduction-report generator."""

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.report_gen import Finding, grade_results, render_report


def write_csv(directory, experiment, filename, header, rows):
    exp_dir = directory / experiment
    exp_dir.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    (exp_dir / filename).write_text("\n".join(lines) + "\n")


@pytest.fixture
def fake_results(tmp_path):
    """A minimal results directory that reproduces every finding."""
    write_csv(
        tmp_path, "fig1", "curve_total_rewards.csv",
        ["t", "UCB", "TS", "eGreedy", "Exploit", "Random", "OPT"],
        [[100, 50, 10, 45, 48, 8, 55], [200, 900, 300, 880, 890, 250, 910]],
    )
    write_csv(
        tmp_path, "fig1", "curve_total_regrets.csv",
        ["t", "UCB", "TS"], [[100, 80, 500], [200, 10, 400]],
    )
    write_csv(
        tmp_path, "fig2", "curve_kendall_tau.csv",
        ["t", "UCB", "TS", "Random"], [[100, 0.5, 0.1, 0.0], [200, 0.95, 0.05, 0.01]],
    )
    write_csv(
        tmp_path, "fig4", "curve_accept_ratio.csv",
        ["t", "TS d=1", "OPT d=1", "TS d=15", "OPT d=15"],
        [[100, 0.9, 0.95, 0.1, 0.5]],
    )
    write_csv(
        tmp_path, "tab7", "table_accept_ratios__c_u___5.csv",
        ["Algorithm", "u1", "u2"],
        [["UCB", 0.9, 0.95], ["TS", 0.3, 0.2], ["Exploit", 0.0, 0.9]],
    )
    write_csv(
        tmp_path, "tab5", "table_avg_time__sec_round.csv",
        ["Algorithm", "|V|=100", "|V|=1000"],
        [["UCB", 0.001, 0.002], ["Random", 0.0001, 0.0002],
         ["Exploit", 0.0002, 0.0004], ["TS", 0.0005, 0.0009],
         ["eGreedy", 0.0002, 0.0004]],
    )
    write_csv(
        tmp_path, "mab", "curve_cumulative_regret.csv",
        ["t", "TS-Beta", "UCB1"], [[100, 5, 20], [200, 8, 60]],
    )
    return tmp_path


def test_all_findings_reproduced_on_good_results(fake_results):
    findings = grade_results(fake_results)
    assert len(findings) == 7
    assert all(f.holds for f in findings)


def test_missing_experiment_is_not_evaluable(fake_results):
    import shutil

    shutil.rmtree(fake_results / "mab")
    findings = grade_results(fake_results)
    mab = [f for f in findings if f.title.startswith("mab")][0]
    assert mab.holds is None
    assert "not evaluable" in mab.evidence


def test_violated_finding_is_flagged(fake_results):
    # Make TS beat UCB under FASEA — the opposite of the paper.
    write_csv(
        fake_results, "fig1", "curve_total_rewards.csv",
        ["t", "UCB", "TS", "eGreedy", "Exploit", "Random", "OPT"],
        [[100, 10, 900, 45, 48, 8, 910]],
    )
    findings = grade_results(fake_results)
    fig1 = findings[0]
    assert fig1.holds is False
    assert fig1.verdict == "NOT REPRODUCED"


def test_tab5_needs_ucb_slowest_of_all_policies(fake_results):
    # Random and Exploit stay faster than UCB; only TS overtakes it.
    write_csv(
        fake_results, "tab5", "table_avg_time__sec_round.csv",
        ["Algorithm", "|V|=100", "|V|=1000"],
        [["UCB", 0.001, 0.002], ["Random", 0.0001, 0.0002],
         ["Exploit", 0.0002, 0.0004], ["TS", 0.0005, 0.0025],
         ["eGreedy", 0.0002, 0.0004]],
    )
    tab5 = [f for f in grade_results(fake_results) if f.title.startswith("tab5")][0]
    assert tab5.holds is False
    assert tab5.evidence.startswith("at |V|=1000: UCB -20% vs the next slowest, TS;")


def test_tab5_evidence_names_the_runner_up(fake_results):
    tab5 = [f for f in grade_results(fake_results) if f.title.startswith("tab5")][0]
    assert tab5.holds is True
    assert tab5.evidence.startswith("at |V|=1000: UCB +122% vs the next slowest, TS;")


def test_render_report_markdown(fake_results):
    text = render_report(grade_results(fake_results), fake_results)
    assert text.startswith("# Reproduction report")
    assert "7/7 evaluable findings reproduced" in text
    assert "✅" in text


def test_missing_directory_raises(tmp_path):
    with pytest.raises(ConfigurationError):
        grade_results(tmp_path / "nope")


def test_verdict_strings():
    assert Finding("t", True, "e").verdict == "REPRODUCED"
    assert Finding("t", False, "e").verdict == "NOT REPRODUCED"
    assert Finding("t", None, "e").verdict == "n/a"


def test_committed_results_grade_clean():
    """The repository's own results directory reproduces everything."""
    from pathlib import Path

    results = Path(__file__).resolve().parent.parent / "results"
    if not results.is_dir():
        pytest.skip("results directory not generated")
    findings = grade_results(results)
    assert all(f.holds is not False for f in findings)