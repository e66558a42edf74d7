"""The disabled-mode overhead harness (``benchmarks/bench_overhead.py``).

No wall-clock value is asserted: these tests pin the reward invariance
of every feature, the bound arithmetic of the gates and the report's
shape.  The timings and the page-fault count themselves are gated by the
CI ``obs-overhead`` job.
"""

from __future__ import annotations

import pytest

from benchmarks import bench_overhead as harness

GATE_NAMES = [f"{section}.{key}" for section, key, _ in harness.GATES]


@pytest.mark.parametrize("feature", list(harness.FEATURES))
def test_feature_leaves_every_reward_bit_equal(feature):
    report = harness.check_invariance(feature, horizon=60)
    assert report["total_reward"] > 0
    extras = {
        "health": ("health_events", "alert_firings"),
        "checkpoint": ("slots_on_disk_after_run",),
    }.get(feature, ())
    assert all(isinstance(report[key], int) for key in extras)


def _synthetic_report(failing=None):
    """Gated statistics computed from sample lists that put each one exactly
    on its bound, except the gate named ``failing``, which sits just past it."""
    report = {}
    for section, key, _ in harness.GATES:
        past = failing == f"{section}.{key}"
        if key == "per_save_ms":  # 8 saves; best-of-N delta 0.2 s is 25.0 ms each
            value = harness.per_save_ms([0.0, 0.1], [0.2008 if past else 0.2, 0.3], saves=8)
        elif key == "minor_faults_per_round":  # 100 faults per round, or 100.1
            value = 100.1 if past else 100.0
        else:  # the best pair decides: 1.03, or 1.031 past the bound
            value = harness.min_paired_ratio([1.0, 2.0], [1.031 if past else 1.03, 2.5])
        report.setdefault(section, {})[key] = value
    return report


def test_statistics_on_their_bounds_pass():
    report = _synthetic_report()
    # Exactly on the bound, so ``<=`` (not ``<``) is what passes them.
    assert report["obs"]["ratio"] == 1.03  # fasealint: disable=FAS003
    assert report["checkpoint"]["per_save_ms"] == 25.0  # fasealint: disable=FAS003
    assert report["faults"]["minor_faults_per_round"] == harness.MAX_FAULTS_PER_ROUND  # fasealint: disable=FAS003
    assert harness.failed_gates(report) == []


@pytest.mark.parametrize("gate", GATE_NAMES)
def test_a_statistic_past_its_bound_fails_that_gate_alone(gate):
    report = _synthetic_report(failing=gate)
    section, key = gate.split(".")
    expected = {"per_save_ms": 25.1, "minor_faults_per_round": 100.1}.get(key, 1.031)
    assert report[section][key] == pytest.approx(expected)
    assert harness.failed_gates(report) == [gate]


def test_report_has_every_section_gate_and_extra():
    report = harness.measure_overhead(ratio_repeats=1, checkpoint_repeats=1)
    assert set(report) == {"obs", "flight", "health", "checkpoint", "faults", "ok"}
    for gate in GATE_NAMES:
        section, key = gate.split(".")
        assert key in report[section]
    for section in ("obs", "flight", "health", "checkpoint"):
        assert "total_reward" in report[section]
    assert {"plain_select_us", "repeats", "threshold"} <= set(report["flight"])
    assert {"obs_on_run_seconds", "obs_profile_stream_run_seconds"} <= set(report["obs"])
    assert {"saves_per_run", "max_save_ms"} <= set(report["checkpoint"])
    assert {"max_minor_faults_per_round", "warmup_rounds", "rounds"} <= set(report["faults"])
    assert report["ok"] == (harness.failed_gates(report) == [])
