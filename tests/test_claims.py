"""The executable paper-claims registry."""

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.claims import (
    CLAIMS,
    check_efficiency_ordering,
    check_ts_recovers_at_d1,
    check_ts_wins_basic_mab,
    check_ucb_escapes_lock_in,
    check_ucb_exploit_best,
    run_claims,
)


def test_registry_ids_are_unique_and_named():
    ids = [claim_id for claim_id, _, _ in CLAIMS]
    assert len(set(ids)) == len(ids) == 5
    for _, statement, checker in CLAIMS:
        assert statement
        assert callable(checker)


def test_claim1_headline_orderings():
    holds, evidence = check_ucb_exploit_best(horizon=1500)
    assert holds, evidence
    assert "UCB=" in evidence


def test_claim2_basic_mab_premise():
    holds, evidence = check_ts_wins_basic_mab()
    assert holds, evidence


def test_claim3_lock_in_escape():
    holds, evidence = check_ucb_escapes_lock_in(horizon=150)
    assert holds, evidence
    assert "lock Exploit" in evidence


def test_claim4_efficiency():
    holds, evidence = check_efficiency_ordering(rounds=60)
    assert holds, evidence


def test_claim5_ts_at_d1():
    holds, evidence = check_ts_recovers_at_d1(horizon=1200)
    assert holds, evidence


def test_run_claims_filters_by_id():
    results = run_claims(only=["C2"])
    assert len(results) == 1
    assert results[0].claim_id == "C2"
    assert results[0].holds
    assert results[0].seconds > 0


def test_cli_claims_subcommand(capsys):
    from repro.cli import main

    assert main(["claims", "C2"]) == 0
    out = capsys.readouterr().out
    assert "REPRODUCED" in out
    assert "1/1 claims reproduced" in out


def test_cli_claims_rejects_unknown_ids(capsys):
    """A mistyped id is a usage error, not a vacuous ``0/0`` pass."""
    from repro.cli import main

    assert main(["claims", "C2", "C9"]) == 2
    captured = capsys.readouterr()
    assert "C9" in captured.err
    assert "claims reproduced" not in captured.out
    with pytest.raises(ConfigurationError, match="C9"):
        run_claims(only=["C9"])
