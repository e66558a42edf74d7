"""Post-hoc run verification, including failure injection."""

import numpy as np
import pytest

from repro.bandits import RandomPolicy, RoundView
from repro.ebsn.conflicts import ConflictGraph
from repro.ebsn.events import EventStore
from repro.ebsn.ledger import RegistrationLedger
from repro.simulation.environment import RoundStream
from repro.simulation.history import History
from repro.simulation.verification import (
    VerificationError,
    verify_history_against_ledger,
    verify_ledger_constraints,
    verify_store_consistency,
)


def build_ledger(entries):
    ledger = RegistrationLedger()
    for t, (arranged, accepted) in enumerate(entries, start=1):
        ledger.record(t, user_id=t, arranged=arranged, accepted=accepted)
    return ledger


def test_clean_ledger_passes():
    ledger = build_ledger([([0, 2], [0]), ([1], [1])])
    verify_ledger_constraints(
        ledger,
        initial_capacities=np.array([2.0, 2.0, 2.0]),
        conflicts=ConflictGraph(3),
        max_user_capacity=5,
    )


def test_oversized_arrangement_detected():
    ledger = build_ledger([([0, 1, 2], [])])
    with pytest.raises(VerificationError, match="user capacity"):
        verify_ledger_constraints(
            ledger, np.ones(3), ConflictGraph(3), max_user_capacity=2
        )


def test_conflicting_arrangement_detected():
    ledger = build_ledger([([0, 1], [])])
    with pytest.raises(VerificationError, match="conflicts"):
        verify_ledger_constraints(
            ledger, np.ones(2), ConflictGraph(2, [(0, 1)]), max_user_capacity=5
        )


def test_capacity_overflow_detected():
    ledger = build_ledger([([0], [0]), ([0], [0])])
    with pytest.raises(VerificationError, match="beyond their capacity"):
        verify_ledger_constraints(
            ledger, np.array([1.0]), ConflictGraph(1), max_user_capacity=5
        )


def test_history_and_ledger_reconcile():
    ledger = build_ledger([([0, 1], [0]), ([2], [2])])
    history = History(
        policy_name="p", rewards=np.array([1.0, 1.0]), arranged=np.array([2.0, 1.0])
    )
    verify_history_against_ledger(history, ledger)


def test_history_reward_mismatch_detected():
    ledger = build_ledger([([0, 1], [0])])
    history = History(
        policy_name="p", rewards=np.array([2.0]), arranged=np.array([2.0])
    )
    with pytest.raises(VerificationError, match="reward mismatch"):
        verify_history_against_ledger(history, ledger)


def test_history_length_mismatch_detected():
    ledger = build_ledger([([0], [0])])
    history = History(
        policy_name="p", rewards=np.zeros(2), arranged=np.zeros(2)
    )
    with pytest.raises(VerificationError, match="entries"):
        verify_history_against_ledger(history, ledger)


def test_store_consistency_checks_remaining_capacity():
    store = EventStore.from_capacities([2, 2])
    ledger = build_ledger([([0], [0])])
    store.register(0)
    verify_store_consistency(store, ledger)
    store.register(0)  # extra registration not in the ledger
    with pytest.raises(VerificationError):
        verify_store_consistency(store, ledger)


def test_real_environment_run_passes_all_audits(small_world):
    """End-to-end: a genuine run reconciles on every axis."""
    stream = RoundStream(small_world, run_seed=0)
    platform = stream.make_platform()
    policy = RandomPolicy(seed=0)
    rewards = []
    arranged = []
    for t in range(1, 51):
        user, contexts, accepts = stream.reveal(t)
        view = RoundView(t, user, contexts, platform.store.remaining_capacities, platform.conflicts)
        arrangement = policy.select(view)
        platform.commit(user, arrangement, feedback=lambda v: bool(accepts[v]))
        rewards.append(sum(1.0 for event_id in arrangement if accepts[event_id]))
        arranged.append(len(arrangement))
    history = History(
        policy_name="Random",
        rewards=np.array(rewards),
        arranged=np.array(arranged),
    )
    verify_history_against_ledger(history, platform.ledger)
    verify_ledger_constraints(
        platform.ledger,
        small_world.capacities,
        small_world.conflicts,
        max_user_capacity=small_world.config.user_capacity_max,
    )
    verify_store_consistency(platform.store, platform.ledger)
