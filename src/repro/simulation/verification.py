"""Post-hoc verification of a simulation run.

The platform validates each round as it commits; this module audits a
*finished* run — reconciling the history against the platform ledger
and re-checking every Definition-3 constraint on the recorded log.
Failure-injection tests use it to prove the checks actually bite.
"""

from __future__ import annotations

import numpy as np

from repro.ebsn.conflicts import ConflictGraph
from repro.ebsn.events import EventStore
from repro.ebsn.ledger import RegistrationLedger
from repro.exceptions import ReproError
from repro.simulation.history import History


class VerificationError(ReproError):
    """A finished run violates an invariant it should satisfy."""


def verify_ledger_constraints(
    ledger: RegistrationLedger,
    initial_capacities: np.ndarray,
    conflicts: ConflictGraph,
    max_user_capacity: int,
) -> None:
    """Re-check Definition 3 on an entire ledger.

    Raises :class:`VerificationError` on the first violated invariant:
    arrangement sizes, per-event accepted totals vs initial capacities,
    pairwise non-conflict, and strictly increasing time steps.
    """
    initial_capacities = np.asarray(initial_capacities, dtype=float)
    accepted_totals = np.zeros_like(initial_capacities)
    previous_step = 0
    for entry in ledger:
        if entry.time_step <= previous_step:
            raise VerificationError(
                f"time steps not increasing at t={entry.time_step}"
            )
        previous_step = entry.time_step
        if entry.num_arranged > max_user_capacity:
            raise VerificationError(
                f"t={entry.time_step}: arranged {entry.num_arranged} events, "
                f"user capacity cap is {max_user_capacity}"
            )
        if not conflicts.is_independent(entry.arranged):
            raise VerificationError(
                f"t={entry.time_step}: arrangement {entry.arranged} conflicts"
            )
        for event_id in entry.accepted:
            accepted_totals[event_id] += 1
    over = np.flatnonzero(accepted_totals > initial_capacities)
    if over.size:
        raise VerificationError(
            f"events {over.tolist()} accepted beyond their capacity"
        )


def verify_history_against_ledger(
    history: History, ledger: RegistrationLedger
) -> None:
    """The history's per-step rewards must equal the ledger's."""
    if len(ledger) != history.horizon:
        raise VerificationError(
            f"ledger has {len(ledger)} entries but the history covers "
            f"{history.horizon} rounds"
        )
    ledger_rewards = np.array([entry.reward for entry in ledger], dtype=float)
    ledger_arranged = np.array(
        [entry.num_arranged for entry in ledger], dtype=float
    )
    if not np.array_equal(ledger_rewards, history.rewards):
        step = int(np.flatnonzero(ledger_rewards != history.rewards)[0])
        raise VerificationError(f"reward mismatch at round {step + 1}")
    if not np.array_equal(ledger_arranged, history.arranged):
        step = int(np.flatnonzero(ledger_arranged != history.arranged)[0])
        raise VerificationError(f"arrangement-size mismatch at round {step + 1}")


def verify_store_consistency(
    store: EventStore, ledger: RegistrationLedger
) -> None:
    """Remaining capacities must equal initial minus accepted registrations."""
    expected = store.initial_capacities
    for event_id, count in ledger.registrations_per_event().items():
        expected[event_id] -= count
    if not np.allclose(
        store.remaining_capacities[np.isfinite(expected)],
        expected[np.isfinite(expected)],
    ):
        raise VerificationError("store capacities do not reconcile with the ledger")
