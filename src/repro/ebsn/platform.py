"""The platform façade: validates and commits arrangements.

:class:`Platform` ties the event store, conflict graph and registration
ledger together and enforces the three constraints of Definition 3:

1. irrevocability — each time step is committed exactly once, in order;
2. capacities — neither ``c_v`` nor ``c_u`` is exceeded;
3. non-conflict — arranged events are pairwise non-conflicting.

Policies never mutate the store directly; they propose an arrangement
and the platform validates it, collects the user's feedback, decrements
capacities of *accepted* events, and records everything in the ledger.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Sequence, Tuple

from repro.ebsn.conflicts import ConflictGraph
from repro.ebsn.events import EventStore
from repro.ebsn.ledger import LedgerEntry, RegistrationLedger
from repro.ebsn.users import User
from repro.exceptions import CapacityError, ConflictError


class Platform:
    """An EBSN platform instance for one simulation run."""

    def __init__(self, store: EventStore, conflicts: ConflictGraph) -> None:
        if len(store) != conflicts.num_events:
            raise ConflictError(
                f"store has {len(store)} events but conflict graph covers "
                f"{conflicts.num_events}"
            )
        self.store = store
        self.conflicts = conflicts
        self.ledger = RegistrationLedger()
        self._time_step = 0

    @property
    def time_step(self) -> int:
        """The next time step to be committed (1-based after first commit)."""
        return self._time_step

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate_arrangement(
        self, user: User, arranged: Sequence[int]
    ) -> Tuple[int, ...]:
        """Raise if ``arranged`` violates any Definition-3 constraint;
        otherwise return it as a tuple of event ids."""
        ids = tuple(map(int, arranged))
        if len(set(ids)) != len(ids):
            raise ConflictError(f"duplicate events in arrangement {list(ids)}")
        if len(ids) > user.capacity:
            raise CapacityError(
                f"arranged {len(ids)} events but user capacity is "
                f"{user.capacity}"
            )
        if not self.store.all_available(ids):
            for event_id in ids:  # failure path: name the offender
                if not self.store.is_available(event_id):
                    raise CapacityError(
                        f"event {event_id} has no remaining capacity"
                    )
        if not self.conflicts.is_independent(ids):
            raise ConflictError(f"arrangement {list(ids)} contains a conflict")
        return ids

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def commit(
        self,
        user: User,
        arranged: Sequence[int],
        feedback: Callable[[int], bool],
    ) -> LedgerEntry:
        """Validate, collect feedback, update capacities, and log.

        ``feedback(event_id)`` returns whether the user accepts that
        event; it is queried once per arranged event.  Accepted events
        consume one capacity slot (line 12 of Algorithms 1/3/4).
        """
        ids = self.validate_arrangement(user, arranged)
        self._time_step += 1
        accepted = tuple([event_id for event_id in ids if feedback(event_id)])
        for event_id in accepted:
            self.store.register(event_id)
        return self.ledger.record(self._time_step, user.user_id, ids, accepted)

    def reset(self) -> None:
        """Restore capacities and start a fresh ledger."""
        self.store.reset()
        self.ledger = RegistrationLedger()
        self._time_step = 0

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """The dynamic platform state (time step, capacities, ledger)."""
        state: Dict[str, object] = {
            "time_step": self._time_step,
            "remaining": self.store.remaining_capacities,
        }
        for key, value in self.ledger.state_arrays().items():
            state[f"ledger_{key}"] = value
        return state

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Restore a snapshot from :meth:`state_dict`.

        The ledger rebuild and the capacity overwrite each validate
        their inputs before mutating, so a structurally bad snapshot
        raises instead of leaving silently corrupt state behind.
        """
        self.ledger.restore_arrays(
            {
                key[len("ledger_") :]: value  # type: ignore[misc]
                for key, value in state.items()
                if key.startswith("ledger_")
            }
        )
        self.store.restore_remaining(state["remaining"])  # type: ignore[arg-type]
        self._time_step = int(state["time_step"])  # type: ignore[arg-type]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Platform(|V|={len(self.store)}, cr={self.conflicts.conflict_ratio():.3f}, "
            f"t={self._time_step})"
        )
