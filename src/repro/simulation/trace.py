"""Arrival-trace recording and replay.

Common random numbers couple policies *within* a process; a recorded
trace extends that guarantee across processes, machines and library
versions: capture one run's full input stream — per round, the user's
capacity, the context matrix, and the acceptance thresholds — to a
single ``.npz`` file, then replay any policy against it bit-for-bit.
:func:`replay_trace` plays a trace through the shared loop,
:func:`~repro.simulation.fleet.play_fleet`, with a live run's telemetry.

Traces are also the honest way to archive an experiment's inputs next
to its outputs (the CSVs only record what policies *did*).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.bandits.base import Policy
from repro.datasets.synthetic import SyntheticWorld
from repro.ebsn.conflicts import ConflictGraph
from repro.ebsn.events import EventStore
from repro.ebsn.platform import Platform
from repro.ebsn.users import User
from repro.exceptions import ConfigurationError
from repro.simulation.environment import RoundStream
from repro.simulation.fleet import play_fleet
from repro.simulation.history import History

#: Bumped when the on-disk layout changes incompatibly.
TRACE_FORMAT_VERSION = 1


class Trace:
    """One recorded input stream: capacities, contexts, thresholds.

    ``accepts[t - 1]`` is round ``t``'s accept mask under ``theta``.
    """

    def __init__(
        self,
        user_capacities: np.ndarray,
        contexts: np.ndarray,
        thresholds: np.ndarray,
        theta: np.ndarray,
        event_capacities: np.ndarray,
        conflict_pairs: Sequence[Tuple[int, int]],
    ) -> None:
        if contexts.ndim != 3:
            raise ConfigurationError(f"contexts must be (horizon, |V|, d), got {contexts.ndim}-D")
        horizon, num_events, dim = contexts.shape
        if user_capacities.shape != (horizon,):
            raise ConfigurationError("user capacities do not match the horizon")
        if thresholds.shape != (horizon, num_events):
            raise ConfigurationError("thresholds do not match contexts")
        if theta.shape != (dim,):
            raise ConfigurationError("theta dimension mismatch")
        if event_capacities.shape != (num_events,):
            raise ConfigurationError("event capacity vector mismatch")
        self.user_capacities = user_capacities
        self.contexts = contexts
        self.thresholds = thresholds
        self.theta = theta
        self.event_capacities = event_capacities
        self.conflict_pairs = [(int(i), int(j)) for i, j in conflict_pairs]
        self.horizon, self.num_events, self.dim = horizon, num_events, dim
        self.accepts = thresholds < np.clip(np.einsum("tvd,d->tv", contexts, theta), 0.0, 1.0)

    # A trace is a round source of play_fleet: row t - 1 is round t.
    def make_platform(self) -> Platform:
        store = EventStore.from_capacities(self.event_capacities.tolist())
        return Platform(store, ConflictGraph(self.num_events, self.conflict_pairs))

    def reveal(self, t: int) -> Tuple[User, np.ndarray, np.ndarray]:
        user = User(user_id=t - 1, capacity=int(self.user_capacities[t - 1]))
        return user, self.contexts[t - 1], self.accepts[t - 1]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_suffix(path.suffix + ".npz")
        path.parent.mkdir(parents=True, exist_ok=True)
        pairs = np.asarray(self.conflict_pairs, dtype=np.int64).reshape(-1, 2)
        np.savez_compressed(
            path,
            version=np.array([TRACE_FORMAT_VERSION]),
            user_capacities=self.user_capacities,
            contexts=self.contexts,
            thresholds=self.thresholds,
            theta=self.theta,
            event_capacities=self.event_capacities,
            conflict_pairs=pairs,
        )
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Trace":
        path = Path(path)
        if not path.exists():
            raise ConfigurationError(f"no trace file at {path}")
        with np.load(path) as archive:
            if "version" not in archive:
                raise ConfigurationError(f"{path} is not a trace archive")
            version = int(archive["version"][0])
            if version != TRACE_FORMAT_VERSION:
                raise ConfigurationError(
                    f"{path} has trace version {version}, expected "
                    f"{TRACE_FORMAT_VERSION}"
                )
            return cls(
                user_capacities=archive["user_capacities"],
                contexts=archive["contexts"],
                thresholds=archive["thresholds"],
                theta=archive["theta"],
                event_capacities=archive["event_capacities"],
                conflict_pairs=[tuple(row) for row in archive["conflict_pairs"]],
            )


def record_trace(
    world: SyntheticWorld, horizon: Optional[int] = None, run_seed: int = 0
) -> Trace:
    """Capture the input stream a run with this (world, seed) would see."""
    horizon = horizon if horizon is not None else world.config.horizon
    if horizon < 1:
        raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
    rounds = RoundStream(world, run_seed)
    capacities = np.zeros(horizon, dtype=int)
    contexts = np.zeros((horizon, rounds.num_events, world.config.dim))
    thresholds = np.zeros((horizon, rounds.num_events))
    for t in range(horizon):
        user, contexts[t], thresholds[t] = rounds.draw()
        capacities[t] = user.capacity
    return Trace(
        user_capacities=capacities,
        contexts=contexts,
        thresholds=thresholds,
        theta=world.theta.copy(),
        event_capacities=world.capacities.copy(),
        conflict_pairs=list(world.conflicts.pairs()),
    )


def replay_trace(policy: Policy, trace: Trace) -> History:
    """Run ``policy`` against a recorded trace (platform-validated)."""
    return play_fleet(
        {policy.name: policy}, trace, trace.horizon, span_name="replay_trace",
        span_attrs={"policy": policy.name, "horizon": trace.horizon},
    )[policy.name]
