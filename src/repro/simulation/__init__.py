"""Simulation engine: the input stream, the round loop, and histories.

* :class:`~repro.simulation.environment.RoundStream` — the
  common-random-numbers input stream of one ``(world, run_seed)``;
  each policy commits against its own
  :class:`~repro.ebsn.platform.Platform` (capacities, conflicts,
  multi-event arrangements).
* :mod:`~repro.simulation.basic` — the basic contextual bandit setting
  of Section 5.2's final experiments (no capacities/conflicts, one
  event per round).
* :func:`~repro.simulation.fleet.run_policy_fleet` — the round loop:
  plays several policies in lockstep on one shared stream.
* :func:`~repro.simulation.runner.run_policy` — a fleet of one: plays
  one policy for ``T`` rounds and returns a
  :class:`~repro.simulation.history.History`, whose ``avg_round_time``
  is the per-round time of Tables 5-6.
* :mod:`~repro.simulation.realdata` — the Damai replay source (same user
  and contexts every round, deterministic feedback).
"""

from repro.simulation.basic import build_basic_world
from repro.simulation.history import History, default_checkpoints
from repro.simulation.runner import run_policy

__all__ = [
    "History",
    "build_basic_world",
    "default_checkpoints",
    "run_policy",
]
