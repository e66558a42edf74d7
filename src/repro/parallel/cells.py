"""FASEA work units: picklable experiment cells and their runners.

A *cell* is the atom the executor fans out: one ``(world seed, run
seed)`` slice of a replication, or one override combination of a grid
sweep.  Within a cell the whole policy suite (OPT + learners) is played
with :func:`~repro.simulation.fleet.run_policy_fleet`, which draws each
round's user/context/threshold streams **once** and steps every policy
against them in lockstep — bit-for-bit identical to running each policy
individually (``tests/test_fleet.py`` asserts this), but without paying
the ``|V| x d`` context generation once per policy.

Cells are the only execution path of ``replicate_policies`` and
``sweep``: ``jobs=1`` runs them inline, ``jobs>1`` over a process pool,
and nothing else differs.  Cell runners are module-level functions
taking a single frozen dataclass payload, so they pickle by reference
into worker processes and stay trivially callable inline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.bandits import OptPolicy, make_policy
from repro.bandits.base import Policy
from repro.datasets.synthetic import SyntheticConfig, build_world
from repro.io.checkpoint import CellCheckpointSpec
from repro.obs.core import current
from repro.obs.flight import cell_record
from repro.simulation.fleet import run_policy_fleet
from repro.simulation.history import History
from repro.simulation.runner import run_policy

#: Reserved fleet key for the full-knowledge reference policy.
OPT_KEY = "OPT"


@dataclass(frozen=True)
class ReplicationCell:
    """One seed of a multi-seed replication (OPT + the policy suite)."""

    config: SyntheticConfig
    seed: int
    horizon: int
    policy_names: Tuple[str, ...]
    policy_seed: int
    #: Round-granular crash recovery for this cell.  Excluded from the
    #: executor's unit digest (see repro.io.checkpoint.unit_digest):
    #: where a cell saves — and whether it resumes — is wiring, not
    #: work identity.
    checkpoint: Optional[CellCheckpointSpec] = None


def run_replication_cell(cell: ReplicationCell) -> Dict[str, History]:
    """Play OPT and every policy of one replication seed; key by name.

    The world is rebuilt from ``config`` with the cell's seed and every
    policy plays with ``run_seed = seed``.
    """
    world = build_world(cell.config.with_overrides(seed=cell.seed))
    policies = {OPT_KEY: OptPolicy(world.theta)}
    for name in cell.policy_names:
        policies[name] = make_policy(
            name, dim=cell.config.dim, seed=cell.policy_seed
        )
    flight = current().flight_recorder
    if flight is not None:
        # Group this seed's decisions behind a cell marker so the log
        # stays parseable per seed after the submission-order merge.
        flight.record(cell_record(cell.seed))
    return run_policy_fleet(
        policies,
        world,
        horizon=cell.horizon,
        run_seed=cell.seed,
        checkpoint=cell.checkpoint,
    )


@dataclass(frozen=True)
class PolicyRunCell:
    """One (policy, run seed) slice of a multi-policy run.

    ``policy_name`` is either :data:`OPT_KEY` (the clairvoyant
    reference, built from the world's true theta) or a
    :func:`~repro.bandits.make_policy` name.
    """

    config: SyntheticConfig
    policy_name: str
    horizon: int
    run_seed: int
    policy_seed: int
    #: Round-granular crash recovery (digest-exempt wiring; see
    #: :class:`ReplicationCell`).
    checkpoint: Optional[CellCheckpointSpec] = None


def run_policy_run_cell(cell: PolicyRunCell) -> History:
    """Play one policy against the cell's world via the round runner."""
    world = build_world(cell.config)
    policy: Policy
    if cell.policy_name == OPT_KEY:
        policy = OptPolicy(world.theta)
    else:
        policy = make_policy(
            cell.policy_name, dim=cell.config.dim, seed=cell.policy_seed
        )
    return run_policy(
        policy,
        world,
        horizon=cell.horizon,
        run_seed=cell.run_seed,
        checkpoint=cell.checkpoint,
    )


@dataclass(frozen=True)
class GridCell:
    """One override combination of a parameter-grid sweep."""

    config: SyntheticConfig
    overrides: Tuple[Tuple[str, object], ...]
    horizon: int
    policy_names: Tuple[str, ...]
    run_seed: int
    policy_seed: int


@dataclass(frozen=True)
class GridCellResult:
    """Scalar outcomes of one grid cell, ready for merging."""

    overrides: Tuple[Tuple[str, object], ...]
    accept_ratios: Dict[str, float]
    total_regrets: Dict[str, float]


def run_grid_cell(cell: GridCell) -> GridCellResult:
    """Run the policy suite on one grid cell via the fleet runner."""
    world = build_world(cell.config)
    policies = {OPT_KEY: OptPolicy(world.theta)}
    for name in cell.policy_names:
        policies[name] = make_policy(
            name, dim=cell.config.dim, seed=cell.policy_seed
        )
    histories = run_policy_fleet(
        policies, world, horizon=cell.horizon, run_seed=cell.run_seed
    )
    opt_history = histories[OPT_KEY]
    accept = {OPT_KEY: opt_history.overall_accept_ratio}
    regrets: Dict[str, float] = {}
    for name in cell.policy_names:
        accept[name] = histories[name].overall_accept_ratio
        regrets[name] = opt_history.total_reward - histories[name].total_reward
    return GridCellResult(
        overrides=cell.overrides, accept_ratios=accept, total_regrets=regrets
    )
