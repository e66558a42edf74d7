"""Multi-seed replication of a policy comparison.

Runs the paper's five policies (plus OPT) on several world/run seeds
and aggregates the scalar metrics with bootstrap confidence intervals.
This is the statistically honest version of every "A beats B" claim in
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.bootstrap import bootstrap_mean_ci
from repro.bandits import POLICY_NAMES
# build_world stays a module attribute: perfbench/layers.py wraps it here
# to time the world builds of a traced replication.
from repro.datasets.synthetic import SyntheticConfig, build_world  # noqa: F401
from repro.exceptions import ConfigurationError
from repro.io.checkpoint import (
    DEFAULT_CHECKPOINT_EVERY,
    CellCheckpointSpec,
    ExecutorCheckpoint,
)
from repro.io.runstore import RunStore
from repro.parallel import (
    ReplicationCell,
    UnitFailure,
    run_replication_cell,
    run_work_units,
)
from repro.simulation.history import History


@dataclass
class ReplicationResult:
    """Aggregated metrics of one configuration across seeds."""

    config: SyntheticConfig
    seeds: Tuple[int, ...]
    horizon: int
    #: policy -> list of per-seed values.
    accept_ratios: Dict[str, List[float]] = field(default_factory=dict)
    total_regrets: Dict[str, List[float]] = field(default_factory=dict)
    #: seed -> failure placeholder (``keep_going`` runs only): these
    #: seeds contribute nothing to the aggregates above, so confidence
    #: intervals are over the surviving seeds.
    failures: Dict[int, UnitFailure] = field(default_factory=dict)

    def accept_ratio_ci(
        self, policy: str, confidence: float = 0.95
    ) -> Tuple[float, float, float]:
        """(mean, low, high) of the accept ratio across seeds."""
        return bootstrap_mean_ci(
            self.accept_ratios[policy], confidence=confidence, seed=0
        )

    def regret_ci(
        self, policy: str, confidence: float = 0.95
    ) -> Tuple[float, float, float]:
        """(mean, low, high) of the total regret across seeds."""
        return bootstrap_mean_ci(
            self.total_regrets[policy], confidence=confidence, seed=0
        )

    def dominates(self, better: str, worse: str) -> bool:
        """Whether ``better`` beats ``worse`` on accept ratio on *every* seed."""
        return all(
            b > w
            for b, w in zip(self.accept_ratios[better], self.accept_ratios[worse])
        )

    def summary_rows(self) -> List[List[object]]:
        """Rows of (policy, mean ratio, CI, mean regret) for reporting."""
        rows: List[List[object]] = []
        for policy in sorted(self.accept_ratios):
            mean, low, high = self.accept_ratio_ci(policy)
            if policy in self.total_regrets:
                regret_mean, _, _ = self.regret_ci(policy)
            else:
                regret_mean = None
            rows.append([policy, mean, low, high, regret_mean])
        return rows


def replicate_policies(
    config: SyntheticConfig,
    seeds: Sequence[int],
    horizon: Optional[int] = None,
    policy_names: Sequence[str] = POLICY_NAMES,
    policy_seed: int = 1,
    store: Optional[RunStore] = None,
    experiment: str = "replication",
    jobs: Optional[int] = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    keep_going: bool = False,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    resume: bool = False,
) -> ReplicationResult:
    """Run each policy on every seed; optionally log into a RunStore.

    Each seed rebuilds the world (new theta/capacities/conflicts) *and*
    the run streams, so variation across seeds captures both sources.

    Every seed is one :class:`~repro.parallel.ReplicationCell`: the
    whole suite (OPT + ``policy_names``) plays on one shared stream via
    the fleet runner, so each round's contexts are drawn once, not once
    per policy.  There is one execution path; ``jobs`` only chooses
    where the cells run — inline at ``1``, over a process pool above it
    (``0`` = all CPUs).  Common-random-number coupling makes the cells
    independent, so the merged metrics are **identical** for every
    ``jobs`` — only wall clock changes.  RunStore logging always
    happens in the parent process, in seed order.

    ``timeout``/``retries``/``keep_going`` are the executor's fault-
    tolerance controls (see :func:`repro.parallel.run_work_units`);
    with ``keep_going`` a crashed seed lands in ``result.failures``
    and the surviving seeds still aggregate.  ``checkpoint_dir``
    enables crash recovery: every cell saves a round-granular
    checkpoint every ``checkpoint_every`` rounds and every finished
    cell's result is cached, so ``resume=True`` replays finished seeds
    bit-identically and continues the interrupted one from its last
    saved round.
    """
    seeds = tuple(seeds)
    if not seeds:
        raise ConfigurationError("need at least one seed")
    horizon = horizon if horizon is not None else config.horizon
    result = ReplicationResult(config=config, seeds=seeds, horizon=horizon)
    result.accept_ratios = {name: [] for name in ("OPT", *policy_names)}
    result.total_regrets = {name: [] for name in policy_names}
    executor_checkpoint: Optional[ExecutorCheckpoint] = None
    if checkpoint_dir is not None:
        executor_checkpoint = ExecutorCheckpoint(Path(checkpoint_dir), resume=resume)
    cells = [
        ReplicationCell(
            config=config,
            seed=seed,
            horizon=horizon,
            policy_names=tuple(policy_names),
            policy_seed=policy_seed,
            checkpoint=(
                CellCheckpointSpec(
                    directory=str(checkpoint_dir),
                    key=f"seed-{seed}",
                    every=checkpoint_every,
                    resume=resume,
                )
                if checkpoint_dir is not None
                else None
            ),
        )
        for seed in seeds
    ]
    outcomes = run_work_units(
        run_replication_cell,
        cells,
        jobs=jobs,
        timeout=timeout,
        retries=retries,
        keep_going=keep_going,
        checkpoint=executor_checkpoint,
    )
    for seed, outcome in zip(seeds, outcomes):
        if isinstance(outcome, UnitFailure):
            result.failures[seed] = outcome
            continue
        _merge_seed(result, outcome, policy_names, store, experiment, seed)
    return result


def _merge_seed(
    result: ReplicationResult,
    histories: Dict[str, History],
    policy_names: Sequence[str],
    store: Optional[RunStore],
    experiment: str,
    seed: int,
) -> None:
    """Fold one cell's histories into ``result`` (seed order)."""
    opt_history = histories["OPT"]
    result.accept_ratios["OPT"].append(opt_history.overall_accept_ratio)
    if store is not None:
        store.record_history(experiment, opt_history, seed=seed, run_seed=seed)
    for name in policy_names:
        history = histories[name]
        result.accept_ratios[name].append(history.overall_accept_ratio)
        result.total_regrets[name].append(
            opt_history.total_reward - history.total_reward
        )
        if store is not None:
            store.record_history(
                experiment, history, seed=seed, run_seed=seed, reference=opt_history
            )
    return None
