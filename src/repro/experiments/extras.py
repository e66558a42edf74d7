"""Extra experiments beyond the paper's own figures.

* ``mab`` — the Chapelle & Li [9] contrast: cumulative regret of the
  classic algorithms on a basic Bernoulli bandit, where TS *wins*.
  Running this next to fig1 exhibits the paper's central tension in one
  results directory.
* ``ext`` — the Remark 1 / Remark 2 extensions: per-user models vs one
  shared model on a roster of users with opposed tastes, and rotating
  event sets.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bandits import RandomPolicy, UcbPolicy
from repro.datasets.synthetic import SyntheticConfig, SyntheticWorld, build_world
from repro.ebsn.platform import Platform
from repro.ebsn.users import User
from repro.experiments.reporting import ExperimentResult, TableBlock
from repro.extensions import (
    DynamicEventSchedule,
    PerUserPolicyPool,
    run_dynamic_policy,
)
from repro.linalg.sampling import make_rng
from repro.mab import (
    BetaThompsonSampling,
    EpsilonGreedyMab,
    RandomMab,
    Ucb1,
    run_mab,
)
from repro.mab.arms import random_arms
from repro.simulation.fleet import play_fleet


def mab_experiment(
    scale: str = "scaled",
    seed: int = 0,
    horizon: Optional[int] = None,
    num_arms: int = 10,
) -> ExperimentResult:
    """Basic Bernoulli bandit: the world where TS wins (premise [9])."""
    horizon = horizon if horizon is not None else 10_000
    arms = random_arms(num_arms, seed=seed)
    checkpoints = [
        t for t in range(max(horizon // 20, 1), horizon + 1, max(horizon // 20, 1))
    ]
    algorithms = {
        "UCB1": Ucb1(num_arms),
        "TS-Beta": BetaThompsonSampling(num_arms, seed=seed),
        "eGreedy-MAB": EpsilonGreedyMab(num_arms, epsilon=0.1, seed=seed),
        "Random-MAB": RandomMab(num_arms, seed=seed),
    }
    curves: Dict[str, Dict[str, List[float]]] = {"cumulative_regret": {}}
    for name, algorithm in algorithms.items():
        history = run_mab(algorithm, arms, horizon, seed=seed + 1)
        regret = history.cumulative_regret()
        curves["cumulative_regret"][name] = [
            float(regret[t - 1]) for t in checkpoints
        ]
    return ExperimentResult(
        experiment_id="mab",
        title="Basic multi-armed bandit (the [9] contrast)",
        params={
            "num_arms": num_arms,
            "horizon": horizon,
            "best_mean": round(max(a.mean for a in arms), 3),
            "seed": seed,
        },
        checkpoints=checkpoints,
        curves=curves,
        notes=(
            "With independent arms TS-Beta's regret is the lowest — the "
            "opposite of its FASEA ranking (fig1). The coupling through a "
            "shared theta is what flips the ordering."
        ),
    )


class OpposedRoster:
    """Remark 1's round source: user ``(t - 1) % 3`` accepts by their own theta.

    Contexts, then thresholds, come from one ``make_rng(seed)`` stream
    no policy reads, so each policy sees the rounds it would see alone.
    """

    theta: Optional[np.ndarray] = None  # one theta per user, none overall

    def __init__(self, world: SyntheticWorld, thetas: Sequence[np.ndarray], seed: int) -> None:
        self.world = world
        self.thetas = thetas
        self.sampler = world.make_context_sampler()
        self.rng = make_rng(seed)

    def make_platform(self) -> Platform:
        return Platform(self.world.make_store(), self.world.conflicts)

    def reveal(self, t: int) -> Tuple[User, np.ndarray, np.ndarray]:
        user = User(user_id=(t - 1) % len(self.thetas), capacity=3)
        contexts = self.sampler.sample(self.rng)
        probabilities = np.clip(contexts @ self.thetas[user.user_id], 0.0, 1.0)
        return user, contexts, self.rng.uniform(size=contexts.shape[0]) < probabilities


def extensions_experiment(
    scale: str = "scaled",
    seed: int = 3,
    horizon: Optional[int] = None,
) -> ExperimentResult:
    """Remark 1 (per-user theta) and Remark 2 (dynamic event sets)."""
    horizon = horizon if horizon is not None else 3000
    config = SyntheticConfig.scaled_default(seed=seed, dim=8)
    world = build_world(config)
    thetas = [world.theta, -world.theta, np.roll(world.theta, 3)]

    models = {
        "UCB": UcbPolicy(dim=config.dim),
        "PerUser": PerUserPolicyPool(lambda user_id: UcbPolicy(dim=config.dim)),
    }
    roster = play_fleet(
        models, OpposedRoster(world, thetas, seed=1234), horizon, span_name="roster",
        span_attrs={"policies": list(models), "horizon": horizon},
    )

    schedule = DynamicEventSchedule.round_robin(
        num_events=config.num_events, num_phases=2, phase_length=50
    )
    dynamic_rows = []
    for name, policy in [
        ("UCB", UcbPolicy(dim=config.dim)),
        ("Random", RandomPolicy(seed=4)),
    ]:
        history = run_dynamic_policy(
            policy, world, schedule, horizon=horizon, run_seed=0
        )
        dynamic_rows.append(
            [name, history.overall_accept_ratio, history.total_reward]
        )

    return ExperimentResult(
        experiment_id="ext",
        title="Paper Remarks 1-2: per-user models and dynamic event sets",
        params={"horizon": horizon, "seed": seed, "dim": config.dim},
        tables=[
            TableBlock(
                "Remark 1: 3 opposed users",
                ["model", "accept_ratio"],
                [
                    ["shared UCB", roster["UCB"].overall_accept_ratio],
                    ["per-user UCB pool", roster["PerUser"].overall_accept_ratio],
                ],
            ),
            TableBlock(
                "Remark 2: rotating event sets (2 phases)",
                ["policy", "accept_ratio", "total_reward"],
                dynamic_rows,
            ),
        ],
        notes=(
            "Per-user models dominate when tastes genuinely differ; the "
            "dynamic schedule leaves the learning machinery untouched."
        ),
    )
