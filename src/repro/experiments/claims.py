"""Executable checks of the paper's Section-5.2 summary claims.

The paper closes its evaluation with three summary bullets.  This
module turns each one (plus the [9] premise it rests on) into a
*checkable claim*: a short simulation plus a predicate.  ``fasea
claims`` runs them all and prints a verdict table — a reproduction you
can re-certify in one command.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.bandits import OptPolicy, make_policy
from repro.datasets.damai import load_damai
from repro.datasets.synthetic import SyntheticConfig, build_world
from repro.exceptions import ConfigurationError
from repro.experiments.config import compare_policies
from repro.mab import BetaThompsonSampling, Ucb1, run_mab
from repro.mab.arms import random_arms
from repro.obs.core import NULL_OBS
from repro.simulation.fleet import run_policy_fleet
from repro.simulation.realdata import run_real_policy


@dataclass(frozen=True)
class ClaimResult:
    """Verdict of one checked claim."""

    claim_id: str
    statement: str
    holds: bool
    evidence: str
    seconds: float


def _default_runs(horizon: int, seed: int):
    config = SyntheticConfig.scaled_default(seed=seed).with_overrides(
        horizon=horizon
    )
    return compare_policies(config, run_seed=seed, policy_seed=7).all_histories()


def check_ucb_exploit_best(horizon: int = 3000, seed: int = 42) -> Tuple[bool, str]:
    """Claim 1a: UCB and Exploit perform best; TS only beats Random."""
    runs = _default_runs(horizon, seed)
    rewards = {name: run.total_reward for name, run in runs.items()}
    holds = (
        rewards["UCB"] > rewards["TS"]
        and rewards["Exploit"] > rewards["TS"]
        and rewards["eGreedy"] > rewards["TS"]
        and rewards["TS"] > rewards["Random"]
    )
    evidence = ", ".join(
        f"{name}={rewards[name]:.0f}"
        for name in ("OPT", "UCB", "Exploit", "eGreedy", "TS", "Random")
    )
    return holds, evidence


def check_ts_wins_basic_mab(seed: int = 0) -> Tuple[bool, str]:
    """Premise from [9]: TS beats UCB1 under the basic bandit."""
    ts_total = ucb_total = 0.0
    for instance in range(5):
        arms = random_arms(10, seed=seed + instance)
        ts_total += run_mab(
            BetaThompsonSampling(10, seed=instance), arms, 3000, seed=50 + instance
        ).expected_regret()
        ucb_total += run_mab(Ucb1(10), arms, 3000, seed=50 + instance).expected_regret()
    return ts_total < ucb_total, (
        f"avg basic-bandit regret: TS-Beta={ts_total / 5:.1f}, "
        f"UCB1={ucb_total / 5:.1f}"
    )


def check_ucb_escapes_lock_in(horizon: int = 300) -> Tuple[bool, str]:
    """Claim 2: UCB avoids the all-reject lock-in that traps Exploit."""
    dataset = load_damai()
    locked_users = []
    for user in dataset.users:
        exploit = run_real_policy(
            make_policy("Exploit", dim=dataset.dim, seed=1),
            dataset,
            user,
            5,
            horizon,
        )
        if exploit.total_reward == 0:
            locked_users.append(user)
    if not locked_users:
        return False, "no user traps Exploit on this dataset seed"
    user = locked_users[0]
    ucb = run_real_policy(
        make_policy("UCB", dim=dataset.dim, seed=1), dataset, user, 5, horizon
    )
    holds = ucb.overall_accept_ratio > 0.3
    return holds, (
        f"{len(locked_users)} user(s) lock Exploit at 0; on u{user.user_id + 1} "
        f"UCB reaches accept ratio {ucb.overall_accept_ratio:.2f}"
    )


def check_efficiency_ordering(rounds: int = 150, repeats: int = 3) -> Tuple[bool, str]:
    """Claim 3: all algorithms are fast; eGreedy/Exploit fastest of the
    learners, Random fastest overall.

    Each policy is timed ``repeats`` times (fresh policies, one
    uninstrumented fleet per repeat) and the minimum of its
    ``avg_round_time`` is kept — after the batched-Woodbury/top-k
    kernel work the per-round margins are a few tens of microseconds,
    so a single noisy pass is not a reliable ranking.  The fleet steps
    the five policies in lockstep, round by round, so a slow stretch of
    the machine lands on every policy instead of on one policy's
    back-to-back rounds.
    """
    config = SyntheticConfig.scaled_default(seed=0)
    world = build_world(config)
    names = ("UCB", "TS", "eGreedy", "Exploit", "Random")
    times = dict.fromkeys(names, float("inf"))
    for _ in range(max(repeats, 1)):
        policies = {name: make_policy(name, dim=config.dim, seed=1) for name in names}
        runs = run_policy_fleet(policies, world, horizon=rounds, obs=NULL_OBS)
        for name, run in runs.items():
            times[name] = min(times[name], run.avg_round_time)
    holds = (
        times["Random"] < times["UCB"]
        and times["Exploit"] < times["UCB"]
        and times["eGreedy"] < times["UCB"]
        and max(times.values()) < 0.05  # "all efficient": < 50 ms/round
    )
    evidence = ", ".join(
        f"{name}={1000 * t:.2f}ms" for name, t in sorted(times.items())
    )
    return holds, evidence


def check_ts_recovers_at_d1(horizon: int = 2500, seed: int = 5) -> Tuple[bool, str]:
    """Figure 4's corollary: TS becomes competitive when d = 1."""
    config = SyntheticConfig.scaled_default(seed=seed).with_overrides(
        horizon=horizon, dim=1
    )
    world = build_world(config)
    runs = run_policy_fleet(
        {"OPT": OptPolicy(world.theta), "TS": make_policy("TS", dim=1, seed=7)},
        world,
    )
    opt, ts = runs["OPT"], runs["TS"]
    ratio = ts.total_reward / max(opt.total_reward, 1.0)
    return ratio > 0.8, f"TS collects {ratio:.0%} of OPT's reward at d=1"


#: Registry of (id, statement, checker).
CLAIMS: List[Tuple[str, str, Callable[[], Tuple[bool, str]]]] = [
    (
        "C1",
        "UCB/Exploit best, eGreedy close, TS only beats Random (FASEA default)",
        check_ucb_exploit_best,
    ),
    (
        "C2",
        "TS beats UCB1 under the basic multi-armed bandit (premise from [9])",
        check_ts_wins_basic_mab,
    ),
    (
        "C3",
        "UCB escapes the all-reject lock-in that freezes Exploit (real data)",
        check_ucb_escapes_lock_in,
    ),
    (
        "C4",
        "All algorithms are time-efficient; Random/eGreedy/Exploit fastest",
        check_efficiency_ordering,
    ),
    (
        "C5",
        "TS becomes competitive when the dimension drops to d = 1",
        check_ts_recovers_at_d1,
    ),
]


def run_claims(only: Optional[List[str]] = None) -> List[ClaimResult]:
    """Run all (or a subset of) claims and collect verdicts.

    Raises :class:`~repro.exceptions.ConfigurationError` naming any id
    in ``only`` that is not a registered claim.
    """
    known = [claim_id for claim_id, _, _ in CLAIMS]
    unknown = sorted(set(only or ()) - set(known))
    if unknown:
        raise ConfigurationError(
            f"unknown claim id(s) {', '.join(unknown)}; known: {', '.join(known)}"
        )
    results: List[ClaimResult] = []
    for claim_id, statement, checker in CLAIMS:
        if only and claim_id not in only:
            continue
        started = time.perf_counter()
        holds, evidence = checker()
        results.append(
            ClaimResult(
                claim_id=claim_id,
                statement=statement,
                holds=holds,
                evidence=evidence,
                seconds=time.perf_counter() - started,
            )
        )
    return results
