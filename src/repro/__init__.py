"""Reproduction of *Feedback-Aware Social Event-Participant Arrangement*
(She, Tong, Chen, Song — SIGMOD 2017).

FASEA models online event-participant arrangement on an event-based
social network as a contextual combinatorial bandit with linear payoff.
This package implements the paper's algorithms (TS, UCB, eGreedy,
Exploit, Random, OPT), the EBSN platform substrate they run on, the
synthetic and Damai-like real datasets, and an experiment harness that
regenerates every table and figure of the paper's evaluation.

Quickstart::

    from repro import SyntheticConfig, build_world, make_policy, run_policy

    world = build_world(SyntheticConfig.scaled_default(seed=42))
    ucb = make_policy("UCB", dim=world.config.dim)
    history = run_policy(ucb, world, horizon=2000)
    print(history.total_reward, history.overall_accept_ratio)
"""

from repro.bandits import (
    EpsilonGreedyPolicy,
    ExploitPolicy,
    LinearModel,
    OptPolicy,
    Policy,
    RandomPolicy,
    RoundView,
    ThompsonSamplingPolicy,
    UcbPolicy,
    make_policy,
)
from repro.datasets import SyntheticConfig, SyntheticWorld, build_world
from repro.ebsn import (
    ConflictGraph,
    Event,
    EventStore,
    Platform,
    RegistrationLedger,
    User,
    UserArrivalStream,
)
from repro.metrics import kendall_tau, summarize
from repro.oracle import exact_arrangement, oracle_greedy, random_arrangement
from repro.simulation import (
    History,
    build_basic_world,
    default_checkpoints,
    run_policy,
)

__version__ = "1.0.0"

__all__ = [
    "ConflictGraph",
    "EpsilonGreedyPolicy",
    "Event",
    "EventStore",
    "ExploitPolicy",
    "History",
    "LinearModel",
    "OptPolicy",
    "Platform",
    "Policy",
    "RandomPolicy",
    "RegistrationLedger",
    "RoundView",
    "SyntheticConfig",
    "SyntheticWorld",
    "ThompsonSamplingPolicy",
    "UcbPolicy",
    "User",
    "UserArrivalStream",
    "build_basic_world",
    "build_world",
    "default_checkpoints",
    "exact_arrangement",
    "kendall_tau",
    "make_policy",
    "oracle_greedy",
    "random_arrangement",
    "run_policy",
    "summarize",
]
