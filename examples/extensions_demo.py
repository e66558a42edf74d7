#!/usr/bin/env python
"""The paper's Remark 1 and Remark 2 extensions in action.

Remark 1 — per-user models: three returning users with *different*
tastes share one platform.  A single shared model must average their
conflicting preferences; a :class:`PerUserPolicyPool` learns one theta
per user and wins.

Remark 2 — time-varying event sets: the catalogue rotates (weekday
events vs weekend events); policies only ever see the active subset but
keep one shared model across phases.

Run with::

    python examples/extensions_demo.py
"""

import numpy as np

from repro.bandits import UcbPolicy, make_policy
from repro.datasets.synthetic import SyntheticConfig, build_world
from repro.experiments.extras import OpposedRoster
from repro.extensions import DynamicEventSchedule, PerUserPolicyPool, run_dynamic_policy
from repro.simulation.fleet import play_fleet


def per_user_demo() -> None:
    """Three users with opposed tastes: shared model vs per-user pool."""
    config = SyntheticConfig.scaled_default(seed=3, dim=8)
    world = build_world(config)
    # Three opposed true preference vectors.
    thetas = [world.theta, -world.theta, np.roll(world.theta, 3)]
    models = {
        "shared UCB model": UcbPolicy(dim=config.dim),
        "per-user UCB pool": PerUserPolicyPool(lambda user_id: UcbPolicy(dim=config.dim)),
    }
    histories = play_fleet(
        models, OpposedRoster(world, thetas, seed=1234), 3000,
        span_name="roster", span_attrs={"policies": list(models)},
    )
    print("Remark 1 - per-user models (3 users with opposed tastes):")
    for label, history in histories.items():
        print(f"  {label:<22} accept ratio {history.overall_accept_ratio:.3f}")


def dynamic_events_demo() -> None:
    """Rotating weekday/weekend catalogues (Remark 2)."""
    config = SyntheticConfig.scaled_default(seed=5)
    world = build_world(config)
    schedule = DynamicEventSchedule.round_robin(
        num_events=config.num_events, num_phases=2, phase_length=50
    )
    print("\nRemark 2 - rotating event sets (2 phases of 50 rounds):")
    for name in ("UCB", "Random"):
        policy = make_policy(name, dim=config.dim, seed=4)
        history = run_dynamic_policy(policy, world, schedule, horizon=4000)
        print(
            f"  {name:<10} accept ratio {history.overall_accept_ratio:.3f} "
            f"total reward {history.total_reward:.0f}"
        )


if __name__ == "__main__":
    per_user_demo()
    dynamic_events_demo()
