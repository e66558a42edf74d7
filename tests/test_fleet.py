"""Fleet runner: equivalence with individual runs, and pairing."""

import numpy as np
import pytest

from repro.bandits import POLICY_NAMES, OptPolicy, RandomPolicy, UcbPolicy, make_policy
from repro.datasets.synthetic import SyntheticConfig, build_world
from repro.exceptions import ConfigurationError
from repro.oracle.greedy import _PREFIX_MIN_EVENTS
from repro.simulation.fleet import run_policy_fleet
from repro.simulation.runner import run_policy


def test_fleet_matches_individual_runs_exactly(small_world):
    """Bit-for-bit equivalence with run_policy on the same seed."""
    fleet = run_policy_fleet(
        {
            "UCB": UcbPolicy(dim=4),
            "Random": RandomPolicy(seed=9),
            "OPT": OptPolicy(small_world.theta),
        },
        small_world,
        horizon=80,
        run_seed=5,
    )
    for name, policy in [
        ("UCB", UcbPolicy(dim=4)),
        ("Random", RandomPolicy(seed=9)),
        ("OPT", OptPolicy(small_world.theta)),
    ]:
        individual = run_policy(policy, small_world, horizon=80, run_seed=5)
        assert np.array_equal(fleet[name].rewards, individual.rewards), name
        assert np.array_equal(fleet[name].arranged, individual.arranged), name


def test_fleet_histories_carry_the_dict_names(small_world):
    fleet = run_policy_fleet(
        {"ucb-a1": UcbPolicy(dim=4, alpha=1.0), "ucb-a2": UcbPolicy(dim=4, alpha=2.0)},
        small_world,
        horizon=30,
    )
    assert fleet["ucb-a1"].policy_name == "ucb-a1"
    assert fleet["ucb-a2"].policy_name == "ucb-a2"


def test_fleet_kendall_tracking(small_world):
    fleet = run_policy_fleet(
        {"UCB": UcbPolicy(dim=4)},
        small_world,
        horizon=60,
        track_kendall=True,
        kendall_checkpoints=[20, 60],
    )
    history = fleet["UCB"]
    assert history.kendall_steps.tolist() == [20, 60]
    assert history.kendall_taus.shape == (2,)


def test_fleet_requires_policies(small_world):
    with pytest.raises(ConfigurationError):
        run_policy_fleet({}, small_world, horizon=10)


def test_fleet_capacities_evolve_independently(small_world):
    """OPT may exhaust an event that Random never touches."""
    fleet = run_policy_fleet(
        {"OPT": OptPolicy(small_world.theta), "Random": RandomPolicy(seed=0)},
        small_world,
        horizon=150,
    )
    # Both respected their own capacity accounting.
    assert fleet["OPT"].total_reward <= small_world.capacities.sum()
    assert fleet["Random"].total_reward <= small_world.capacities.sum()
    assert fleet["OPT"].total_reward != fleet["Random"].total_reward


# ----------------------------------------------------------------------
# Fleet == per-policy definition, for the whole suite, in every regime
# ----------------------------------------------------------------------
#: Tiny worlds matching the benchmark's regimes.  Every multi-policy
#: path runs through the fleet, so this is the check that it still
#: matches running each policy on its own.
REGIMES = {
    # Above the oracle's switch to the top-m prefix scan.
    "prefix_oracle": SyntheticConfig(
        num_events=_PREFIX_MIN_EVENTS + 88, horizon=25, dim=4,
        capacity_mean=50.0, capacity_std=5.0, seed=1,
    ),
    # 24 seats in all: OPT fills every one well before the horizon.
    "drained": SyntheticConfig(
        num_events=12, horizon=60, dim=4,
        capacity_mean=2.0, capacity_std=1.0, seed=2,
    ),
    "high_dim": SyntheticConfig(
        num_events=20, horizon=30, dim=120,
        capacity_mean=50.0, capacity_std=5.0, seed=3,
    ),
}
SUITE = ("OPT", *POLICY_NAMES)


def _suite_policy(name, world):
    if name == "OPT":
        return OptPolicy(world.theta)
    return make_policy(name, dim=world.config.dim, seed=3)


@pytest.fixture(scope="module", params=sorted(REGIMES))
def regime_fleet(request):
    """One regime's world and the whole suite's fleet histories."""
    world = build_world(REGIMES[request.param])
    fleet = run_policy_fleet(
        {name: _suite_policy(name, world) for name in SUITE}, world, run_seed=4
    )
    return request.param, world, fleet


def test_regime_worlds_are_in_their_regimes(regime_fleet):
    regime, world, fleet = regime_fleet
    if regime == "prefix_oracle":
        assert len(world.capacities) >= _PREFIX_MIN_EVENTS
    elif regime == "drained":
        opt = fleet["OPT"]
        assert opt.total_reward == world.capacities.sum()
        assert opt.arranged[-1] == 0  # drained before the last round
    else:
        assert world.config.dim >= 100


@pytest.mark.parametrize("name", SUITE)
def test_fleet_matches_individual_runs_in_every_regime(regime_fleet, name):
    """Each suite member's fleet history equals its own run_policy."""
    regime, world, fleet = regime_fleet
    individual = run_policy(_suite_policy(name, world), world, run_seed=4)
    assert np.array_equal(fleet[name].rewards, individual.rewards), regime
    assert np.array_equal(fleet[name].arranged, individual.arranged), regime
