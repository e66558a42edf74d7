"""Runners for every figure of the paper's evaluation (Figures 1-13).

Each ``figureN`` function reruns the corresponding experiment and
returns an :class:`~repro.experiments.reporting.ExperimentResult`
holding the same curve families the paper plots.  ``scale="scaled"``
(the default) uses the proportionally shrunk Table 4 setting described
in DESIGN.md; ``scale="paper"`` runs the published sizes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.bandits import POLICY_NAMES, OptPolicy, Policy, make_policy
from repro.datasets.damai import load_damai
from repro.experiments.config import (
    DEFAULT_ALPHA,
    DEFAULT_DELTA,
    DEFAULT_EPSILON,
    DEFAULT_LAM,
    base_config,
    compare_policies,
    metric_curves,
    scaled_capacity,
    scaled_num_events,
)
from repro.experiments.reporting import ExperimentResult
from repro.simulation.basic import build_basic_world
from repro.simulation.fleet import run_policy_fleet
from repro.simulation.history import default_checkpoints
from repro.simulation.realdata import (
    full_knowledge_history,
    resolve_capacity,
    run_real_policy,
)


def _merge_curves(
    target: Dict[str, Dict[str, List[float]]],
    source: Dict[str, Dict[str, List[float]]],
    label_suffix: str,
) -> None:
    for metric, series in source.items():
        bucket = target.setdefault(metric, {})
        for name, values in series.items():
            bucket[f"{name} {label_suffix}".strip()] = values


# ----------------------------------------------------------------------
# Figure 1 + Figure 2 (default setting)
# ----------------------------------------------------------------------
def figure1(
    scale: str = "scaled",
    seed: int = 0,
    run_seed: int = 0,
    policy_seed: int = 1,
    horizon: Optional[int] = None,
) -> ExperimentResult:
    """Default-setting curves: accept ratio / rewards / regrets / ratio."""
    config = base_config(scale, seed)
    suite = compare_policies(
        config, horizon=horizon, run_seed=run_seed, policy_seed=policy_seed
    )
    return ExperimentResult(
        experiment_id="fig1",
        title="FASEA under the default setting",
        params={"scale": scale, **_config_params(config, suite.horizon)},
        checkpoints=suite.checkpoints,
        curves=metric_curves(suite),
        notes=(
            "Expected shape: UCB/Exploit best, eGreedy close, TS barely above "
            "Random; regrets drop suddenly once OPT exhausts event capacities."
        ),
    )


def figure2(
    scale: str = "scaled",
    seed: int = 0,
    run_seed: int = 0,
    policy_seed: int = 1,
    horizon: Optional[int] = None,
) -> ExperimentResult:
    """Kendall rank correlation of estimated vs true event rankings."""
    config = base_config(scale, seed)
    suite = compare_policies(
        config,
        horizon=horizon,
        run_seed=run_seed,
        policy_seed=policy_seed,
        track_kendall=True,
    )
    taus: Dict[str, List[float]] = {}
    for name, history in suite.policies.items():
        if history.kendall_taus is not None:
            taus[name] = history.kendall_taus.tolist()
    return ExperimentResult(
        experiment_id="fig2",
        title="Kendall's rank correlation vs OPT (default setting)",
        params={"scale": scale, **_config_params(config, suite.horizon)},
        checkpoints=suite.checkpoints,
        curves={"kendall_tau": taus},
        notes=(
            "UCB/Exploit approach 1; TS fluctuates due to posterior sampling "
            "noise; Random stays uncorrelated."
        ),
    )


# ----------------------------------------------------------------------
# Figures 3-9 (one-factor sweeps)
# ----------------------------------------------------------------------
def figure3(
    scale: str = "scaled",
    seed: int = 0,
    run_seed: int = 0,
    policy_seed: int = 1,
    horizon: Optional[int] = None,
) -> ExperimentResult:
    """Effect of |V| (paper: 100 and 1000 around the default 500)."""
    curves: Dict[str, Dict[str, List[float]]] = {}
    checkpoints: Optional[List[int]] = None
    for paper_v in (100, 1000):
        num_events = scaled_num_events(scale, paper_v)
        config = base_config(scale, seed, num_events=num_events)
        suite = compare_policies(
            config, horizon=horizon, run_seed=run_seed, policy_seed=policy_seed
        )
        checkpoints = suite.checkpoints
        _merge_curves(curves, metric_curves(suite), f"|V|={num_events}")
    return ExperimentResult(
        experiment_id="fig3",
        title="Effect of the number of events |V|",
        params={"scale": scale, "paper_values": "100,1000", "seed": seed},
        checkpoints=checkpoints,
        curves=curves,
        notes="Larger |V| -> higher accept ratios; regrets drop earlier.",
    )


def figure4(
    scale: str = "scaled",
    seed: int = 0,
    run_seed: int = 0,
    policy_seed: int = 1,
    horizon: Optional[int] = None,
    dims: Sequence[int] = (1, 5, 10, 15),
) -> ExperimentResult:
    """Effect of the context dimension d."""
    curves: Dict[str, Dict[str, List[float]]] = {}
    checkpoints: Optional[List[int]] = None
    for dim in dims:
        config = base_config(scale, seed, dim=dim)
        suite = compare_policies(
            config, horizon=horizon, run_seed=run_seed, policy_seed=policy_seed
        )
        checkpoints = suite.checkpoints
        _merge_curves(curves, metric_curves(suite), f"d={dim}")
    return ExperimentResult(
        experiment_id="fig4",
        title="Effect of the feature dimension d",
        params={"scale": scale, "dims": ",".join(map(str, dims)), "seed": seed},
        checkpoints=checkpoints,
        curves=curves,
        notes="All policies improve as d shrinks; TS catches up only at d=1.",
    )


def figure5(
    scale: str = "scaled",
    seed: int = 0,
    run_seed: int = 0,
    policy_seed: int = 1,
    horizon: Optional[int] = None,
) -> ExperimentResult:
    """theta / feature distributions: Normal, Power, Shuffle (vs default Uniform)."""
    settings = (
        ("normal", "normal"),
        ("power", "power"),
        ("uniform", "shuffle"),
    )
    curves: Dict[str, Dict[str, List[float]]] = {}
    checkpoints: Optional[List[int]] = None
    for theta_dist, context_dist in settings:
        config = base_config(
            scale,
            seed,
            theta_distribution=theta_dist,
            context_distribution=context_dist,
        )
        suite = compare_policies(
            config, horizon=horizon, run_seed=run_seed, policy_seed=policy_seed
        )
        checkpoints = suite.checkpoints
        _merge_curves(
            curves, metric_curves(suite), f"theta={theta_dist},x={context_dist}"
        )
    return ExperimentResult(
        experiment_id="fig5",
        title="Effect of theta / feature distributions",
        params={"scale": scale, "seed": seed},
        checkpoints=checkpoints,
        curves=curves,
        notes=(
            "Power concentrates values near 1 -> high accept ratios for every "
            "policy (even Random) and early regret drops."
        ),
    )


def figure6(
    scale: str = "scaled",
    seed: int = 0,
    run_seed: int = 0,
    policy_seed: int = 1,
    horizon: Optional[int] = None,
) -> ExperimentResult:
    """Effect of event capacities c_v: N(100,100) and N(500,200)."""
    curves: Dict[str, Dict[str, List[float]]] = {}
    checkpoints: Optional[List[int]] = None
    for paper_mean, paper_std in ((100.0, 100.0), (500.0, 200.0)):
        mean, std = scaled_capacity(scale, paper_mean, paper_std)
        config = base_config(scale, seed, capacity_mean=mean, capacity_std=std)
        suite = compare_policies(
            config, horizon=horizon, run_seed=run_seed, policy_seed=policy_seed
        )
        checkpoints = suite.checkpoints
        _merge_curves(curves, metric_curves(suite), f"cv=N({paper_mean:g},{paper_std:g})")
    return ExperimentResult(
        experiment_id="fig6",
        title="Effect of event capacities c_v",
        params={"scale": scale, "seed": seed},
        checkpoints=checkpoints,
        curves=curves,
        notes=(
            "Small capacities exhaust early (sudden drops); with N(500,200) "
            "events remain available and no sudden drop occurs."
        ),
    )


def figure7(
    scale: str = "scaled",
    seed: int = 0,
    run_seed: int = 0,
    policy_seed: int = 1,
    horizon: Optional[int] = None,
    ratios: Sequence[float] = (0.0, 0.5, 0.75, 1.0),
) -> ExperimentResult:
    """Effect of the conflict ratio cr."""
    curves: Dict[str, Dict[str, List[float]]] = {}
    checkpoints: Optional[List[int]] = None
    for ratio in ratios:
        config = base_config(scale, seed, conflict_ratio=ratio)
        suite = compare_policies(
            config, horizon=horizon, run_seed=run_seed, policy_seed=policy_seed
        )
        checkpoints = suite.checkpoints
        _merge_curves(curves, metric_curves(suite), f"cr={ratio:g}")
    return ExperimentResult(
        experiment_id="fig7",
        title="Effect of the conflict ratio cr",
        params={"scale": scale, "seed": seed},
        checkpoints=checkpoints,
        curves=curves,
        notes=(
            "Smaller cr -> more events arranged per round -> capacities run "
            "out earlier; at cr=1 only one event per round, no sudden drop."
        ),
    )


def figure8(
    scale: str = "scaled",
    seed: int = 0,
    run_seed: int = 0,
    policy_seed: int = 1,
    horizon: Optional[int] = None,
    lams: Sequence[float] = (0.5, 1.0, 2.0),
) -> ExperimentResult:
    """Effect of the ridge parameter lambda."""
    curves: Dict[str, Dict[str, List[float]]] = {}
    checkpoints: Optional[List[int]] = None
    for lam in lams:
        config = base_config(scale, seed)
        suite = compare_policies(
            config,
            horizon=horizon,
            run_seed=run_seed,
            policy_seed=policy_seed,
            lam=lam,
            policy_names=("UCB", "TS", "eGreedy", "Exploit"),
        )
        checkpoints = suite.checkpoints
        _merge_curves(curves, metric_curves(suite), f"lam={lam:g}")
    return ExperimentResult(
        experiment_id="fig8",
        title="Effect of the ridge parameter lambda",
        params={"scale": scale, "lams": ",".join(map(str, lams)), "seed": seed},
        checkpoints=checkpoints,
        curves=curves,
        notes="The paper finds lambda = 1 or 2 generally best.",
    )


def figure9(
    scale: str = "scaled",
    seed: int = 0,
    run_seed: int = 0,
    policy_seed: int = 1,
    horizon: Optional[int] = None,
) -> ExperimentResult:
    """Per-algorithm parameters: UCB alpha, TS delta, eGreedy epsilon."""
    config = base_config(scale, seed)
    sweeps = (
        ("UCB", "alpha", (1.0, 1.5, 2.0, 2.5)),
        ("TS", "delta", (0.05, 0.1, 0.2)),
        ("eGreedy", "epsilon", (0.05, 0.1, 0.2)),
    )
    curves: Dict[str, Dict[str, List[float]]] = {}
    checkpoints: Optional[List[int]] = None
    for policy_name, param, values in sweeps:
        for value in values:
            kwargs = {
                "lam": DEFAULT_LAM,
                "alpha": DEFAULT_ALPHA,
                "delta": DEFAULT_DELTA,
                "epsilon": DEFAULT_EPSILON,
            }
            kwargs[param] = value
            suite = compare_policies(
                config,
                horizon=horizon,
                run_seed=run_seed,
                policy_seed=policy_seed,
                policy_names=(policy_name,),
                **kwargs,
            )
            checkpoints = suite.checkpoints
            history = suite.policies[policy_name]
            label = f"{policy_name} {param}={value:g}"
            curves.setdefault("total_regrets", {})[label] = history.regret_at(
                suite.opt, suite.checkpoints
            ).tolist()
            curves.setdefault("accept_ratio", {})[label] = history.accept_ratio_at(
                suite.checkpoints
            ).tolist()
    return ExperimentResult(
        experiment_id="fig9",
        title="Effect of alpha (UCB), delta (TS), epsilon (eGreedy)",
        params={"scale": scale, "seed": seed},
        checkpoints=checkpoints,
        curves=curves,
        notes=(
            "Paper: UCB best around alpha=2; TS worst at delta=0.05; smaller "
            "epsilon helps eGreedy (its random exploration does not pay off)."
        ),
    )


# ----------------------------------------------------------------------
# Figure 10 (real dataset, user u1)
# ----------------------------------------------------------------------
def figure10(
    seed: int = 2016,
    policy_seed: int = 1,
    accept_horizon: int = 1000,
    regret_horizon: int = 10_000,
    user_index: int = 0,
    scale: str = "scaled",
) -> ExperimentResult:
    """Real dataset, u1: accept ratios (1000 rounds) + regrets (10000)."""
    dataset = load_damai(seed)
    user = dataset.users[user_index]
    checkpoints = default_checkpoints(regret_horizon)
    accept_checkpoints = [t for t in checkpoints if t <= accept_horizon]
    curves: Dict[str, Dict[str, List[float]]] = {
        "accept_ratio_first_rounds": {},
        "total_regrets": {},
    }
    for mode in (5, "full"):
        mode_label = "cu=5" if mode == 5 else "cu=full"
        reference = full_knowledge_history(dataset, user, mode, regret_horizon)
        for name in POLICY_NAMES:
            policy = make_policy(name, dim=dataset.dim, seed=policy_seed)
            history = run_real_policy(policy, dataset, user, mode, regret_horizon)
            label = f"{name} {mode_label}"
            curves["accept_ratio_first_rounds"][label] = history.accept_ratio_at(
                accept_checkpoints
            ).tolist() + [np.nan] * (len(checkpoints) - len(accept_checkpoints))
            curves["total_regrets"][label] = history.regret_at(
                reference, checkpoints
            ).tolist()
        fk_ratio = reference.rewards[0] / resolve_capacity(user, mode)
        curves["accept_ratio_first_rounds"][f"FullKn {mode_label}"] = [
            fk_ratio
        ] * len(checkpoints)
    return ExperimentResult(
        experiment_id="fig10",
        title="Real dataset (Damai-like), user u1",
        params={
            "dataset_seed": seed,
            "user": f"u{user_index + 1}",
            "accept_horizon": accept_horizon,
            "regret_horizon": regret_horizon,
        },
        checkpoints=checkpoints,
        curves=curves,
        notes=(
            "Accept-ratio columns are cumulative and only defined up to the "
            "accept horizon (NaN afterwards). UCB best at cu=5; UCB and "
            "Exploit best at cu=full; TS poor under both."
        ),
    )


# ----------------------------------------------------------------------
# Figures 11-13 (basic contextual bandit)
# ----------------------------------------------------------------------
def _basic_suite_curves(
    config, horizon, run_seed, policy_seed
) -> "tuple[Dict[str, Dict[str, List[float]]], List[int]]":
    world = build_basic_world(config)
    horizon = horizon if horizon is not None else config.horizon
    checkpoints = default_checkpoints(horizon)
    fleet: Dict[str, Policy] = {"OPT": OptPolicy(world.theta)}
    for name in POLICY_NAMES:
        fleet[name] = make_policy(name, dim=config.dim, seed=policy_seed)
    histories = run_policy_fleet(fleet, world, horizon=horizon, run_seed=run_seed)
    opt_history = histories["OPT"]
    curves: Dict[str, Dict[str, List[float]]] = {
        "accept_ratio": {"OPT": opt_history.accept_ratio_at(checkpoints).tolist()},
        "total_regrets": {},
    }
    for name in POLICY_NAMES:
        history = histories[name]
        curves["accept_ratio"][name] = history.accept_ratio_at(checkpoints).tolist()
        curves["total_regrets"][name] = history.regret_at(
            opt_history, checkpoints
        ).tolist()
    return curves, checkpoints


def figure11(
    scale: str = "scaled",
    seed: int = 0,
    run_seed: int = 0,
    policy_seed: int = 1,
    horizon: Optional[int] = None,
) -> ExperimentResult:
    """Basic contextual bandit, varying |V|."""
    curves: Dict[str, Dict[str, List[float]]] = {}
    checkpoints: Optional[List[int]] = None
    for paper_v in (100, 500, 1000):
        num_events = scaled_num_events(scale, paper_v)
        config = base_config(scale, seed, num_events=num_events)
        sub_curves, checkpoints = _basic_suite_curves(
            config, horizon, run_seed, policy_seed
        )
        _merge_curves(curves, sub_curves, f"|V|={num_events}")
    return ExperimentResult(
        experiment_id="fig11",
        title="Basic contextual bandit: effect of |V|",
        params={"scale": scale, "seed": seed},
        checkpoints=checkpoints,
        curves=curves,
        notes=(
            "No capacities -> no sudden regret drops; TS still performs badly."
        ),
    )


def figure12(
    scale: str = "scaled",
    seed: int = 0,
    run_seed: int = 0,
    policy_seed: int = 1,
    horizon: Optional[int] = None,
    dims: Sequence[int] = (1, 5, 10, 15),
) -> ExperimentResult:
    """Basic contextual bandit, varying d."""
    curves: Dict[str, Dict[str, List[float]]] = {}
    checkpoints: Optional[List[int]] = None
    for dim in dims:
        config = base_config(scale, seed, dim=dim)
        sub_curves, checkpoints = _basic_suite_curves(
            config, horizon, run_seed, policy_seed
        )
        _merge_curves(curves, sub_curves, f"d={dim}")
    return ExperimentResult(
        experiment_id="fig12",
        title="Basic contextual bandit: effect of d",
        params={"scale": scale, "dims": ",".join(map(str, dims)), "seed": seed},
        checkpoints=checkpoints,
        curves=curves,
        notes="TS improves as d shrinks, as under full FASEA.",
    )


def figure13(
    scale: str = "scaled",
    seed: int = 0,
    run_seed: int = 0,
    policy_seed: int = 1,
    horizon: Optional[int] = None,
) -> ExperimentResult:
    """Basic contextual bandit, other theta / feature distributions."""
    settings = (
        ("normal", "normal"),
        ("power", "power"),
        ("uniform", "shuffle"),
    )
    curves: Dict[str, Dict[str, List[float]]] = {}
    checkpoints: Optional[List[int]] = None
    for theta_dist, context_dist in settings:
        config = base_config(
            scale,
            seed,
            theta_distribution=theta_dist,
            context_distribution=context_dist,
        )
        sub_curves, checkpoints = _basic_suite_curves(
            config, horizon, run_seed, policy_seed
        )
        _merge_curves(curves, sub_curves, f"theta={theta_dist},x={context_dist}")
    return ExperimentResult(
        experiment_id="fig13",
        title="Basic contextual bandit: other distributions",
        params={"scale": scale, "seed": seed},
        checkpoints=checkpoints,
        curves=curves,
        notes="Same orderings as under FASEA.",
    )


def _config_params(config, horizon: int) -> Dict[str, object]:
    return {
        "num_events": config.num_events,
        "horizon": horizon,
        "dim": config.dim,
        "theta_dist": config.theta_distribution,
        "context_dist": config.context_distribution,
        "capacity": f"N({config.capacity_mean:g},{config.capacity_std:g})",
        "conflict_ratio": config.conflict_ratio,
        "seed": config.seed,
    }
