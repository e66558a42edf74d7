"""Off-policy evaluation from a recorded decision log.

Given a behavior policy's logged stream (rounds, contexts regenerated
from the recorded seeds, chosen arm sets, realized rewards,
propensities), estimate the value a *target* policy would have earned
on the same traffic — without running it online:

* **DM** (direct method): re-fit the target's reward model
  progressively on the logged feedback and sum its clipped
  predictions over the arms the target *would have* chosen:
  ``V_DM = (1/T) sum_t q̂_t(A*_t)``.
* **IPS** (inverse propensity scoring): importance-weight the logged
  reward by the match indicator over the behavior propensity:
  ``V_IPS = (1/T) sum_t [1{A*_t = A_t} / p_t] R_t`` — unbiased when
  propensities are logged, high variance when matches are rare.
* **SNIPS** (self-normalized IPS): ``sum_t w_t R_t / sum_t w_t`` with
  ``w_t = 1{A*_t = A_t}/p_t`` — trades a small bias for much lower
  variance.
* **DR** (doubly robust): ``V_DR = (1/T) sum_t [ q̂_t(A*_t)
  + w_t (R_t - q̂_t(A_t)) ]`` — unbiased if *either* the model or the
  propensities are right.

Propensity semantics follow the recorder: deterministic policies (UCB,
Exploit, OPT) log ``p_t = 1``; eGreedy logs its branch probability
(``epsilon`` explore / ``1 - epsilon`` exploit); TS and Random draw
from continuous/combinatorial densities that are not logged, so their
records carry ``p_t = null`` and the importance-weighted estimators
are reported as unavailable (DM still works).

Bootstrap confidence intervals resample rounds (jointly, for the SNIPS
ratio) with a fixed seed, so reports are deterministic.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.bootstrap import bootstrap_mean_ci
from repro.datasets.synthetic import SyntheticConfig, build_world
from repro.bandits.base import RoundView
from repro.ebsn.platform import Platform
from repro.exceptions import ConfigurationError, SchemaError
from repro.obs.flight import FlightLog
from repro.obs.replay import build_policy_from_spec
from repro.simulation.environment import RoundStream


@dataclasses.dataclass
class Estimate:
    """One estimator's point value with a bootstrap CI (or unavailable)."""

    value: Optional[float]
    low: Optional[float] = None
    high: Optional[float] = None
    note: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "value": self.value,
            "ci_low": self.low,
            "ci_high": self.high,
            "note": self.note,
        }


@dataclasses.dataclass
class OpeReport:
    """Per-round value estimates for a target policy on logged traffic."""

    target: str
    behavior: str
    rounds: int
    realized_value: float
    match_rate: float
    propensity_coverage: float
    dm: Estimate
    ips: Estimate
    snips: Estimate
    dr: Estimate

    def to_dict(self) -> Dict[str, Any]:
        return {
            "target": self.target,
            "behavior": self.behavior,
            "rounds": self.rounds,
            "realized_value": self.realized_value,
            "match_rate": self.match_rate,
            "propensity_coverage": self.propensity_coverage,
            "estimates": {
                "dm": self.dm.to_dict(),
                "ips": self.ips.to_dict(),
                "snips": self.snips.to_dict(),
                "dr": self.dr.to_dict(),
            },
        }


def _bootstrap_ratio_ci(
    weights: np.ndarray,
    weighted_rewards: np.ndarray,
    confidence: float,
    num_resamples: int,
    seed: int,
) -> Tuple[float, float]:
    """Joint-resample CI for the SNIPS ratio sum(wR)/sum(w)."""
    rng = np.random.default_rng(seed)
    n = weights.size
    ratios = []
    for _ in range(num_resamples):
        idx = rng.integers(0, n, size=n)
        denom = weights[idx].sum()
        if denom > 0:
            ratios.append(float(weighted_rewards[idx].sum() / denom))
    if not ratios:
        return float("nan"), float("nan")
    tail = (1.0 - confidence) / 2.0
    low, high = np.quantile(np.asarray(ratios), [tail, 1.0 - tail])
    return float(low), float(high)


def evaluate_policy(
    log: FlightLog,
    target_name: str,
    behavior: Optional[str] = None,
    confidence: float = 0.95,
    num_resamples: int = 1000,
    seed: int = 0,
    target_seed: Optional[int] = None,
) -> OpeReport:
    """Estimate ``target_name``'s value on one logged behavior stream.

    ``behavior`` selects which policy's logged stream to evaluate
    against; it defaults to the only stream in the log and must be
    given explicitly when several were recorded.  ``target_name``
    is rebuilt from its header spec when the log contains one (so
    evaluating a policy on its own log is exact self-consistency);
    otherwise it is built with library defaults, optionally seeded
    with ``target_seed``.
    """
    header = log.header
    if header.get("mode") != "policies":
        raise ConfigurationError(
            "off-policy evaluation needs a mode='policies' log "
            f"(got {header.get('mode')!r}); replication logs interleave "
            "seeds and are replay-only"
        )
    by_policy = log.by_policy()
    if not by_policy:
        raise ConfigurationError("decision log contains no decisions")
    if behavior is None:
        if len(by_policy) > 1:
            raise ConfigurationError(
                "log contains several behavior streams "
                f"({', '.join(sorted(by_policy))}); pass --behavior"
            )
        behavior = next(iter(by_policy))
    if behavior not in by_policy:
        raise ConfigurationError(
            f"no logged stream for behavior policy {behavior!r} "
            f"(have: {', '.join(sorted(by_policy))})"
        )
    logged = sorted(by_policy[behavior], key=lambda r: int(r["t"]))

    world = build_world(SyntheticConfig(**header["world"]))
    run_seed = int(header["run_seed"])

    spec: Optional[Dict[str, Any]] = None
    for candidate in header.get("policies", []):
        if candidate.get("name") == target_name:
            spec = dict(candidate)
            break
    if spec is None:
        spec = {"name": target_name}
    if target_seed is not None:
        spec["seed"] = target_seed
    target = build_policy_from_spec(spec, world)

    # Regenerate the logged rounds' users and contexts from the run's
    # shared stream (common random numbers); the thresholds go unused.
    round_stream = RoundStream(world, run_seed)

    # The platform replays the *logged* commits, so remaining
    # capacities evolve exactly as the behavior policy saw them.
    platform = Platform(world.make_store(), world.conflicts)

    dm_values: List[float] = []
    ips_values: List[Optional[float]] = []
    dr_values: List[Optional[float]] = []
    rewards_logged: List[float] = []
    matches: List[bool] = []
    propensities_seen = 0

    expected_t = 0
    for record in logged:
        expected_t += 1
        t = int(record["t"])
        if t != expected_t:
            raise SchemaError(
                f"behavior stream has a gap: expected round {expected_t}, "
                f"got {t} — cannot regenerate contexts past a hole"
            )
        user, contexts, _ = round_stream.draw()
        view = RoundView(
            time_step=t,
            user=user,
            contexts=contexts,
            remaining_capacities=platform.store.remaining_capacities,
            conflicts=platform.conflicts,
        )
        chosen = [int(event_id) for event_id in record.get("chosen", [])]
        round_rewards = [float(v) for v in record.get("rewards", [])]
        reward = float(record.get("reward", sum(round_rewards)))
        propensity = record.get("propensity")

        target_arrangement = target.select(view)
        # Pre-update predictions: the model has seen rounds 1..t-1 only.
        predictions = np.clip(target.predicted_scores(contexts), 0.0, 1.0)
        dm_t = float(predictions[target_arrangement].sum())
        q_logged = float(predictions[chosen].sum()) if chosen else 0.0
        match = set(target_arrangement) == set(chosen)

        dm_values.append(dm_t)
        rewards_logged.append(reward)
        matches.append(match)
        if isinstance(propensity, (int, float)) and propensity > 0:
            propensities_seen += 1
            weight = (1.0 if match else 0.0) / float(propensity)
            ips_values.append(weight * reward)
            dr_values.append(dm_t + weight * (reward - q_logged))
        else:
            ips_values.append(None)
            dr_values.append(None)

        # The target learns from the logged feedback (progressive
        # off-policy fit), and the platform replays the logged commit.
        target.observe(view, chosen, round_rewards)
        if chosen:
            accepted = {
                event_id: value > 0.0
                for event_id, value in zip(chosen, round_rewards)
            }
            platform.commit(user, chosen, feedback=accepted.__getitem__)

    rounds = len(logged)
    if rounds == 0:
        raise ConfigurationError(
            f"behavior stream {behavior!r} has no decision records"
        )
    coverage = propensities_seen / rounds
    realized = float(np.mean(rewards_logged))
    match_rate = float(np.mean([1.0 if m else 0.0 for m in matches]))

    dm_mean, dm_low, dm_high = bootstrap_mean_ci(
        dm_values, confidence=confidence, num_resamples=num_resamples, seed=seed
    )
    dm = Estimate(value=dm_mean, low=dm_low, high=dm_high)

    if coverage < 1.0:
        note = (
            f"propensities logged for {propensities_seen}/{rounds} rounds; "
            "importance-weighted estimators need full coverage "
            "(TS/Random log no action density)"
        )
        ips = Estimate(value=None, note=note)
        snips = Estimate(value=None, note=note)
        dr = Estimate(value=None, note=note)
    else:
        ips_array = np.asarray([float(v) for v in ips_values if v is not None])
        dr_array = np.asarray([float(v) for v in dr_values if v is not None])
        weights = np.asarray(
            [
                (1.0 if m else 0.0) / float(r["propensity"])
                for m, r in zip(matches, logged)
            ]
        )
        weighted = weights * np.asarray(rewards_logged)
        ips_mean, ips_low, ips_high = bootstrap_mean_ci(
            ips_array.tolist(),
            confidence=confidence,
            num_resamples=num_resamples,
            seed=seed,
        )
        ips = Estimate(value=ips_mean, low=ips_low, high=ips_high)
        weight_sum = float(weights.sum())
        if weight_sum > 0:
            snips_value = float(weighted.sum() / weight_sum)
            snips_low, snips_high = _bootstrap_ratio_ci(
                weights, weighted, confidence, num_resamples, seed
            )
            snips = Estimate(value=snips_value, low=snips_low, high=snips_high)
        else:
            snips = Estimate(
                value=None,
                note="no logged round matches the target's choices",
            )
        dr_mean, dr_low, dr_high = bootstrap_mean_ci(
            dr_array.tolist(),
            confidence=confidence,
            num_resamples=num_resamples,
            seed=seed,
        )
        dr = Estimate(value=dr_mean, low=dr_low, high=dr_high)

    return OpeReport(
        target=target.name,
        behavior=behavior,
        rounds=rounds,
        realized_value=realized,
        match_rate=match_rate,
        propensity_coverage=coverage,
        dm=dm,
        ips=ips,
        snips=snips,
        dr=dr,
    )


def render_ope_report(report: OpeReport) -> List[str]:
    """Human-readable OPE report."""

    def _fmt(estimate: Estimate) -> str:
        if estimate.value is None:
            return f"unavailable ({estimate.note})"
        text = f"{estimate.value:.4f}"
        if estimate.low is not None and estimate.high is not None:
            text += f"  [{estimate.low:.4f}, {estimate.high:.4f}]"
        return text

    lines = [
        f"target policy : {report.target}",
        f"behavior log  : {report.behavior} "
        f"({report.rounds} rounds, realized per-round value "
        f"{report.realized_value:.4f})",
        f"match rate    : {report.match_rate:.4f}   "
        f"propensity coverage: {report.propensity_coverage:.0%}",
        f"DM            : {_fmt(report.dm)}",
        f"IPS           : {_fmt(report.ips)}",
        f"SNIPS         : {_fmt(report.snips)}",
        f"DR            : {_fmt(report.dr)}",
    ]
    return lines
