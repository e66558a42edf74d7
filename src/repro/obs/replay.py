"""Counterfactual replay of a recorded decision log.

``replay_flight`` rebuilds the exact run a ``decisions.jsonl`` header
describes — same world config, same run seed, same policy constructor
specs — re-executes it with an in-memory :class:`FlightBuffer`, and
compares the replayed records against the logged ones line-by-line in
their canonical JSON encoding.  Because every stream (arrivals,
contexts, feedback coins, policy RNGs) is derived from recorded seeds,
a healthy log replays *bit-for-bit*: same chosen arms, same scores,
same rewards, round after round.

A divergence therefore means one of exactly three things: the code
changed behaviour since the log was recorded, the log was truncated or
edited, or the platform is numerically different — and the report
pinpoints the first diverging round with both records side-by-side
(``fasea obs replay --diff``).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List, Optional

from repro.bandits import OptPolicy, make_policy
from repro.bandits.base import Policy
from repro.datasets.synthetic import SyntheticConfig, build_world
from repro.exceptions import ConfigurationError, SchemaError
from repro.obs.core import NullInstrumentation
from repro.obs.flight import (
    FlightBuffer,
    FlightLog,
    FlightRecord,
    cell_record,
    record_line,
)
from repro.simulation.fleet import run_policy_fleet
from repro.simulation.runner import run_policy

#: Constructor keywords forwarded from a header policy spec to
#: :func:`repro.bandits.make_policy`.
_POLICY_SPEC_KWARGS = ("lam", "alpha", "delta", "epsilon", "seed")


def build_policy_from_spec(spec: Dict[str, Any], world: Any) -> Policy:
    """Rebuild one policy from its flight-header constructor spec."""
    name = spec.get("name")
    if not isinstance(name, str) or not name:
        raise SchemaError(f"policy spec without a name: {spec!r}")
    if name == "OPT":
        return OptPolicy(world.theta)
    kwargs = {
        key: spec[key] for key in _POLICY_SPEC_KWARGS if key in spec
    }
    return make_policy(name, dim=world.config.dim, **kwargs)


@dataclasses.dataclass
class GroupReplay:
    """Replay outcome of one record group (a policy, or one seed cell)."""

    label: str
    rounds: int
    logged_reward: float
    replayed_reward: float
    #: Round index ``t`` of the first diverging record, or None.
    first_divergence: Optional[int]
    logged_record: Optional[FlightRecord] = None
    replayed_record: Optional[FlightRecord] = None

    @property
    def ok(self) -> bool:
        return (
            self.first_divergence is None
            and self.logged_reward == self.replayed_reward
        )


@dataclasses.dataclass
class ReplayReport:
    """Outcome of replaying one decision log."""

    mode: str
    until: Optional[int]
    groups: List[GroupReplay]

    @property
    def ok(self) -> bool:
        return all(group.ok for group in self.groups)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "until": self.until,
            "ok": self.ok,
            "groups": [
                {
                    "label": g.label,
                    "rounds": g.rounds,
                    "logged_reward": g.logged_reward,
                    "replayed_reward": g.replayed_reward,
                    "first_divergence": g.first_divergence,
                    "ok": g.ok,
                }
                for g in self.groups
            ],
        }


def _compare_group(
    label: str,
    logged: List[FlightRecord],
    replayed: List[FlightRecord],
) -> GroupReplay:
    """Line-by-line canonical comparison of one record group."""
    first_divergence: Optional[int] = None
    logged_record: Optional[FlightRecord] = None
    replayed_record: Optional[FlightRecord] = None
    for log_rec, rep_rec in zip(logged, replayed):
        if record_line(log_rec) != record_line(rep_rec):
            first_divergence = int(log_rec.get("t", -1))
            logged_record = log_rec
            replayed_record = rep_rec
            break
    else:
        if len(logged) != len(replayed):
            # One side ran out: the first missing round is the divergence.
            index = min(len(logged), len(replayed))
            longer = logged if len(logged) > len(replayed) else replayed
            first_divergence = int(longer[index].get("t", -1))
            logged_record = logged[index] if len(logged) > index else None
            replayed_record = replayed[index] if len(replayed) > index else None
    return GroupReplay(
        label=label,
        rounds=min(len(logged), len(replayed)),
        logged_reward=float(sum(r.get("reward", 0.0) for r in logged)),
        replayed_reward=float(sum(r.get("reward", 0.0) for r in replayed)),
        first_divergence=first_divergence,
        logged_record=logged_record,
        replayed_record=replayed_record,
    )


def _filter_until(
    records: List[FlightRecord], until: Optional[int]
) -> List[FlightRecord]:
    if until is None:
        return records
    return [r for r in records if int(r.get("t", 0)) <= until]


def _replay_policies(
    log: FlightLog, header: Dict[str, Any], until: Optional[int]
) -> ReplayReport:
    world = build_world(SyntheticConfig(**header["world"]))
    horizon = int(header["horizon"])
    if until is not None:
        horizon = min(horizon, until)
    run_seed = int(header["run_seed"])
    logged_by_policy = log.by_policy()
    groups: List[GroupReplay] = []
    for spec in header.get("policies", []):
        policy = build_policy_from_spec(spec, world)
        label = str(spec.get("label", spec["name"]))
        obs = NullInstrumentation()
        buffer = obs.flight_recorder = FlightBuffer()
        run_policy(
            policy,
            world,
            horizon=horizon,
            run_seed=run_seed,
            obs=obs,
        )
        logged = _filter_until(logged_by_policy.get(label, []), until)
        groups.append(_compare_group(label, logged, buffer.records))
    return ReplayReport(mode="policies", until=until, groups=groups)


def _replay_replication(
    log: FlightLog, header: Dict[str, Any], until: Optional[int]
) -> ReplayReport:
    config = SyntheticConfig(**header["world"])
    horizon = int(header["horizon"])
    if until is not None:
        horizon = min(horizon, until)
    policy_names = [str(name) for name in header.get("policy_names", [])]
    policy_seed = int(header.get("policy_seed", 1))
    groups: List[GroupReplay] = []
    for seed, logged in log.cells():
        world = build_world(config.with_overrides(seed=seed))
        policies: Dict[str, Policy] = {"OPT": OptPolicy(world.theta)}
        for name in policy_names:
            policies[name] = make_policy(
                name, dim=config.dim, seed=policy_seed
            )
        obs = NullInstrumentation()
        buffer = obs.flight_recorder = FlightBuffer()
        buffer.record(cell_record(seed))
        run_policy_fleet(
            policies,
            world,
            horizon=horizon,
            run_seed=seed,
            obs=obs,
        )
        replayed = [r for r in buffer.records if r.get("kind") == "decision"]
        groups.append(
            _compare_group(
                f"seed={seed}", _filter_until(logged, until), replayed
            )
        )
    return ReplayReport(mode="replication", until=until, groups=groups)


def replay_flight(
    log: FlightLog, until: Optional[int] = None
) -> ReplayReport:
    """Re-execute the run a flight log describes and diff the records.

    ``until`` truncates the replay (and the logged records it is
    compared against) at round ``t <= until`` — time travel for
    bisecting long runs.
    """
    if until is not None and until < 1:
        raise ConfigurationError(f"--until must be >= 1, got {until}")
    header = log.header
    mode = header.get("mode")
    if mode == "policies":
        return _replay_policies(log, header, until)
    if mode == "replication":
        return _replay_replication(log, header, until)
    raise SchemaError(f"unknown flight log mode: {mode!r}")


def render_replay_report(report: ReplayReport, diff: bool = False) -> List[str]:
    """Human-readable replay report; ``diff`` adds the record pair."""
    lines: List[str] = []
    for group in report.groups:
        status = "ok" if group.ok else "DIVERGED"
        lines.append(
            f"{group.label:<12} rounds={group.rounds:<6} "
            f"logged_reward={group.logged_reward:<10g} "
            f"replayed_reward={group.replayed_reward:<10g} {status}"
        )
        if group.first_divergence is not None:
            lines.append(
                f"  first divergence at round t={group.first_divergence}"
            )
            if diff:
                lines.extend(
                    _side_by_side(group.logged_record, group.replayed_record)
                )
    verdict = (
        "replay OK: rewards and decisions are bit-identical"
        if report.ok
        else "replay FAILED: decisions diverged from the log"
    )
    lines.append(verdict)
    return lines


def _side_by_side(
    logged: Optional[FlightRecord], replayed: Optional[FlightRecord]
) -> List[str]:
    """Field-by-field dump of a diverging record pair."""
    lines = ["  field                logged | replayed"]
    keys = sorted(set(logged or {}) | set(replayed or {}))
    for key in keys:
        left = json.dumps((logged or {}).get(key), sort_keys=True)
        right = json.dumps((replayed or {}).get(key), sort_keys=True)
        marker = " " if left == right else "*"
        lines.append(f"  {marker} {key:<18} {left} | {right}")
    return lines
