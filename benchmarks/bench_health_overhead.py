"""Disabled-mode cost guard for the learning-health monitor.

The health monitor promises that a run *without* ``--health`` pays only
its guards: one ``getattr(obs, "alert_engine")`` per run plus, per
instrumented round, one ``getattr(obs, "health_monitor")`` and two
``is not None`` checks (every runner plays through ``fleet.play_fleet``).  This module
measures that promise with the same paired best-of-N harness as
``bench_obs_overhead``: the baseline times the frozen-view select loop,
the candidate times the identical loop wrapped in the exact guard shape
of ``fleet.play_fleet``'s health-off branch, and the *minimum paired ratio*
must stay within the threshold.

A monitoring-mode cross-check also runs: one seeded run with a
:class:`HealthMonitor` + :class:`AlertEngine` attached and one without
must produce identical rewards — detection must never perturb a
decision — and the informational report documents what turning health
monitoring *on* costs.

Run as a script for the CI gate (exit 1 on regression)::

    python -m benchmarks.bench_health_overhead --threshold 0.03 --repeats 9
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import timeit
from typing import List, Optional, Sequence

from benchmarks.conftest import bench_config
from repro.bandits.ucb import UcbPolicy
from repro.datasets.synthetic import build_world
from repro.obs.alerts import DEFAULT_ALERT_RULES, AlertBuffer, AlertEngine
from repro.obs.core import Instrumentation
from repro.obs.health import HealthMonitor
from repro.simulation.environment import FaseaEnvironment
from repro.simulation.runner import run_policy

HORIZON = 300
WARMUP_ROUNDS = 40
FROZEN_VIEWS = 32
PASSES_PER_SAMPLE = 50


def _frozen_fixture():
    """A warmed-up UCB policy plus ``FROZEN_VIEWS`` realistic views."""
    config = bench_config(horizon=HORIZON)
    world = build_world(config)
    policy = UcbPolicy(dim=config.dim)
    env = FaseaEnvironment(world, run_seed=0)
    for _ in range(WARMUP_ROUNDS):
        view = env.begin_round()
        arrangement = policy.select(view)
        rewards, _ = env.commit(arrangement)
        policy.observe(view, arrangement, rewards)
    views = []
    for _ in range(FROZEN_VIEWS):
        view = env.begin_round()
        views.append(view)
        env.commit(policy.select(view))
    return policy, views


def measure_health_guard_overhead(repeats: int = 9) -> dict:
    """Paired best-of-N ratio of the health-off select loop + guards.

    ``run_plain`` is the pre-health select loop; ``run_guarded``
    replicates the exact disabled-mode shape the health monitor added
    to the instrumented round path: a ``health_monitor`` ambient-
    attribute read, its ``is not None`` check, and the dead
    ``alert_engine`` branch behind the run-level ``engine`` capture.
    """
    policy, views = _frozen_fixture()
    obs = Instrumentation()
    engine = getattr(obs, "alert_engine", None)

    def run_plain() -> None:
        for view in views:
            policy.select(view)

    def run_guarded() -> None:
        # The exact guard shape of fleet._record_policy_round + the
        # fleet.play_fleet round loop with --health off.
        for view in views:
            policy.select(view)
            monitor = getattr(obs, "health_monitor", None)
            if monitor is not None:  # pragma: no cover - off in this gate
                monitor.observe_round(obs, policy.name, 0, 0.0)
            if engine is not None:  # pragma: no cover - off in this gate
                engine.evaluate_round(obs, 0)

    calls = len(views) * PASSES_PER_SAMPLE
    timer_plain = timeit.Timer(run_plain)
    timer_guarded = timeit.Timer(run_guarded)
    plain_times: List[float] = []
    guarded_times: List[float] = []
    for index in range(repeats):
        # Alternate the sampling order so slow machine phases land
        # inside a pair; gate on the minimum paired ratio (see
        # bench_obs_overhead for the rationale).
        if index % 2 == 0:
            plain_times.append(timer_plain.timeit(number=PASSES_PER_SAMPLE))
            guarded_times.append(timer_guarded.timeit(number=PASSES_PER_SAMPLE))
        else:
            guarded_times.append(timer_guarded.timeit(number=PASSES_PER_SAMPLE))
            plain_times.append(timer_plain.timeit(number=PASSES_PER_SAMPLE))
    ratio = min(g / p for p, g in zip(plain_times, guarded_times))
    return {
        "plain_select_us": min(plain_times) / calls * 1e6,
        "health_guard_select_us": min(guarded_times) / calls * 1e6,
        "health_ratio": ratio,
        "repeats": repeats,
        "frozen_views": len(views),
    }


def check_health_equivalence(horizon: int = 150) -> dict:
    """Monitoring must not change one reward bit (and report its price)."""
    config = bench_config(horizon=horizon)
    world = build_world(config)

    def _timed_run(health: bool):
        obs = Instrumentation()
        buffer = None
        if health:
            obs.health_monitor = HealthMonitor()
            buffer = AlertBuffer()
            obs.alert_engine = AlertEngine(DEFAULT_ALERT_RULES, buffer)
        policy = UcbPolicy(dim=config.dim)
        start = time.perf_counter()
        history = run_policy(policy, world, horizon=horizon, run_seed=0, obs=obs)
        return time.perf_counter() - start, history.total_reward, obs, buffer

    off_seconds, off_reward, _, _ = _timed_run(health=False)
    on_seconds, on_reward, obs, buffer = _timed_run(health=True)
    if off_reward != on_reward:  # pragma: no cover - guard
        raise AssertionError(
            f"health monitoring perturbed the run: {off_reward} vs {on_reward}"
        )
    events = obs.health_monitor.events
    return {
        "health_horizon": horizon,
        "total_reward": off_reward,
        "health_off_run_seconds": off_seconds,
        "health_on_run_seconds": on_seconds,
        "health_events": len(events),
        "alert_firings": len(buffer.records),
    }


def measure_overhead(repeats: int = 9) -> dict:
    """The full report: disabled-mode gate + monitoring cross-check."""
    result = measure_health_guard_overhead(repeats=repeats)
    result.update(check_health_equivalence())
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.03,
        help="maximum tolerated slowdown of the health-off hot path",
    )
    parser.add_argument("--repeats", type=int, default=9, help="best-of-N repeats")
    args = parser.parse_args(argv)
    result = measure_overhead(repeats=args.repeats)
    result["threshold"] = args.threshold
    result["ok"] = result["health_ratio"] <= 1.0 + args.threshold
    json.dump(result, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0 if result["ok"] else 1


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def test_select_health_off(benchmark):
    policy, views = _frozen_fixture()
    benchmark.pedantic(
        lambda: [policy.select(view) for view in views], rounds=5, iterations=10
    )


def test_run_health_on(benchmark):
    """Enabled monitoring: the price of turning the detectors *on*."""
    config = bench_config(horizon=60)
    world = build_world(config)

    def _run():
        obs = Instrumentation()
        obs.health_monitor = HealthMonitor()
        obs.alert_engine = AlertEngine(DEFAULT_ALERT_RULES, AlertBuffer())
        run_policy(UcbPolicy(dim=config.dim), world, horizon=60, run_seed=0, obs=obs)

    benchmark.pedantic(_run, rounds=3, iterations=1)


def test_monitored_and_plain_runs_agree():
    report = check_health_equivalence(horizon=60)
    assert report["total_reward"] > 0


if __name__ == "__main__":
    sys.exit(main())
