"""Disabled-mode cost guard for the decision flight recorder.

The flight recorder promises that a run *without* ``--flight`` pays
only the capture guards: one class-attribute read per ``select``
(``Policy._capture_decisions``) and one ambient-attribute read per
round in the round loop (``flight is None``).  This module measures that
promise with the same paired best-of-N harness as
``bench_obs_overhead``: the baseline times the frozen-view select loop
with capture off (the shipping default), the candidate times the
identical loop wrapped in the exact guard shape of
``fleet.play_fleet``'s disabled branch, and the *minimum paired ratio* must stay within the
threshold.

A recording-mode cross-check also runs: one seeded run with a
:class:`FlightBuffer` attached and one without must produce identical
rewards — capture must never perturb a decision — and the informational
report documents what turning recording *on* costs.

Run as a script for the CI gate (exit 1 on regression)::

    python -m benchmarks.bench_flight_overhead --threshold 0.03 --repeats 9
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
from repro.obs.flight import FlightBuffer, decision_record
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


def measure_capture_guard_overhead(repeats: int = 9) -> dict:
    """Paired best-of-N ratio of the capture-off select + runner guard.

    ``run_plain`` is the pre-flight select loop; ``run_guarded``
    replicates the exact disabled-mode guard shape added by the flight
    recorder: the per-select ``_capture_decisions`` read happens inside
    ``policy.select`` in both variants (it ships enabled=False by
    default), so the guarded loop adds only the runner's per-round
    ``recording`` check and the dead branch behind it.
    """
    policy, views = _frozen_fixture()
    flight = None
    recording = flight is not None

    def run_plain() -> None:
        for view in views:
            policy.select(view)

    def run_guarded() -> None:
        # The exact guard shape of fleet.play_fleet's round loop, flight off.
        for view in views:
            arrangement = policy.select(view)
            if recording:  # pragma: no cover - off in this gate
                flight.record(decision_record(policy, view, arrangement, []))

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
        "flight_guard_select_us": min(guarded_times) / calls * 1e6,
        "flight_ratio": ratio,
        "repeats": repeats,
        "frozen_views": len(views),
    }


def check_recording_equivalence(horizon: int = 150) -> dict:
    """Recording must not change one reward bit (and report its price)."""
    config = bench_config(horizon=horizon)
    world = build_world(config)

    def _timed_run(flight=None):
        policy = UcbPolicy(dim=config.dim)
        start = time.perf_counter()
        history = run_policy(
            policy, world, horizon=horizon, run_seed=0, flight=flight
        )
        return time.perf_counter() - start, history.total_reward

    off_seconds, off_reward = _timed_run()
    buffer = FlightBuffer()
    on_seconds, on_reward = _timed_run(flight=buffer)
    if off_reward != on_reward:  # pragma: no cover - guard
        raise AssertionError(
            f"recording perturbed the run: {off_reward} vs {on_reward}"
        )
    decisions = [r for r in buffer.records if r["kind"] == "decision"]
    if len(decisions) != horizon:  # pragma: no cover - guard
        raise AssertionError(
            f"expected {horizon} decision records, got {len(decisions)}"
        )
    return {
        "recording_horizon": horizon,
        "total_reward": off_reward,
        "flight_off_run_seconds": off_seconds,
        "flight_on_run_seconds": on_seconds,
    }


def measure_overhead(repeats: int = 9) -> dict:
    """The full report: disabled-mode gate + recording cross-check."""
    result = measure_capture_guard_overhead(repeats=repeats)
    result.update(check_recording_equivalence())
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.03,
        help="maximum tolerated slowdown of the flight-off hot path",
    )
    parser.add_argument("--repeats", type=int, default=9, help="best-of-N repeats")
    args = parser.parse_args(argv)
    result = measure_overhead(repeats=args.repeats)
    result["threshold"] = args.threshold
    result["ok"] = result["flight_ratio"] <= 1.0 + args.threshold
    json.dump(result, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0 if result["ok"] else 1


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def test_select_capture_off(benchmark):
    policy, views = _frozen_fixture()
    benchmark.pedantic(
        lambda: [policy.select(view) for view in views], rounds=5, iterations=10
    )


def test_select_capture_on(benchmark):
    """Enabled capture: the price of turning the recorder *on*."""
    policy, views = _frozen_fixture()
    policy.enable_decision_capture(True)
    benchmark.pedantic(
        lambda: [policy.select(view) for view in views], rounds=5, iterations=10
    )


def test_recording_and_plain_runs_agree():
    report = check_recording_equivalence(horizon=60)
    assert report["total_reward"] > 0


if __name__ == "__main__":
    sys.exit(main())
