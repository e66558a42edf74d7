"""Zero-overhead guard for ``repro.obs`` (DESIGN.md §5.8).

The telemetry bus promises that a run with the default
``NullInstrumentation`` pays only attribute reads on the hot path.
This module measures that promise directly: the *baseline* replays the
pre-instrumentation select path (straight ``predict`` + UCB bonus into
``oracle_greedy``, no obs plumbing) against a frozen set of round views
captured from a real run, and the ratio of best-of-N per-call times
must stay within a few percent.

Timing a frozen view set — rather than a live run — keeps the gate
stable: a full environment loop accumulates hundreds of microsecond-
scale ``perf_counter`` windows whose scheduler jitter dwarfs the
plumbing cost being measured.  A separate end-to-end run pair still
cross-checks correctness (identical rewards with obs on the path or
not), because a wrong arrangement would make the timing meaningless.

Run as a script for the CI gate (exit 1 on regression)::

    python -m benchmarks.bench_obs_overhead --threshold 0.03 --repeats 7

or under pytest-benchmark for the timings alone.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import timeit
from typing import List, Optional, Sequence, Tuple

from benchmarks.conftest import bench_config
from repro.bandits.ucb import UcbPolicy
from repro.datasets.synthetic import build_world
from repro.obs.core import Instrumentation, use
from repro.oracle.greedy import oracle_greedy
from repro.simulation.environment import FaseaEnvironment

HORIZON = 300
#: Rounds replayed before freezing views, so ``theta^`` is non-trivial.
WARMUP_ROUNDS = 40
#: Distinct frozen views in the timed loop (varied capacities/contexts).
FROZEN_VIEWS = 32
#: Timed passes over the frozen view set per ``timeit`` sample.
PASSES_PER_SAMPLE = 50


def _baseline_select(policy: UcbPolicy, view) -> List[int]:
    """Pre-obs ``UcbPolicy.select``: no plumbing, straight to the oracle."""
    return oracle_greedy(
        scores=policy.upper_confidence_bounds(view.contexts),
        conflicts=view.conflicts,
        remaining_capacities=view.remaining_capacities,
        user_capacity=view.user.capacity,
    )


def _frozen_fixture() -> Tuple[UcbPolicy, list]:
    """A warmed-up policy plus ``FROZEN_VIEWS`` realistic round views."""
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
        rewards, _ = env.commit(policy.select(view))
    return policy, views


def measure_select_overhead(repeats: int = 7) -> dict:
    """Best-of-``repeats`` per-call select times, baseline vs plumbed.

    ``UcbPolicy.select`` is side-effect free, so both variants replay
    the identical frozen views; the arrangements are compared first so
    a divergence fails loudly rather than corrupting the ratio.
    """
    policy, views = _frozen_fixture()
    for view in views:
        if _baseline_select(policy, view) != policy.select(view):
            raise AssertionError("baseline and plumbed selects diverged")

    def run_baseline() -> None:
        for view in views:
            _baseline_select(policy, view)

    def run_plumbed() -> None:
        for view in views:
            policy.select(view)

    calls = len(views) * PASSES_PER_SAMPLE
    timer_baseline = timeit.Timer(run_baseline)
    timer_plumbed = timeit.Timer(run_plumbed)
    baseline_times: List[float] = []
    plumbed_times: List[float] = []
    for index in range(repeats):
        # Sample the variants back-to-back in alternating order so slow
        # machine phases land inside a pair, not on one variant.  The
        # gate is the *minimum paired ratio*: a systematic regression
        # inflates every pair, while a noise spike must hit exactly one
        # member of every single pair to fake one.
        if index % 2 == 0:
            baseline_times.append(timer_baseline.timeit(number=PASSES_PER_SAMPLE))
            plumbed_times.append(timer_plumbed.timeit(number=PASSES_PER_SAMPLE))
        else:
            plumbed_times.append(timer_plumbed.timeit(number=PASSES_PER_SAMPLE))
            baseline_times.append(timer_baseline.timeit(number=PASSES_PER_SAMPLE))
    ratio = min(p / b for b, p in zip(baseline_times, plumbed_times))
    return {
        "baseline_select_us": min(baseline_times) / calls * 1e6,
        "disabled_obs_select_us": min(plumbed_times) / calls * 1e6,
        "ratio": ratio,
        "repeats": repeats,
        "frozen_views": len(views),
    }


def _end_to_end_run(use_baseline: bool, horizon: int) -> Tuple[float, float]:
    """(select+observe seconds, total reward) for one seeded run."""
    config = bench_config(horizon=horizon)
    world = build_world(config)
    policy = UcbPolicy(dim=config.dim)
    env = FaseaEnvironment(world, run_seed=0)
    elapsed = 0.0
    total_reward = 0.0
    for _ in range(horizon):
        view = env.begin_round()
        start = time.perf_counter()
        if use_baseline:
            arrangement = _baseline_select(policy, view)
        else:
            arrangement = policy.select(view)
        elapsed += time.perf_counter() - start
        rewards, _ = env.commit(arrangement)
        start = time.perf_counter()
        policy.observe(view, arrangement, rewards)
        elapsed += time.perf_counter() - start
        total_reward += sum(rewards)
    return elapsed, total_reward


def check_end_to_end_equivalence(horizon: int = HORIZON) -> dict:
    """Full-run correctness guard: identical rewards with or without obs.

    Both runs share the world seed and run seed, so every stream is
    common; any reward difference means the plumbing perturbed either
    an arrangement or an RNG stream.
    """
    baseline_seconds, baseline_reward = _end_to_end_run(True, horizon)
    plumbed_seconds, plumbed_reward = _end_to_end_run(False, horizon)
    if baseline_reward != plumbed_reward:  # pragma: no cover - guard
        raise AssertionError(
            f"baseline and plumbed runs diverged: {baseline_reward} vs {plumbed_reward}"
        )
    return {
        "horizon": horizon,
        "total_reward": baseline_reward,
        "baseline_run_seconds": baseline_seconds,
        "disabled_obs_run_seconds": plumbed_seconds,
    }


def measure_observatory_overhead(repeats: int = 7) -> dict:
    """Disabled-mode cost of the run-observatory guards (PR 4).

    The round loop consults an ambient profiler config and streaming
    sink each round.  With both disabled the per-round price is two
    cached boolean reads; this measures exactly that guard — replicated
    bit for bit from ``fleet.play_fleet``'s disabled branch — around the same
    frozen-view select loop the main gate uses.  The paired best-of-N
    ratio must stay within the threshold (the same ±3% CI gate).
    """
    from repro.obs.core import NULL_OBS

    policy, views = _frozen_fixture()
    obs = NULL_OBS
    profile = getattr(obs, "profile_config", None)
    stream = getattr(obs, "stream_sink", None)
    instrumented = obs.enabled
    profiling = instrumented and profile is not None

    def run_plain() -> None:
        for view in views:
            policy.select(view)

    def run_guarded() -> None:
        # The exact guard shape of fleet.play_fleet's round loop, disabled mode.
        for t, view in enumerate(views, 1):
            if profiling and profile.samples(t):  # pragma: no cover - off
                policy.select(view)
            else:
                policy.select(view)
            if instrumented and stream is not None:  # pragma: no cover - off
                stream.maybe_flush(1)

    calls = len(views) * PASSES_PER_SAMPLE
    timer_plain = timeit.Timer(run_plain)
    timer_guarded = timeit.Timer(run_guarded)
    plain_times: List[float] = []
    guarded_times: List[float] = []
    for index in range(repeats):
        if index % 2 == 0:
            plain_times.append(timer_plain.timeit(number=PASSES_PER_SAMPLE))
            guarded_times.append(timer_guarded.timeit(number=PASSES_PER_SAMPLE))
        else:
            guarded_times.append(timer_guarded.timeit(number=PASSES_PER_SAMPLE))
            plain_times.append(timer_plain.timeit(number=PASSES_PER_SAMPLE))
    ratio = min(g / p for p, g in zip(plain_times, guarded_times))
    return {
        "plain_select_us": min(plain_times) / calls * 1e6,
        "observatory_guard_select_us": min(guarded_times) / calls * 1e6,
        "observatory_ratio": ratio,
    }


def measure_streaming_overhead(horizon: int = 150) -> dict:
    """Enabled-mode price of profiling + streaming (informational).

    Runs the real ``run_policy`` three ways — obs off, obs on, obs on
    with the profiler and a streaming sink — and reports the wall
    seconds plus a reward cross-check.  This is *not* a gate: turning
    the observatory on is allowed to cost; the report documents how
    much.
    """
    import tempfile

    from repro.datasets.synthetic import build_world as _build
    from repro.obs.profile import ProfileConfig
    from repro.obs.stream import StreamingSink
    from repro.simulation.runner import run_policy

    config = bench_config(horizon=horizon)
    world = _build(config)

    def _timed_run(obs=None, profile=None, stream=None):
        policy = UcbPolicy(dim=config.dim)
        start = time.perf_counter()
        history = run_policy(
            policy,
            world,
            horizon=horizon,
            run_seed=0,
            obs=obs,
            profile=profile,
            stream=stream,
        )
        return time.perf_counter() - start, history.total_reward

    off_seconds, off_reward = _timed_run()
    on_seconds, on_reward = _timed_run(obs=Instrumentation())
    obs = Instrumentation()
    with tempfile.TemporaryDirectory() as tmp:
        sink = StreamingSink(
            tmp, obs, flush_every_rounds=50, flush_every_seconds=None
        )
        with sink:
            full_seconds, full_reward = _timed_run(
                obs=obs, profile=ProfileConfig(sample_every=16), stream=sink
            )
    if not off_reward == on_reward == full_reward:  # pragma: no cover - guard
        raise AssertionError("observatory modes diverged in total reward")
    return {
        "streaming_horizon": horizon,
        "obs_off_run_seconds": off_seconds,
        "obs_on_run_seconds": on_seconds,
        "obs_profile_stream_run_seconds": full_seconds,
    }


def measure_overhead(repeats: int = 7, horizon: int = HORIZON) -> dict:
    """The full report: stable select-path gate + observatory-guard gate
    + enabled-mode streaming numbers + end-to-end cross-check."""
    result = measure_select_overhead(repeats=repeats)
    result.update(measure_observatory_overhead(repeats=repeats))
    result.update(measure_streaming_overhead())
    result.update(check_end_to_end_equivalence(horizon=horizon))
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.03,
        help="maximum tolerated slowdown of the disabled-obs hot path",
    )
    parser.add_argument("--repeats", type=int, default=7, help="best-of-N repeats")
    parser.add_argument("--horizon", type=int, default=HORIZON)
    args = parser.parse_args(argv)
    result = measure_overhead(repeats=args.repeats, horizon=args.horizon)
    result["threshold"] = args.threshold
    gate = 1.0 + args.threshold
    result["ok"] = result["ratio"] <= gate and result["observatory_ratio"] <= gate
    json.dump(result, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0 if result["ok"] else 1


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def test_hot_path_baseline(benchmark):
    policy, views = _frozen_fixture()
    benchmark.pedantic(
        lambda: [_baseline_select(policy, view) for view in views],
        rounds=5,
        iterations=10,
    )


def test_hot_path_disabled_obs(benchmark):
    policy, views = _frozen_fixture()
    benchmark.pedantic(
        lambda: [policy.select(view) for view in views], rounds=5, iterations=10
    )


def test_hot_path_enabled_obs(benchmark):
    """Enabled instrumentation: the price of turning telemetry *on*."""
    policy, views = _frozen_fixture()
    obs = Instrumentation()
    policy.bind_obs(obs)

    def run():
        with use(obs):
            return [policy.select(view) for view in views]

    benchmark.pedantic(run, rounds=5, iterations=10)


def test_baseline_and_plumbed_runs_agree():
    report = check_end_to_end_equivalence(horizon=60)
    assert report["total_reward"] > 0


def test_observatory_modes_agree_and_report_seconds():
    report = measure_streaming_overhead(horizon=60)
    assert report["obs_off_run_seconds"] > 0
    assert report["obs_profile_stream_run_seconds"] > 0


if __name__ == "__main__":
    sys.exit(main())
