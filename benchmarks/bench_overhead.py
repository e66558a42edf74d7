"""One harness for the disabled-mode cost gates (DESIGN.md §5.8, §5.11-§5.13).

A run without ``--obs``/``--profile``/``--stream``, ``--flight`` or
``--checkpoint`` must pay only the guards in front of each feature
(``--health`` adds no code to the round loop: it runs once per fleet
call, over the recorded series), and turning a feature on, ``--health``
included, must never perturb a decision.
One fixture of frozen round views (timing them rather than a live run
keeps scheduler jitter from dwarfing the guard cost) feeds one paired
sampler and the ratio gates of :data:`RATIO_GATES`.  The checkpoint pair
bounds the price of one save instead: a ratio would punish short bench
runs for a fixed fsync cost that real runs amortise over 8-25x longer
cadences.  :func:`check_invariance` requires bit-equal rewards with each
feature on and off.  :func:`measure_page_faults` bounds the minor page
faults of a six-policy fleet round at |V| = 10^4: a change that frees a
|V|-sized buffer mid-round can keep every output and still make glibc
trim and re-fault the heap on every round.  The CI gate prints one JSON
report with a section per feature and exits 1 naming every failed gate::

    python -m benchmarks.bench_overhead
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import time
import timeit
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest

from benchmarks.conftest import bench_config
from repro.bandits import POLICY_NAMES, OptPolicy, make_policy
from repro.bandits.base import RoundView
from repro.bandits.ucb import UcbPolicy
from repro.datasets.synthetic import SyntheticConfig, SyntheticWorld, build_world
from repro.io.checkpoint import CellCheckpointSpec
from repro.obs.core import NULL_OBS, Instrumentation, NullInstrumentation
from repro.obs.flight import FlightBuffer, decision_record
from repro.obs.health import ALERT_EVENT_NAME, health_events_from_trace
from repro.obs.profile import ProfileConfig
from repro.obs.stream import StreamingSink
from repro.oracle.greedy import oracle_greedy
from repro.simulation.environment import RoundStream
from repro.simulation.fleet import play_fleet
from repro.simulation.history import History
from repro.simulation.runner import run_policy

#: A ratio gate fails when its minimum paired ratio exceeds ``1 + RATIO_THRESHOLD``.
RATIO_THRESHOLD = 0.03
#: The checkpoint gate fails when one save (temp file + fsync + rename) takes longer.
MAX_SAVE_MS = 25.0
#: Paired samples per ratio gate and for the checkpoint pair.
RATIO_REPEATS = 9
CHECKPOINT_REPEATS = 5
#: Horizon of the world the fixture's views are frozen from.
FIXTURE_HORIZON = 300
#: Rounds replayed before freezing views, so ``theta^`` is non-trivial.
WARMUP_ROUNDS = 40
#: Distinct frozen views in the timed loop (varied capacities/contexts).
FROZEN_VIEWS = 32
#: Timed passes over the frozen view set per ratio-gate sample.
PASSES_PER_SAMPLE = 50
#: Run horizon of each feature's invariance runs (and of the checkpoint pair).
HORIZONS = {"obs": 300, "flight": 150, "health": 150, "checkpoint": 200}
#: An aggressive cadence (8 saves per run); the shipping default (200) saves 25x less often.
CHECKPOINT_EVERY = 25
#: The page-fault fleet: OPT + the five learners at |V| = 10^4, d = 20 and
#: undrained capacities N(200, 40), as in perfbench's wide_catalogue.
FAULT_NUM_EVENTS = 10_000
FAULT_DIM = 20
#: Rounds played before counting (the first rounds fault in every fresh
#: buffer and settle glibc's mmap threshold), then rounds counted.
FAULT_WARMUP_ROUNDS = 10
FAULT_ROUNDS = 50
#: The fault gate fails above this many minor faults per counted round
#: (about 23 on a 2-vCPU x86-64 box; dividing the context matrix in place,
#: which keeps every output, made glibc trim and re-fault it: ~375).
MAX_FAULTS_PER_ROUND = 100.0

def _baseline_select(policy: UcbPolicy, view) -> List[int]:
    """Pre-obs ``UcbPolicy.select``: no plumbing, straight to the oracle."""
    return oracle_greedy(
        scores=policy.upper_confidence_bounds(view.contexts),
        conflicts=view.conflicts,
        remaining_capacities=view.remaining_capacities,
        user_capacity=view.user.capacity,
    )


class _PreObsUcb(UcbPolicy):
    """UCB with the pre-obs select: the obs invariance baseline."""

    def select(self, view) -> List[int]:
        return _baseline_select(self, view)


def frozen_fixture() -> Tuple[UcbPolicy, list]:
    """A warmed-up UCB policy plus ``FROZEN_VIEWS`` realistic round views.

    ``select`` is side-effect free, so every gate replays the same views;
    a pre-obs vs shipped divergence fails here rather than skew a ratio.
    """
    config = bench_config(horizon=FIXTURE_HORIZON)
    policy = UcbPolicy(dim=config.dim)
    stream = RoundStream(build_world(config), run_seed=0)
    platform = stream.make_platform()
    views = []
    for t in range(1, WARMUP_ROUNDS + FROZEN_VIEWS + 1):
        user, contexts, accepts = stream.reveal(t)
        view = RoundView(t, user, contexts, platform.store.remaining_capacities, platform.conflicts)
        arrangement = policy.select(view)
        platform.commit(user, arrangement, feedback=lambda v: bool(accepts[v]))
        if t <= WARMUP_ROUNDS:
            policy.observe(view, arrangement, [float(accepts[v]) for v in arrangement])
        else:
            views.append(view)
    for view in views:
        if _baseline_select(policy, view) != policy.select(view):
            raise AssertionError("pre-obs and shipped selects diverged")
    return policy, views


def _baseline_loop(policy: UcbPolicy, views: list) -> Callable[[], None]:
    def run_baseline() -> None:
        for view in views:
            _baseline_select(policy, view)

    return run_baseline


def _select_loop(policy: UcbPolicy, views: list) -> Callable[[], None]:
    def run_plain() -> None:
        for view in views:
            policy.select(view)

    return run_plain


def _observatory_guard(policy: UcbPolicy, views: list) -> Callable[[], None]:
    obs = NULL_OBS
    profile = obs.profile_config
    stream = obs.stream_sink
    instrumented = obs.enabled
    profiling = instrumented and profile is not None

    def run_guarded() -> None:
        # The exact guard shape of fleet.play_fleet's round loop, disabled mode.
        for t, view in enumerate(views, 1):
            if profiling and profile.samples(t):  # pragma: no cover - off
                policy.select(view)
            else:
                policy.select(view)
            if instrumented and stream is not None:  # pragma: no cover - off
                stream.maybe_flush(1)

    return run_guarded


def _flight_guard(policy: UcbPolicy, views: list) -> Callable[[], None]:
    """Flight off; ``select`` reads ``_capture_decisions`` on both sides of the pair."""
    flight = NULL_OBS.flight_recorder
    recording = flight is not None

    def run_guarded() -> None:
        # The exact guard shape of fleet.play_fleet's round loop, flight off.
        for view in views:
            arrangement = policy.select(view)
            if recording:  # pragma: no cover - off in this gate
                flight.record(decision_record(policy, view, arrangement, []))

    return run_guarded


#: (section, ratio key, plain per-call key, candidate per-call key,
#: plain loop, candidate loop).
RATIO_GATES = (
    ("obs", "ratio", "baseline_select_us", "disabled_obs_select_us",
     _baseline_loop, _select_loop),
    ("obs", "observatory_ratio", "plain_select_us", "observatory_guard_select_us",
     _select_loop, _observatory_guard),
    ("flight", "flight_ratio", "plain_select_us", "flight_guard_select_us",
     _select_loop, _flight_guard),
)

#: Every gated statistic as (section, key, bound); above the bound fails.
GATES: Tuple[Tuple[str, str, float], ...] = tuple(
    (section, key, 1.0 + RATIO_THRESHOLD) for section, key, *_ in RATIO_GATES
) + (
    ("checkpoint", "per_save_ms", MAX_SAVE_MS),
    ("faults", "minor_faults_per_round", MAX_FAULTS_PER_ROUND),
)


def paired_samples(
    plain: Callable[[], object], candidate: Callable[[], object], repeats: int, number: int
) -> Tuple[List[float], List[float]]:
    """``repeats`` timings of ``number`` calls of each side, back to back in
    alternating order, so slow machine phases land inside a pair."""
    timers = (timeit.Timer(plain), timeit.Timer(candidate))
    samples: Tuple[List[float], List[float]] = ([], [])
    for index in range(repeats):
        for side in (0, 1) if index % 2 == 0 else (1, 0):
            samples[side].append(timers[side].timeit(number=number))
    return samples


def min_paired_ratio(plain: Sequence[float], candidate: Sequence[float]) -> float:
    """The ratio gates' statistic.  A systematic regression inflates every
    pair; a noise spike must hit one member of every pair to fake one."""
    return min(c / p for p, c in zip(plain, candidate))


def per_save_ms(plain: Sequence[float], checkpointed: Sequence[float], saves: int) -> float:
    """The checkpoint gate's statistic: best-of-N run delta per save."""
    return max(0.0, min(checkpointed) - min(plain)) / saves * 1e3


def failed_gates(report: Dict[str, Dict[str, float]]) -> List[str]:
    """``section.key`` of every gated statistic above its bound."""
    return [
        f"{section}.{key}" for section, key, bound in GATES
        if not report[section][key] <= bound  # NaN fails too
    ]


def measure_ratio_gates(repeats: int = RATIO_REPEATS) -> Dict[str, dict]:
    """Run every :data:`RATIO_GATES` entry over the one frozen fixture."""
    policy, views = frozen_fixture()
    calls = len(views) * PASSES_PER_SAMPLE
    sections: Dict[str, dict] = {}
    for section, ratio_key, plain_key, candidate_key, plain_loop, candidate_loop in RATIO_GATES:
        plain_run, candidate_run = plain_loop(policy, views), candidate_loop(policy, views)
        plain, candidate = paired_samples(plain_run, candidate_run, repeats, PASSES_PER_SAMPLE)
        sections.setdefault(section, {}).update({
            plain_key: min(plain) / calls * 1e6,
            candidate_key: min(candidate) / calls * 1e6,
            ratio_key: min_paired_ratio(plain, candidate),
            "repeats": repeats,
            "frozen_views": len(views),
            "threshold": RATIO_THRESHOLD,
        })
    return sections


def _play(
    world: SyntheticWorld, policy_cls: type = UcbPolicy, **features: object
) -> Tuple[History, float]:
    """One seeded ``run_policy`` over the world's horizon, and its seconds."""
    start = time.perf_counter()
    history = run_policy(
        policy_cls(dim=world.config.dim), world,
        horizon=world.config.horizon, run_seed=0, **features,
    )
    return history, time.perf_counter() - start


def measure_checkpoint_cost(repeats: int = CHECKPOINT_REPEATS) -> dict:
    """Paired plain vs checkpointed runs: the price of one save."""
    world = build_world(bench_config(horizon=HORIZONS["checkpoint"]))
    with tempfile.TemporaryDirectory() as scratch:
        spec = CellCheckpointSpec(directory=scratch, key="bench", every=CHECKPOINT_EVERY)
        plain, checkpointed = paired_samples(
            lambda: _play(world), lambda: _play(world, checkpoint=spec), repeats, 1
        )
    saves = world.config.horizon // CHECKPOINT_EVERY
    return {
        "plain_run_seconds": min(plain),
        "checkpointed_run_seconds": min(checkpointed),
        "checkpoint_ratio": min_paired_ratio(plain, checkpointed),
        "saves_per_run": saves,
        "per_save_ms": per_save_ms(plain, checkpointed, saves),
        "cadence": CHECKPOINT_EVERY,
        "repeats": repeats,
        "max_save_ms": MAX_SAVE_MS,
    }


class _FaultCountingStream(RoundStream):
    """A :class:`RoundStream` that notes the process's minor page faults
    when round ``FAULT_WARMUP_ROUNDS + 1`` is revealed."""

    faults_at_start = 0

    def reveal(self, t: int):
        if t == FAULT_WARMUP_ROUNDS + 1:
            self.faults_at_start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        return super().reveal(t)


def fleet_faults_per_round() -> float:
    """Minor page faults per counted round of the page-fault fleet, played
    in this process."""
    horizon = FAULT_WARMUP_ROUNDS + FAULT_ROUNDS
    world = build_world(SyntheticConfig(
        num_events=FAULT_NUM_EVENTS, horizon=horizon, dim=FAULT_DIM,
        capacity_mean=200.0, capacity_std=40.0,
    ))
    policies = {"OPT": OptPolicy(world.theta)}
    for name in POLICY_NAMES:
        policies[name] = make_policy(name, dim=FAULT_DIM, seed=1)
    stream = _FaultCountingStream(world, run_seed=0)
    play_fleet(policies, stream, horizon, span_name="page_faults", span_attrs={})
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - stream.faults_at_start
    return faults / FAULT_ROUNDS


def measure_page_faults() -> dict:
    """:func:`fleet_faults_per_round` in a fresh interpreter: the count
    depends on the heap a process has already grown, so it is taken in a
    process that has done nothing else."""
    code = "from benchmarks.bench_overhead import fleet_faults_per_round as f; print(f())"
    child = subprocess.run(
        [sys.executable, "-c", code], cwd=Path(__file__).resolve().parent.parent,
        check=True, capture_output=True, text=True,
    )
    return {
        "minor_faults_per_round": float(child.stdout.split()[-1]),
        "max_minor_faults_per_round": MAX_FAULTS_PER_ROUND,
        "num_events": FAULT_NUM_EVENTS,
        "warmup_rounds": FAULT_WARMUP_ROUNDS,
        "rounds": FAULT_ROUNDS,
    }


Runs = Dict[str, Tuple[History, float]]


def _obs_runs(world: SyntheticWorld) -> Tuple[Runs, dict]:
    """The pre-obs baseline, then obs disabled, enabled, and profiled +
    streamed; the enabled-mode seconds are informational."""
    runs = {
        "baseline": _play(world, _PreObsUcb),
        "disabled_obs": _play(world),
        "obs_on": _play(world, obs=Instrumentation()),
    }
    obs = Instrumentation()
    obs.profile_config = ProfileConfig(sample_every=16)
    with tempfile.TemporaryDirectory() as tmp, StreamingSink(
        tmp, obs, flush_every_rounds=50, flush_every_seconds=None
    ) as sink:
        obs.stream_sink = sink
        runs["obs_profile_stream"] = _play(world, obs=obs)
    return runs, {"horizon": world.config.horizon}


def _flight_runs(world: SyntheticWorld) -> Tuple[Runs, dict]:
    """Recording off, then into a buffer that must hold one decision per round."""
    buffer = FlightBuffer()
    recording = NullInstrumentation()
    recording.flight_recorder = buffer
    runs = {"flight_off": _play(world), "flight_on": _play(world, obs=recording)}
    decisions = sum(record["kind"] == "decision" for record in buffer.records)
    if decisions != world.config.horizon:
        raise AssertionError(f"{decisions} decision records in {world.config.horizon} rounds")
    return runs, {"recording_horizon": world.config.horizon}


def _health_runs(world: SyntheticWorld) -> Tuple[Runs, dict]:
    """Instrumented runs without and with the health pass and alerts."""
    obs = Instrumentation()
    obs.health = True
    runs = {"health_off": _play(world, obs=Instrumentation()), "health_on": _play(world, obs=obs)}
    records = obs.trace_records()
    return runs, {
        "health_horizon": world.config.horizon,
        "health_events": len(health_events_from_trace(records)),
        "alert_firings": len(health_events_from_trace(records, ALERT_EVENT_NAME)),
    }


def _checkpoint_runs(world: SyntheticWorld) -> Tuple[Runs, dict]:
    """A plain run, then one saving every ``CHECKPOINT_EVERY`` rounds."""
    with tempfile.TemporaryDirectory() as scratch:
        spec = CellCheckpointSpec(directory=scratch, key="bench", every=CHECKPOINT_EVERY)
        runs = {"checkpoint_off": _play(world), "checkpoint_on": _play(world, checkpoint=spec)}
        slots = len(list(Path(scratch).glob("*.ckpt.npz")))
    return runs, {"transparency_horizon": world.config.horizon, "slots_on_disk_after_run": slots}


#: Each feature's invariance runs by name, plain run first.
FEATURES: Dict[str, Callable[[SyntheticWorld], Tuple[Runs, dict]]] = {
    "obs": _obs_runs,
    "flight": _flight_runs,
    "health": _health_runs,
    "checkpoint": _checkpoint_runs,
}


def check_invariance(feature: str, horizon: Optional[int] = None) -> dict:
    """Play ``feature``'s runs on one world and seed; every run's rewards
    must be bit-equal to the plain run's.  Returns the feature's report."""
    world = build_world(bench_config(horizon=horizon or HORIZONS[feature]))
    runs, report = FEATURES[feature](world)
    plain = next(iter(runs.values()))[0]
    for name, (history, seconds) in runs.items():
        if not np.array_equal(plain.rewards, history.rewards):
            raise AssertionError(f"{feature}: {name} perturbed the run's rewards")
        report[f"{name}_run_seconds"] = seconds
    report["total_reward"] = plain.total_reward
    return report


def measure_overhead(
    ratio_repeats: int = RATIO_REPEATS, checkpoint_repeats: int = CHECKPOINT_REPEATS
) -> dict:
    """The full report: every gate, every invariance check, and ``ok``."""
    sections = measure_ratio_gates(ratio_repeats)
    sections["checkpoint"] = measure_checkpoint_cost(checkpoint_repeats)
    sections["faults"] = measure_page_faults()
    for feature in FEATURES:
        sections.setdefault(feature, {}).update(check_invariance(feature))
    return {**sections, "ok": not failed_gates(sections)}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    report = measure_overhead()
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    failed = failed_gates(report)
    if failed:
        sys.stderr.write(f"failed gates: {', '.join(failed)}\n")
    return 1 if failed else 0


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "loop",
    [_baseline_loop, _select_loop, _observatory_guard, _flight_guard],
    ids=["pre_obs", "shipped", "observatory_guard", "flight_guard"],
)
def test_gated_loop(benchmark, loop):
    policy, views = frozen_fixture()
    benchmark.pedantic(loop(policy, views), rounds=5, iterations=10)


if __name__ == "__main__":
    sys.exit(main())
