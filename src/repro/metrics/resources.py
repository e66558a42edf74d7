"""Time and memory measurement for Tables 5 and 6.

The paper reports the average running time of each round and the
memory consumption of each algorithm as |V| and d grow.  Absolute
numbers are implementation- and machine-specific (theirs is C++ on an
i7); what the tables assert — the *ordering* of the algorithms and the
growth trends — is measured here with ``time.perf_counter`` and
``tracemalloc``.
"""

from __future__ import annotations

import time
import tracemalloc
from typing import Callable, List, Sequence, Tuple, TypeVar

from repro.bandits.base import Policy
from repro.datasets.synthetic import SyntheticWorld
from repro.exceptions import ConfigurationError
from repro.obs.core import Timer, current
from repro.simulation.environment import FaseaEnvironment

#: Emit-site metric name (FAS016).
PEAK_TRACED_BYTES_METRIC = "metrics.peak_traced_bytes"

T = TypeVar("T")


def time_policy_rounds(
    policy: Policy, world: SyntheticWorld, rounds: int, run_seed: int = 0
) -> float:
    """Average per-round policy time (select + observe) over ``rounds``.

    Environment costs (context generation, feedback draws) are excluded
    — the paper times the algorithms, not the workload generator.

    Durations accumulate in a fresh :class:`repro.obs.core.Timer` —
    the same float additions, in the same order, as the plain
    ``elapsed +=`` accumulator it replaces, so Tables 5/6 numbers are
    bit-identical.  When a process-local registry is active the timer's
    histogram is merged into ``metrics.round_seconds.<policy>`` so
    resource studies appear in run telemetry.
    """
    return time_policies_rounds([policy], world, rounds, run_seed=run_seed)[0]


def time_policies_rounds(
    policies: Sequence[Policy], world: SyntheticWorld, rounds: int, run_seed: int = 0
) -> List[float]:
    """:func:`time_policy_rounds` for several policies in lockstep.

    Each policy plays its own environment (fresh streams, as if timed
    alone), but round ``t`` of every policy runs before round ``t + 1``
    of any, so a slow stretch of the machine lands on all of them
    alike.  Orderings measured this way stay stable on a noisy host
    where back-to-back timings swap policies a few microseconds apart.
    """
    if rounds < 1:
        raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
    envs = [FaseaEnvironment(world, run_seed=run_seed) for _ in policies]
    timers = [Timer(f"metrics.round_seconds.{policy.name}") for policy in policies]
    for _ in range(rounds):
        for policy, env, timer in zip(policies, envs, timers):
            view = env.begin_round()
            start = time.perf_counter()
            arrangement = policy.select(view)
            timer.observe(time.perf_counter() - start)
            rewards, _ = env.commit(arrangement)
            start = time.perf_counter()
            policy.observe(view, arrangement, rewards)
            timer.observe(time.perf_counter() - start)
    obs = current()
    if obs.enabled:
        for timer in timers:
            obs.timer(timer.name).histogram.merge(timer.histogram)
    return [timer.total / rounds for timer in timers]


def measure_memory(fn: Callable[[], T]) -> Tuple[T, int]:
    """Run ``fn`` under ``tracemalloc``; return (result, peak bytes).

    The peak is also published to the process-local registry (gauge
    ``metrics.peak_traced_bytes``) when one is active.
    """
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    obs = current()
    if obs.enabled:
        obs.gauge(PEAK_TRACED_BYTES_METRIC).set(peak)
    return result, peak


def measure_policy_memory(
    policy_factory: Callable[[], Policy],
    world: SyntheticWorld,
    rounds: int,
    run_seed: int = 0,
) -> Tuple[float, int]:
    """(avg round time, peak traced bytes) for a freshly built policy.

    Time and memory come from two separate runs: ``tracemalloc`` slows
    allocation-heavy code by an order of magnitude, so timing under it
    would distort exactly the comparison Tables 5-6 make.
    """
    avg_time = time_policy_rounds(policy_factory(), world, rounds, run_seed=run_seed)
    _, peak = measure_memory(
        lambda: time_policy_rounds(
            policy_factory(), world, rounds, run_seed=run_seed
        )
    )
    return avg_time, peak
