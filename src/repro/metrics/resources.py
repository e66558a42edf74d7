"""Time and memory measurement for Tables 5 and 6.

The paper reports the average running time of each round and the
memory consumption of each algorithm as |V| and d grow.  Absolute
numbers are implementation- and machine-specific (theirs is C++ on an
i7); what the tables assert — the *ordering* of the algorithms and the
growth trends — is measured here with the round loop's own
select + observe timer and ``tracemalloc``.
"""

from __future__ import annotations

import tracemalloc
from typing import Callable, Tuple, TypeVar

from repro.bandits.base import Policy
from repro.datasets.synthetic import SyntheticWorld
from repro.obs.core import NULL_OBS, current

#: Emit-site metric name (FAS016).
PEAK_TRACED_BYTES_METRIC = "metrics.peak_traced_bytes"

T = TypeVar("T")


def measure_memory(fn: Callable[[], T]) -> Tuple[T, int]:
    """Run ``fn`` under ``tracemalloc``; return (result, peak bytes).

    Under an outer trace (``PYTHONTRACEMALLOC``, ``-X tracemalloc`` or
    a nested call) the peak is reset, measured above the traced size at
    entry, and tracing is left on.  The peak is also published to the
    process-local registry (gauge ``metrics.peak_traced_bytes``) when
    one is active.
    """
    if tracemalloc.is_tracing():
        tracemalloc.reset_peak()
        baseline, _ = tracemalloc.get_traced_memory()
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - baseline
    else:
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

    Both come from :func:`~repro.simulation.runner.run_policy`, the
    round loop: the time is the run's ``avg_round_time`` (select +
    observe per round; the context draw and the commit are outside it).
    Time and memory come from two separate runs: ``tracemalloc`` slows
    allocation-heavy code by an order of magnitude, so timing under it
    would distort exactly the comparison Tables 5-6 make.  Both runs
    are uninstrumented, so no cell depends on ``--obs``.
    """
    # Import cycle: the round loop imports repro.metrics.kendall.
    from repro.simulation.runner import run_policy

    def play() -> float:
        history = run_policy(
            policy_factory(), world, horizon=rounds, run_seed=run_seed, obs=NULL_OBS
        )
        return history.avg_round_time

    avg_time = play()
    _, peak = measure_memory(play)
    return avg_time, peak
