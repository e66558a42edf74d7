"""Wall-clock benchmark for the parallel executor and hot-path kernels.

Standalone script (not a pytest-benchmark module): it times

1. an 8-seed x 5-policy replication, serial (``jobs=1``) versus
   ``jobs=2`` and ``jobs=4`` through :mod:`repro.parallel` — asserting
   along the way that every per-seed metric is **identical** across the
   three runs (common-random-number coupling makes the parallel path a
   pure wall-clock optimisation);
2. the batched rank-k Woodbury ``RidgeState.update_batch`` against the
   equivalent loop of rank-1 Sherman--Morrison ``update`` calls;
3. cached versus uncached ``theta_hat`` reads;
4. the top-k prefix path of ``oracle_greedy`` against an
   Algorithm 2 full stable sort + scan kept here, on a large catalogue,
   asserting equal output.

Results land in ``BENCH_parallel.json`` (see ``--out``); ``make
bench-perf`` is the one-command entry point.  Every timing is a
best-of-``--repeats`` minimum, which is the stable statistic on a noisy
shared box.

Every ``jobs`` value runs the same cells through the shared-stream
fleet runner (context generation paid once per round, not once per
policy), so ``speedup_jobs2``/``speedup_jobs4`` measure the process
pool alone.  Worker processes are capped at the CPU count: on a box
with ``nproc`` CPUs expect at most ``min(jobs, nproc, seeds)``.

BLAS is pinned to one thread before numpy loads (unless the caller set
it), and the pool workers inherit that: with BLAS's default of one
thread per CPU, ``jobs`` workers oversubscribe the CPUs and the pool
runs slower than serial.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _variable in BLAS_THREAD_VARIABLES:
    os.environ.setdefault(_variable, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from typing import Callable, Dict, List  # noqa: E402

import numpy as np  # noqa: E402

from repro.analysis.replication import replicate_policies  # noqa: E402
from repro.datasets.synthetic import SyntheticConfig  # noqa: E402
from repro.ebsn.conflicts import ConflictGraph, random_conflict_array  # noqa: E402
from repro.linalg.ridge import RidgeState  # noqa: E402
from repro.oracle import greedy  # noqa: E402

#: The replication workload: 8 seeds x 5 learned policies (plus OPT).
REPLICATION_WORKLOAD = {
    "num_events": 1000,
    "dim": 60,
    "horizon": 150,
    "seeds": 8,
    "policies": ("UCB", "TS", "eGreedy", "Exploit", "Random"),
}


def _best_seconds(fn: Callable[[], object], repeats: int) -> float:
    """Minimum wall-clock seconds of ``repeats`` calls."""
    best = float("inf")
    for _ in range(max(repeats, 1)):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _best_micros(fn: Callable[[], object], loops: int, repeats: int = 3) -> float:
    """Minimum per-call microseconds over ``repeats`` timed loops."""
    best = float("inf")
    for _ in range(max(repeats, 1)):
        started = time.perf_counter()
        for _ in range(loops):
            fn()
        best = min(best, (time.perf_counter() - started) / loops)
    return best * 1e6


# ----------------------------------------------------------------------
# 1. Parallel replication
# ----------------------------------------------------------------------
def bench_replication(repeats: int = 2) -> Dict[str, object]:
    spec = REPLICATION_WORKLOAD
    config = SyntheticConfig.scaled_default(seed=0).with_overrides(
        num_events=spec["num_events"], dim=spec["dim"], horizon=spec["horizon"]
    )
    seeds = list(range(spec["seeds"]))
    policies = tuple(spec["policies"])

    results = {}
    seconds = {}
    for jobs in (1, 2, 4):
        def run(jobs=jobs):
            results[jobs] = replicate_policies(
                config, seeds, policy_names=policies, jobs=jobs
            )
        seconds[jobs] = _best_seconds(run, repeats)

    identical = all(
        results[jobs].accept_ratios == results[1].accept_ratios
        and results[jobs].total_regrets == results[1].total_regrets
        for jobs in (2, 4)
    )
    if not identical:  # the whole design rests on this
        raise AssertionError("parallel replication diverged from serial metrics")

    return {
        "workload": {**spec, "policies": list(policies)},
        "serial_seconds": seconds[1],
        "jobs2_seconds": seconds[2],
        "jobs4_seconds": seconds[4],
        "speedup_jobs2": seconds[1] / seconds[2],
        "speedup_jobs4": seconds[1] / seconds[4],
        "identical_metrics": identical,
    }


# ----------------------------------------------------------------------
# 2. Batched Woodbury vs rank-1 Sherman--Morrison loop
# ----------------------------------------------------------------------
def bench_update_batch(
    dim: int = 15, k: int = 5, loops: int = 2000, seed: int = 0
) -> Dict[str, object]:
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(k, dim))
    rewards = rng.uniform(size=k)

    def warm_state() -> RidgeState:
        state = RidgeState(dim)
        state.update_batch(rng.normal(size=(40, dim)), rng.uniform(size=40))
        return state

    batched_state = warm_state()
    batched = _best_micros(lambda: batched_state.update_batch(xs, rewards), loops)

    loop_state = warm_state()

    def rank1_loop() -> None:
        for i in range(k):
            loop_state.update(xs[i], rewards[i])

    looped = _best_micros(rank1_loop, loops)
    return {
        "dim": dim,
        "k": k,
        "batched_micros": batched,
        "rank1_loop_micros": looped,
        "speedup": looped / batched,
    }


# ----------------------------------------------------------------------
# 3. Cached vs uncached theta_hat
# ----------------------------------------------------------------------
def bench_theta_cache(
    dim: int = 30, loops: int = 5000, seed: int = 1
) -> Dict[str, object]:
    rng = np.random.default_rng(seed)
    state = RidgeState(dim)
    state.update_batch(rng.normal(size=(64, dim)), rng.uniform(size=64))

    cached = _best_micros(state.theta_hat, loops)

    def uncached() -> np.ndarray:
        state._theta = None  # simulate the pre-cache behaviour
        return state.theta_hat()

    uncached_micros = _best_micros(uncached, loops)
    state._theta = None  # leave the state clean
    return {
        "dim": dim,
        "cached_micros": cached,
        "uncached_micros": uncached_micros,
        "speedup": uncached_micros / cached,
    }


# ----------------------------------------------------------------------
# 4. Top-k oracle vs full stable sort
# ----------------------------------------------------------------------
def bench_oracle_topk(
    num_events: int = 4000, user_capacity: int = 5, loops: int = 400, seed: int = 2
) -> Dict[str, object]:
    rng = np.random.default_rng(seed)
    conflicts = ConflictGraph(num_events, random_conflict_array(num_events, 0.05, seed=3))
    scores = rng.normal(size=num_events)
    capacities = np.full(num_events, 10.0)

    def topk() -> List[int]:
        return greedy.oracle_greedy(scores, conflicts, capacities, user_capacity)

    def full_sort() -> List[int]:
        """Algorithm 2 as written: stable sort of every event, then scan
        with the oracle's packed blocked mask."""
        arrangement: List[int] = []
        blocked = np.zeros(conflicts.bits.shape[1], dtype=np.uint8)
        for event_id in np.argsort(-scores, kind="stable").tolist():
            if len(arrangement) >= user_capacity:
                break
            if capacities[event_id] <= 0 or blocked[event_id >> 3] >> (event_id & 7) & 1:
                continue
            arrangement.append(event_id)
            blocked |= conflicts.bits[event_id]
        return arrangement

    if topk() != full_sort():  # identical output, tie-break included
        raise AssertionError("top-k prefix oracle diverged from the full sort")
    topk_micros = _best_micros(topk, loops)
    full_micros = _best_micros(full_sort, loops)
    return {
        "num_events": num_events,
        "user_capacity": user_capacity,
        "topk_micros": topk_micros,
        "full_sort_micros": full_micros,
        "speedup": full_micros / topk_micros,
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_all(repeats: int = 2) -> Dict[str, object]:
    return {
        "machine": {
            "platform": platform.platform(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "nproc": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "blas_threads": {name: os.environ[name] for name in BLAS_THREAD_VARIABLES},
        },
        "replication": bench_replication(repeats=repeats),
        "update_batch": bench_update_batch(),
        "theta_hat_cache": bench_theta_cache(),
        "oracle_topk": bench_oracle_topk(),
    }


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_parallel.json", help="where to write the JSON report"
    )
    parser.add_argument(
        "--repeats", type=int, default=2,
        help="best-of-N repeats for the replication timing (default 2)",
    )
    args = parser.parse_args(argv)

    report = run_all(repeats=args.repeats)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    rep = report["replication"]
    print(f"replication ({rep['workload']['seeds']} seeds x "
          f"{len(rep['workload']['policies'])} policies, "
          f"|V|={rep['workload']['num_events']}, d={rep['workload']['dim']}):")
    print(f"  serial {rep['serial_seconds']:.2f}s | jobs=2 {rep['jobs2_seconds']:.2f}s "
          f"({rep['speedup_jobs2']:.2f}x) | jobs=4 {rep['jobs4_seconds']:.2f}s "
          f"({rep['speedup_jobs4']:.2f}x) | identical={rep['identical_metrics']}")
    ub = report["update_batch"]
    print(f"update_batch d={ub['dim']} k={ub['k']}: batched {ub['batched_micros']:.1f}us "
          f"vs rank-1 loop {ub['rank1_loop_micros']:.1f}us ({ub['speedup']:.2f}x)")
    tc = report["theta_hat_cache"]
    print(f"theta_hat d={tc['dim']}: cached {tc['cached_micros']:.1f}us "
          f"vs uncached {tc['uncached_micros']:.1f}us ({tc['speedup']:.2f}x)")
    ot = report["oracle_topk"]
    print(f"oracle top-k |V|={ot['num_events']}: {ot['topk_micros']:.1f}us "
          f"vs full sort {ot['full_sort_micros']:.1f}us ({ot['speedup']:.2f}x)")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
