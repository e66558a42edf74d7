"""Layered replication benchmark for the FASEA reproduction.

Runs one workload through the public ``replicate_policies`` entry point
for ``--seconds`` seconds and prints its metrics; the last line of
standard output is one JSON object::

    python3 perfbench/run.py --workload replicate_jobs2 --seed 0 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics (``rounds_per_s``,
``setup_s``, ``peak_rss_mb``), all measured with tracing off.
``rounds_per_s`` and ``setup_s`` are scaled to a reference machine
speed by a fixed kernel timed right before and after every call (see
``probe.py``).
``--trace 1`` repeats the timed run, then runs the same cells once more
with every layer's entry points wrapped (see ``layers.py``) and reports
the per-layer metrics instead; the spans go to
``.perfbench/<workload>.npz``.  README.md lists every metric and why each
workload exists.

Each seed cell is one operation.  A cell fails if its call raises or if
its per-policy accept ratios and total regrets differ from the committed
golden values (base seed 0) or, on other seeds, from the run's first
call.  Run it from the repository root; it needs no installation.
"""

from __future__ import annotations

import os

# One BLAS thread, pinned before numpy loads; pool workers inherit it.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _variable in BLAS_THREAD_VARIABLES:
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(REPO / "src"))

_import_start = perf_counter()
import numpy as np  # noqa: E402

from repro.analysis import replication  # noqa: E402
from repro.bandits import POLICY_NAMES, OptPolicy, make_policy  # noqa: E402
from repro.datasets.synthetic import SyntheticConfig, build_world  # noqa: E402
from repro.parallel import ReplicationCell, run_replication_cell, run_work_units  # noqa: E402

IMPORT_SECONDS = perf_counter() - _import_start

from layers import ROOT, Tracer, install_layers  # noqa: E402
from workloads import SMOKE, WORKLOADS, RegimeError, Workload, noop  # noqa: E402

GOLDEN = HERE / "golden.json"
TRACE_DIR = REPO / ".perfbench"
DEFAULT_SEED = 0
#: ``setup_s`` is the median of the suite builds made ahead of each call
#: until they fill SETUP_SHARE of the run so far, and of at least
#: SETUP_MIN_REPEATS builds in all.
SETUP_SHARE = 0.1
SETUP_MIN_REPEATS = 3
#: Seconds the reference kernel takes at the reference machine speed;
#: ``rounds_per_s`` is the rate a call would reach at that speed.
PROBE_NOMINAL_S = 0.1
#: Pool start-and-teardown probes behind ``parallel.fixed_s``.
FIXED_REPEATS = 5

Cell = Dict[str, Dict[str, float]]

#: Per-layer self-time metrics -> the layer whose spans they sum.  The
#: root span's self time is the runner's dispatch between the layers.
LAYER_SECONDS = {
    "context.self_s": "context",
    "feedback.self_s": "feedback",
    "scoring.predict_s": "scoring.predict",
    "scoring.ucb_width_s": "scoring.ucb_width",
    "scoring.ts_draw_s": "scoring.ts_draw",
    "bandits.select_self_s": "bandits.select",
    "oracle.self_s": "oracle",
    "platform.self_s": "platform",
    "ridge.self_s": "ridge",
    "setup.world_s": "setup.world",
    "setup.conflicts_s": "setup.conflicts",
    "simulation.dispatch_s": ROOT,
}


def unit_of(metric: str) -> str:
    """Unit of a metric, from its name."""
    units = {
        "rounds_per_s": "1/s",
        "wall.rounds_per_s": "1/s",
        "peak_rss_mb": "MB",
        "context.mb_computed": "MB",
        "oracle.fill_rate": "ratio",
        "platform.accept_ratio": "ratio",
        "parallel.efficiency": "ratio",
        "trace.overhead": "ratio",
    }
    if metric in units:
        return units[metric]
    return "s" if metric.endswith("_s") else "count"


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------
def cells_of(result: replication.ReplicationResult) -> List[Cell]:
    """Per-seed accept ratios and total regrets of one call."""
    return [
        {
            "accept_ratios": {p: v[i] for p, v in result.accept_ratios.items()},
            "total_regrets": {p: v[i] for p, v in result.total_regrets.items()},
        }
        for i in range(len(result.seeds))
    ]


def cells_of_histories(outcomes: Sequence[Dict[str, Any]]) -> List[Cell]:
    """The same figures from ``run_replication_cell`` histories."""
    cells = []
    for histories in outcomes:
        opt = histories["OPT"]
        cells.append(
            {
                "accept_ratios": {
                    name: history.overall_accept_ratio
                    for name, history in histories.items()
                },
                "total_regrets": {
                    name: opt.total_reward - history.total_reward
                    for name, history in histories.items()
                    if name != "OPT"
                },
            }
        )
    return cells


def _well_formed(cell: Cell) -> bool:
    return all(0.0 <= ratio <= 1.0 for ratio in cell["accept_ratios"].values()) and all(
        np.isfinite(regret) for regret in cell["total_regrets"].values()
    )


class Checker:
    """Counts seed cells attempted and failed against a reference."""

    def __init__(self, reference: Optional[List[Cell]]) -> None:
        #: Golden cells, or ``None`` to adopt the first call's cells.
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def check(self, cells: Optional[List[Cell]], expected: int) -> None:
        """Score one call's cells; ``None`` means the call raised."""
        self.attempted += expected
        if cells is None or len(cells) != expected:
            self.failed += expected
            return
        if self.reference is None:
            self.reference = cells
        self.failed += sum(
            1
            for got, want in zip(cells, self.reference)
            if got != want or not _well_formed(got)
        )


def load_golden(workload: Workload, smoke: bool, seed: int) -> Optional[List[Cell]]:
    """Committed cells for the default base seed, else ``None``."""
    if seed != DEFAULT_SEED:
        return None
    entry = json.loads(GOLDEN.read_text())[workload.name]["smoke" if smoke else "full"]
    if tuple(entry["seeds"]) != workload.seeds(seed):
        raise RuntimeError(f"{workload.name}: golden seeds {entry['seeds']} are stale")
    return entry["cells"]


# ----------------------------------------------------------------------
# Measurements
# ----------------------------------------------------------------------
def call_checked(checker: Checker, expected: int, call: Callable[[], List[Cell]]) -> float:
    """Run one call, check its cells and return its wall seconds."""
    start = perf_counter()
    try:
        cells: Optional[List[Cell]] = call()
    except Exception:  # a raising call fails its cells; the run goes on
        traceback.print_exc()
        cells = None
    wall = perf_counter() - start
    checker.check(cells, expected)
    return wall


def build_suites(config: SyntheticConfig, seeds: Sequence[int]) -> float:
    """Seconds to build every seed's world and policy suite once."""
    start = perf_counter()
    for seed in seeds:
        world = build_world(config.with_overrides(seed=seed))
        suite = [OptPolicy(world.theta)]
        suite += [make_policy(name, dim=config.dim, seed=1) for name in POLICY_NAMES]
        del world, suite  # one world alive at a time
    return perf_counter() - start


def measure_calls(
    workload: Workload,
    seeds: Sequence[int],
    seconds: float,
    checker: Checker,
    before_call: Callable[[int, float], None] = lambda index, elapsed: None,
) -> Tuple[List[float], List[float]]:
    """Wall seconds of each ``replicate_policies`` call in ``seconds``.

    One checked call runs first, untimed: the first call in a fresh
    process pays for page faults and lazy set-up that later calls do not.
    Also returns the reference kernel's seconds in time order: one probe
    after that warm-up call, then one right before and one right after
    each timed call, so call ``i`` lies between probes ``2i + 1`` and
    ``2i + 2``.  ``before_call`` gets the call's index and the seconds
    elapsed since the first call began, and runs ahead of its probe.
    """
    config = workload.config()

    def call() -> List[Cell]:
        return cells_of(replication.replicate_policies(config, seeds, jobs=workload.jobs))

    call_checked(checker, len(seeds), call)
    probes = [workload.probe()]
    walls: List[float] = []
    begin = perf_counter()
    while not walls or perf_counter() - begin < seconds:
        before_call(len(walls), perf_counter() - begin)
        probes.append(workload.probe())
        walls.append(call_checked(checker, len(seeds), call))
        probes.append(workload.probe())
    return walls, probes


def rounds_per_s(workload: Workload, walls: Sequence[float], probes: Sequence[float]) -> float:
    """Median rate of the calls, each scaled to the reference speed."""
    return statistics.median(
        workload.suite_rounds / wall * (probes[2 * i + 1] + probes[2 * i + 2]) / 2 / PROBE_NOMINAL_S
        for i, wall in enumerate(walls)
    )


def peak_rss_mb() -> float:
    """Largest resident set of this process and its reaped children."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def end_to_end(
    workload: Workload, seeds: Sequence[int], seconds: float, checker: Checker
) -> Dict[str, float]:
    """``rounds_per_s``, ``setup_s`` and ``peak_rss_mb``, tracing off.

    The suite builds behind ``setup_s`` run ahead of every call, so their
    median spans the same stretch of time as the calls'.  Each build is
    scaled to the reference speed by the mean of the two probes around it.
    """
    config = workload.config()
    #: (index of the next call, seconds) of each suite build.
    builds: List[Tuple[int, float]] = []

    def set_up(index: int, elapsed: float) -> None:
        while not builds or sum(taken for _, taken in builds) < SETUP_SHARE * elapsed:
            builds.append((index, build_suites(config, seeds)))

    walls, probes = measure_calls(workload, seeds, seconds, checker, before_call=set_up)
    while len(builds) < SETUP_MIN_REPEATS:
        builds.append((len(walls), build_suites(config, seeds)))
    probes.append(workload.probe())
    # The builds ahead of call i lie between probes 2i and 2i + 1.
    return {
        "rounds_per_s": rounds_per_s(workload, walls, probes),
        "setup_s": statistics.median(
            taken * 2 * PROBE_NOMINAL_S / (probes[2 * index] + probes[2 * index + 1])
            for index, taken in builds
        ),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(
    workload: Workload, seeds: Sequence[int], seconds: float, checker: Checker
) -> Dict[str, float]:
    """The timed run again, then one traced pass over the same cells."""
    config = workload.config()
    pooled = workload.jobs > 1
    executor = Tracer()
    if pooled:
        # One span per call around the pool, in the parent process.
        executor.patch(replication, "run_work_units", "parallel")
    try:
        walls, probes = measure_calls(workload, seeds, seconds, checker)
    finally:
        executor.restore()

    fixed = []
    for _ in range(FIXED_REPEATS):
        start = perf_counter()
        run_work_units(noop, [0, 1], jobs=2)
        fixed.append(perf_counter() - start)

    # The traced pass is compared with the untraced pass just before it:
    # the vCPU speed drifts too much between passes further apart.
    if pooled:
        # Wrappers cannot report out of pool workers, so the traced pass
        # runs the pool's cells inline, after an untraced inline pass
        # that is both its baseline and the executor's serial reference.
        cells = [
            ReplicationCell(
                config=config,
                seed=seed,
                horizon=config.horizon,
                policy_names=tuple(POLICY_NAMES),
                policy_seed=1,
            )
            for seed in seeds
        ]

        def call() -> List[Cell]:
            return cells_of_histories(run_work_units(run_replication_cell, cells, jobs=1))

        pool_wall = statistics.median(executor.durations("parallel"))
        untraced_wall = call_checked(checker, len(seeds), call)
        efficiency = untraced_wall / (workload.jobs * pool_wall)
    else:

        def call() -> List[Cell]:
            return cells_of(replication.replicate_policies(config, seeds, jobs=1))

        # replicate_policies' serial loop runs the seeds inline: the
        # executor's wall is the call's, at efficiency 1 by definition.
        pool_wall = statistics.median(walls)
        untraced_wall = walls[-1]
        efficiency = 1.0

    tracer = Tracer()
    install_layers(tracer)
    try:
        with tracer.span(ROOT):
            call_checked(checker, len(seeds), call)
    finally:
        tracer.restore()
    tracer.save(TRACE_DIR / f"{workload.name}.npz", workload=workload.name, seeds=seeds)

    metrics = layer_metrics(workload, tracer)
    metrics.update(
        {
            "wall.rounds_per_s": workload.suite_rounds / statistics.median(walls),
            "probe.median_s": statistics.median(probes),
            "parallel.wall_s": pool_wall,
            "parallel.cells": len(walls) * len(seeds),
            "parallel.efficiency": efficiency,
            "parallel.fixed_s": statistics.median(fixed),
            "setup.import_s": IMPORT_SECONDS,
            "trace.overhead": metrics["trace.wall_s"] / untraced_wall - 1.0,
        }
    )
    return metrics


def layer_metrics(workload: Workload, tracer: Tracer) -> Dict[str, float]:
    """Per-layer self times and counts of one traced pass."""
    seconds, calls = tracer.layer_totals()
    unknown = set(seconds) - set(LAYER_SECONDS.values())
    if unknown:
        raise RuntimeError(f"spans of unreported layers: {sorted(unknown)}")
    metrics: Dict[str, float] = {
        metric: seconds.get(layer, 0.0) for metric, layer in LAYER_SECONDS.items()
    }
    wall = tracer.durations(ROOT)[0]
    attributed = sum(metrics.values())
    if abs(attributed - wall) > 1e-6 * wall:
        raise RuntimeError(f"layer self times sum to {attributed} s, traced wall is {wall} s")
    counts = tracer.counts
    metrics.update(
        {
            "trace.wall_s": wall,
            "context.calls": calls.get("context", 0),
            "context.mb_computed": calls.get("context", 0)
            * workload.num_events
            * workload.dim
            * 8
            / 1e6,
            "oracle.calls": calls.get("oracle", 0),
            "oracle.fill_rate": counts["oracle.arranged"] / counts["oracle.requested"],
            "platform.commits": calls.get("platform", 0),
            "platform.accept_ratio": counts["platform.accepted"] / counts["platform.arranged"],
            "platform.drained_events": counts["platform.drained.OPT"],
            "ridge.calls": calls.get("ridge", 0),
            "ridge.rows": counts["ridge.rows"],
        }
    )
    check_traced_regime(workload, metrics)
    return metrics


def check_traced_regime(workload: Workload, metrics: Dict[str, float]) -> None:
    """Fail loudly if the traced pass left the workload's regime."""
    drained = metrics["platform.drained_events"]
    if workload.drains != (drained > 0):
        raise RegimeError(
            f"{workload.name}: OPT drained {drained} events; the workload "
            f"{'needs' if workload.drains else 'forbids'} drained events"
        )
    suite = 1 + len(POLICY_NAMES)  # OPT and the learners
    expected = workload.suite_rounds * suite
    if metrics["oracle.calls"] != expected:
        raise RegimeError(
            f"{workload.name}: {metrics['oracle.calls']} oracle calls, "
            f"expected seeds x horizon x {suite} = {expected}"
        )


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def git_revision() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git repository."""
    if not (REPO / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(REPO.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment() -> Dict[str, str]:
    """What the figures depend on besides the code."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        nproc = os.cpu_count() or 0
    return {
        "nproc": str(nproc),
        "blas_threads": ",".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARIABLES),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": git_revision(),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, for the smoke tests"
    )
    args = parser.parse_args(argv)

    workload = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    seeds = workload.seeds(args.seed)
    try:
        workload.check_size()
        checker = Checker(load_golden(workload, args.smoke, args.seed))
        measure = per_layer if args.trace else end_to_end
        metrics = measure(workload, seeds, args.seconds, checker)
    except RegimeError as error:
        print(f"perfbench: regime check failed: {error}", file=sys.stderr)
        return 3

    print(f"# workload={workload.name} seeds={list(seeds)} trace={args.trace}")
    print("# " + " ".join(f"{key}={value}" for key, value in environment().items()))
    for name, value in metrics.items():
        print(f"{name:24s} {value:>16.6f} {unit_of(name)}")
    report = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()
        },
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
