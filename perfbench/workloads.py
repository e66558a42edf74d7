"""The benchmark's three workloads and the inputs they generate.

Every workload drives the public ``replicate_policies`` entry point: a
set of world seeds, each played by OPT plus the five learners (UCB, TS,
eGreedy, Exploit, Random) for ``horizon`` rounds.  The base seed given on
the command line picks the world seeds; the program sees only the
generated ``SyntheticConfig`` and seed list.  README.md records why each
workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from probe import probe_seconds
from repro.datasets.synthetic import SyntheticConfig

#: Oracle-Greedy switches from the full stable sort to the top-m prefix
#: path at this many events; one workload sits on each side of it.
ORACLE_PREFIX_SWITCH = 512


class RegimeError(RuntimeError):
    """A workload no longer exercises what it was chosen for."""


@dataclass(frozen=True)
class Workload:
    """One set of inputs the benchmark runs."""

    name: str
    num_events: int
    dim: int
    horizon: int
    num_seeds: int
    jobs: int
    #: Event capacities c_v ~ N(mean, std), clamped to >= 1.
    capacity: Tuple[float, float]
    #: Whether OPT must drain events (regime assert).
    drains: bool
    #: Reference-kernel rounds of one speed probe, about 0.1 s of work.
    probe_rounds: int

    def config(self) -> SyntheticConfig:
        """Table 4 defaults (cr=0.25, c_u in [1, 5]) at this size."""
        return SyntheticConfig(
            num_events=self.num_events,
            horizon=self.horizon,
            dim=self.dim,
            capacity_mean=self.capacity[0],
            capacity_std=self.capacity[1],
        )

    def seeds(self, base_seed: int) -> Tuple[int, ...]:
        """World seeds of one ``replicate_policies`` call."""
        return tuple(base_seed * 1000 + index for index in range(self.num_seeds))

    @property
    def suite_rounds(self) -> int:
        """Suite-rounds of one call: seeds x horizon."""
        return self.num_seeds * self.horizon

    def probe(self) -> float:
        """Seconds of one run of the reference kernel at this size."""
        return probe_seconds(
            self.num_events, self.dim, self.probe_rounds, self.config().conflict_ratio
        )

    def check_size(self) -> None:
        """Fail loudly if the catalogue size left its oracle path."""
        prefix = self.num_events >= ORACLE_PREFIX_SWITCH
        if prefix != (self.name == "wide_catalogue"):
            raise RegimeError(
                f"{self.name}: |V|={self.num_events} is on the wrong side of "
                f"the oracle's {ORACLE_PREFIX_SWITCH}-event prefix switch"
            )


def draining_capacity(horizon: int, num_events: int) -> Tuple[float, float]:
    """Capacities scaled to the horizon as ``scaled_default`` scales them.

    N(mu, mu/2) with ``mu = 1.1 * horizon / |V|`` gives 1.1 seats per
    round in total.  OPT accepts ~1.7 events per round while events last,
    so it drains them at about two thirds of the horizon.  The
    ``scaled_default`` ratio of 0.9 seats per round drains them too early.
    """
    mean = 1.1 * horizon / num_events
    return mean, mean / 2


#: Table 4's N(200, 100) clamps ~2.4% of events to capacity 1, which OPT
#: drains within a few hundred rounds.  A standard deviation of 40 keeps
#: every capacity far above what OPT can accept in one run.
UNDRAINED_CAPACITY = (200.0, 40.0)

#: Horizons keep each call to a few seconds, so a run holds many calls,
#: each between two speed probes.
WORKLOADS = {
    "replicate_jobs2": Workload(
        "replicate_jobs2", num_events=500, dim=20, horizon=600, num_seeds=4,
        jobs=2, capacity=draining_capacity(600, 500), drains=True,
        probe_rounds=220,
    ),
    "wide_catalogue": Workload(
        "wide_catalogue", num_events=10_000, dim=20, horizon=200, num_seeds=1,
        jobs=1, capacity=UNDRAINED_CAPACITY, drains=False, probe_rounds=6,
    ),
    "high_dim": Workload(
        "high_dim", num_events=500, dim=150, horizon=150, num_seeds=2,
        jobs=1, capacity=UNDRAINED_CAPACITY, drains=False, probe_rounds=22,
    ),
}

#: Tiny versions for the smoke tests: same layers, paths and regimes.
SMOKE = {
    "replicate_jobs2": replace(
        WORKLOADS["replicate_jobs2"], num_events=60, horizon=60, num_seeds=2,
        capacity=draining_capacity(60, 60),
    ),
    "wide_catalogue": replace(
        WORKLOADS["wide_catalogue"], num_events=600, horizon=20
    ),
    "high_dim": replace(
        WORKLOADS["high_dim"], num_events=60, horizon=20, num_seeds=1
    ),
}


def noop(unit: int) -> int:
    """A no-op work unit: a pool of these times pool start and teardown."""
    return unit
