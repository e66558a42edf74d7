"""Random-order arrangement (the Random baseline's oracle).

The paper's Random algorithm "visits each v in V in a random order and
the rest is the same as lines 3-5 of Oracle-Greedy": it fills the
user's capacity with available, non-conflicting events encountered in a
uniformly random permutation.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import numpy.typing as npt

from repro.ebsn.conflicts import ConflictGraph
from repro.linalg.sampling import RngLike, make_rng
from repro.oracle.greedy import OracleStats, oracle_greedy


def random_arrangement(
    conflicts: ConflictGraph,
    remaining_capacities: npt.ArrayLike,
    user_capacity: int,
    rng: RngLike = None,
    stats: Optional[OracleStats] = None,
) -> List[int]:
    """Arrange up to ``c_u`` available non-conflicting events at random.

    ``stats`` (optional) collects the same per-call diagnostics as
    :func:`~repro.oracle.greedy.oracle_greedy`; it never changes the
    arrangement or the RNG stream.
    """
    rng = make_rng(rng)
    num_events = conflicts.num_events
    order = rng.permutation(num_events)
    return oracle_greedy(
        scores=np.zeros(num_events),
        conflicts=conflicts,
        remaining_capacities=remaining_capacities,
        user_capacity=user_capacity,
        order=order,
        stats=stats,
    )
