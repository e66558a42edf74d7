"""Random baseline: arrange available non-conflicting events at random.

No model is maintained; the paper uses Random as the floor every
learning policy must beat (and notes that TS sometimes barely does).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.bandits.base import Policy, RoundView
from repro.linalg.sampling import RngLike, make_rng
from repro.obs.flight import rng_fingerprint


class RandomPolicy(Policy):
    """Uniform random arrangement subject to feasibility."""

    name = "Random"

    def __init__(self, seed: RngLike = None) -> None:
        self._rng = make_rng(seed)

    def select(self, view: RoundView) -> List[int]:
        if self._capture_decisions:
            # Uniform over feasible arrangements; the per-arrangement
            # density is not logged, so the propensity is None.
            self._stash_decision(
                explore=True,
                propensity=None,
                rng=rng_fingerprint(self._rng),
            )
        num_events = view.conflicts.num_events
        return self._run_oracle(
            view, np.zeros(num_events), order=self._rng.permutation(num_events)
        )
