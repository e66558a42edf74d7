"""epsilon-Greedy for FASEA (Algorithm 4 of the paper).

With probability ``epsilon`` arrange up to ``c_u`` non-conflicting
available events uniformly at random (exploration); otherwise arrange
greedily by the point estimate ``x^T theta^`` (exploitation).  Either
way, the observed feedback updates the shared ridge state.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.bandits.base import Policy, RoundView
from repro.bandits.linear import LinearModel
from repro.exceptions import ConfigurationError
from repro.linalg.sampling import RngLike, make_rng
from repro.obs.flight import rng_fingerprint

#: Emit-site metric names (FAS016).
EXPLORE_ROUNDS_METRIC = "explore_rounds"
EXPLOIT_ROUNDS_METRIC = "exploit_rounds"
EXPLORED_METRIC = "explored"


class EpsilonGreedyPolicy(Policy):
    """The paper's eGreedy heuristic.

    Parameters
    ----------
    dim:
        Feature dimension ``d``.
    lam:
        Ridge regulariser (Table 4 default 1).
    epsilon:
        Exploration probability (Table 4 default 0.1).
    seed:
        RNG seed for the explore/exploit coin and random arrangements.
    """

    name = "eGreedy"

    def __init__(
        self,
        dim: int,
        lam: float = 1.0,
        epsilon: float = 0.1,
        seed: RngLike = None,
    ) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ConfigurationError(f"epsilon must be in [0, 1], got {epsilon}")
        self.model = LinearModel(dim=dim, lam=lam)
        self.epsilon = float(epsilon)
        self._rng = make_rng(seed)

    def select(self, view: RoundView) -> List[int]:
        capture = self._capture_decisions
        # Fingerprint before the coin flip: reading the state does not
        # advance it, so the recorded stream is capture-invariant.
        rng_state = rng_fingerprint(self._rng) if capture else None
        # The coin flip always happens first so the RNG stream is
        # identical with or without instrumentation.
        explore = self._rng.uniform() <= self.epsilon
        obs = self._obs
        if obs.enabled:
            obs.counter(
                self.obs_name(
                    EXPLORE_ROUNDS_METRIC if explore else EXPLOIT_ROUNDS_METRIC
                )
            ).inc()
            obs.series(self.obs_name(EXPLORED_METRIC)).append(
                view.time_step, 1.0 if explore else 0.0
            )
        if capture:
            # Branch propensity: the explore arm set itself is uniform
            # over feasible arrangements (density not logged), so only
            # the exploit branch yields a usable importance weight.
            self._stash_decision(
                explore=bool(explore),
                propensity=(
                    self.epsilon if explore else 1.0 - self.epsilon
                ),
                rng=rng_state,
            )
        if explore:
            num_events = view.conflicts.num_events
            return self._run_oracle(
                view, np.zeros(num_events), order=self._rng.permutation(num_events)
            )
        scores = self.model.predict(view.contexts)
        if capture and self._decision is not None:
            self._decision["scores"] = [float(v) for v in scores]
        return self._run_oracle(view, scores)

    def observe(
        self, view: RoundView, arranged: Sequence[int], rewards: Sequence[float]
    ) -> None:
        self.model.observe(view.contexts, arranged, rewards)

    def predicted_scores(self, contexts: np.ndarray) -> np.ndarray:
        return self.model.predict(contexts)

    def reset(self) -> None:
        self.model.reset()
