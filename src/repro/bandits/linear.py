"""Shared linear payoff model over :class:`~repro.linalg.ridge.RidgeState`.

TS, UCB, eGreedy and Exploit all maintain the same statistics and apply
the same update rule (lines 13-14 of Algorithms 1/3/4); only their
scoring differs.  This class is that common core.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.linalg.ridge import RidgeState


class LinearModel:
    """Ridge estimate of the unknown weight vector ``theta``."""

    def __init__(self, dim: int, lam: float = 1.0, refresh_every: int = 4096) -> None:
        self.state = RidgeState(dim=dim, lam=lam, refresh_every=refresh_every)

    @property
    def dim(self) -> int:
        return self.state.dim

    @property
    def lam(self) -> float:
        return self.state.lam

    def theta_hat(self) -> np.ndarray:
        """Current estimate ``theta^ = Y^-1 b``."""
        return self.state.theta_hat()

    def predict(self, contexts: np.ndarray) -> np.ndarray:
        """Expected rewards ``x^T theta^`` for each context row."""
        contexts = np.atleast_2d(np.asarray(contexts, dtype=float))
        if contexts.shape[1] != self.dim:
            raise ConfigurationError(
                f"context rows have size {contexts.shape[1]}, expected {self.dim}"
            )
        return contexts @ self.theta_hat()

    def confidence_widths(self, contexts: np.ndarray) -> np.ndarray:
        """Exploration widths ``sqrt(x^T Y^-1 x)`` per context row."""
        return self.state.confidence_widths(contexts)

    def posterior(self) -> "tuple[np.ndarray, np.ndarray]":
        """``(theta^, Y^-1)`` — the mean/shape of TS's sampling distribution."""
        return self.theta_hat(), self.state.y_inv

    def observe(
        self,
        contexts: np.ndarray,
        arranged: Sequence[int],
        rewards: Sequence[float],
    ) -> None:
        """Fold the arranged events' contexts and rewards into ``(Y, b)``.

        ``update_batch`` converts and checks the gathered rows and the
        rewards itself; ``take`` gathers the same rows as fancy indexing
        without its index-parsing overhead.
        """
        if len(arranged) != len(rewards):
            raise ConfigurationError(
                f"{len(arranged)} arranged events but {len(rewards)} rewards"
            )
        if not len(arranged):
            return
        matrix = np.asarray(contexts, dtype=float)
        if matrix.ndim == 1:  # a single event's context vector
            matrix = matrix[np.newaxis, :]
        self.state.update_batch(matrix.take(arranged, axis=0), rewards)

    def reset(self) -> None:
        """Return to the prior state."""
        self.state.reset()
