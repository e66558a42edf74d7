"""Incremental ridge-regression state for linear contextual bandits.

Maintains::

    Y = lambda * I + sum_i x_i x_i^T        (d x d design matrix)
    b = sum_i r_i x_i                        (d response vector)

together with ``Y^{-1}``, updated per observation via the
Sherman--Morrison identity so a round costs ``O(d^2)`` per arranged
event instead of the ``O(d^3)`` full inversion the paper's complexity
analysis budgets for.  Batches of ``k`` observations are folded with a
single rank-``k`` Woodbury update — ``O(d^2 k + k^3)`` instead of ``k``
rank-1 passes — and the ridge estimate ``theta_hat = Y^{-1} b`` is
cached between updates so repeated scoring calls within one round pay
``O(d)`` (a copy) rather than ``O(d^2)``.  A full re-inversion is
performed every ``refresh_every`` rank updates to bound numerical
drift.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np
import numpy.typing as npt

from repro.exceptions import ConfigurationError
from repro.linalg.lapack import solve

#: Dense float64 array — the only dtype the ridge state traffics in.
FloatArray = npt.NDArray[np.float64]


class RidgeState:
    """Sufficient statistics ``(Y, b)`` of a ridge regression.

    Parameters
    ----------
    dim:
        Feature dimension ``d``.
    lam:
        Ridge regulariser ``lambda`` (> 0); ``Y`` starts at ``lam * I``.
    refresh_every:
        Recompute ``Y^{-1}`` from scratch after this many rank-1
        updates (a rank-``k`` batch counts as ``k``).  ``0`` disables
        incremental maintenance entirely and inverts on demand (the
        "direct" mode benchmarked by the Sherman--Morrison ablation).
    """

    def __init__(self, dim: int, lam: float = 1.0, refresh_every: int = 4096) -> None:
        if dim < 1:
            raise ConfigurationError(f"dim must be >= 1, got {dim}")
        if lam <= 0:
            raise ConfigurationError(f"lambda must be > 0, got {lam}")
        if refresh_every < 0:
            raise ConfigurationError(f"refresh_every must be >= 0, got {refresh_every}")
        self.dim = dim
        self.lam = float(lam)
        self.refresh_every = refresh_every
        self.reset()

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def y(self) -> FloatArray:
        """The ``d x d`` design matrix ``Y`` (copy; mutating it cannot
        corrupt state)."""
        return self._y.copy()

    @property
    def b(self) -> FloatArray:
        """The ``(d,)`` response vector ``b`` (copy)."""
        return self._b.copy()

    @property
    def y_inv(self) -> FloatArray:
        """Current ``Y^{-1}`` as a ``d x d`` matrix (copy), recomputed
        lazily in direct mode."""
        if self._y_inv is None:
            self._y_inv = np.linalg.inv(self._y)
        return self._y_inv.copy()

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update(self, x: npt.ArrayLike, reward: float) -> None:
        """Fold one observation ``(x, reward)`` into the statistics.

        ``x`` is a ``(d,)`` feature vector (any array reshapeable to
        it); ``reward`` a scalar.  ``Y`` gains the rank-1 term
        ``x x^T`` (staying SPD), the maintained inverse is advanced by
        Sherman--Morrison, and the cached ``theta_hat`` is invalidated.
        """
        vec: FloatArray = np.asarray(x, dtype=float).reshape(-1)
        if vec.size != self.dim:
            raise ConfigurationError(
                f"feature vector has size {vec.size}, expected {self.dim}"
            )
        self._y += np.outer(vec, vec)
        self._b += reward * vec
        self.num_observations += 1
        self._theta = None
        if self.refresh_every == 0:
            self._y_inv = None
            return
        self._updates_since_refresh += 1
        if self._updates_since_refresh >= self.refresh_every or self._y_inv is None:
            self._y_inv = np.linalg.inv(self._y)
            self._updates_since_refresh = 0
        else:
            # Sherman--Morrison: (Y + xx^T)^{-1} = Y^{-1} - (Y^{-1}x x^T Y^{-1}) / (1 + x^T Y^{-1} x)
            y_inv_x = self._y_inv @ vec
            denom = 1.0 + float(vec @ y_inv_x)
            self._y_inv -= np.outer(y_inv_x, y_inv_x) / denom

    def update_batch(self, xs: npt.ArrayLike, rewards: npt.ArrayLike) -> None:
        """Fold a batch of observations (rows of ``xs``) into the statistics.

        The inverse is maintained with one rank-``k`` Woodbury update::

            (Y + X^T X)^{-1}
                = Y^{-1} - Y^{-1} X^T (I_k + X Y^{-1} X^T)^{-1} X Y^{-1}

        costing ``O(d^2 k + k^3)`` instead of ``k`` separate
        Sherman--Morrison rank-1 passes.  Inputs are validated once for
        the whole batch; in direct mode (``refresh_every=0``) only the
        sufficient statistics are touched and the inverse is
        invalidated, exactly like :meth:`update`.
        """
        rows: FloatArray = np.asarray(xs, dtype=float)
        if rows.ndim == 1:
            rows = rows[np.newaxis, :]
        gains: FloatArray = np.asarray(rewards, dtype=float)
        if gains.ndim != 1:
            gains = gains.reshape(-1)
        if rows.shape[0] != gains.size:
            raise ConfigurationError(
                f"{rows.shape[0]} feature rows but {gains.size} rewards"
            )
        k = int(gains.size)
        if k == 0:
            return
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            raise ConfigurationError(
                f"feature rows have size {rows.shape[1:]}, expected {self.dim}"
            )
        self._y += rows.T @ rows
        self._b += gains @ rows
        self.num_observations += k
        self._theta = None
        if self.refresh_every == 0:
            self._y_inv = None
            return
        self._updates_since_refresh += k
        if self._updates_since_refresh >= self.refresh_every or self._y_inv is None:
            self._y_inv = np.linalg.inv(self._y)
            self._updates_since_refresh = 0
            return
        if k == 1:
            # Rank-1 batch: plain Sherman--Morrison, no k x k solve.  The
            # broadcast product is ``np.outer``'s own, minus its wrapper.
            vec = rows[0]
            y_inv_x = self._y_inv @ vec
            denom = 1.0 + float(vec @ y_inv_x)
            self._y_inv -= y_inv_x[:, np.newaxis] * y_inv_x / denom
            return
        # Woodbury rank-k downdate of the maintained inverse.
        y_inv_xt = self._y_inv @ rows.T  # (d, k)
        capacitance = rows @ y_inv_xt  # (k, k)
        capacitance.ravel()[:: k + 1] += 1.0  # I_k + X Y^-1 X^T, diag stride
        self._y_inv -= y_inv_xt @ solve(capacitance, y_inv_xt.T)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def theta_hat(self) -> FloatArray:
        """The ridge estimate ``theta_hat = Y^{-1} b``, a ``(d,)``
        vector (line 5/6 of Algs. 1, 3).

        Cached between updates: the solve/multiply happens at most once
        per ``update``/``update_batch``/``restore``/``reset`` cycle, and
        callers receive a copy so mutating the result cannot corrupt
        the cache.
        """
        if self._theta is None:
            if self._y_inv is not None:
                self._theta = self._y_inv @ self._b
            else:
                self._theta = np.linalg.solve(self._y, self._b)
        return self._theta.copy()

    def confidence_widths(self, contexts: npt.ArrayLike) -> FloatArray:
        """``sqrt(x^T Y^{-1} x)`` for each row ``x`` of ``contexts``.

        This is the exploration bonus of line 8 in Algorithm 3 (before
        scaling by ``alpha``).
        """
        matrix: FloatArray = np.atleast_2d(np.asarray(contexts, dtype=float))
        if matrix.shape[1] != self.dim:
            raise ConfigurationError(
                f"context rows have size {matrix.shape[1]}, expected {self.dim}"
            )
        y_inv = self._y_inv if self._y_inv is not None else np.linalg.inv(self._y)
        # (X @ Y^-1 * X).sum(1) == diag(X Y^-1 X^T): one BLAS GEMM plus a
        # rowwise reduction, substantially faster than the einsum
        # contraction for the |V| x d context matrices of a round.
        quad = np.multiply(matrix @ y_inv, matrix).sum(axis=1)
        return np.sqrt(np.maximum(quad, 0.0))

    def restore(self, y: npt.ArrayLike, b: npt.ArrayLike, num_observations: int) -> None:
        """Overwrite the statistics with previously exported state.

        Used by :mod:`repro.io.policy_state` to warm-start a policy from
        a saved run.  ``y`` must be symmetric positive definite of the
        right shape.
        """
        design: FloatArray = np.asarray(y, dtype=float)
        response: FloatArray = np.asarray(b, dtype=float).reshape(-1)
        if design.shape != (self.dim, self.dim):
            raise ConfigurationError(
                f"Y has shape {design.shape}, expected ({self.dim}, {self.dim})"
            )
        if response.size != self.dim:
            raise ConfigurationError(
                f"b has size {response.size}, expected {self.dim}"
            )
        if num_observations < 0:
            raise ConfigurationError(
                f"num_observations must be >= 0, got {num_observations}"
            )
        if not np.allclose(design, design.T):
            raise ConfigurationError("Y must be symmetric")
        try:
            np.linalg.cholesky(design)
        except np.linalg.LinAlgError as error:
            raise ConfigurationError("Y must be positive definite") from error
        self._y = design.copy()
        self._b = response.copy()
        self._y_inv = np.linalg.inv(self._y) if self.refresh_every else None
        self._theta = None
        self._updates_since_refresh = 0
        self.num_observations = int(num_observations)

    def checkpoint_state(self) -> Dict[str, FloatArray]:
        """Export the *exact* internal state for a bit-identical resume.

        Unlike the ``(Y, b, n)`` layout of :meth:`restore` — which
        recomputes ``Y^{-1}`` from scratch and therefore differs from
        the Sherman--Morrison-maintained inverse in the low-order bits —
        this captures the maintained inverse, the cached ``theta_hat``
        and the refresh counter verbatim, so
        :meth:`restore_checkpoint` reproduces every subsequent update
        bit-for-bit.
        """
        state: Dict[str, FloatArray] = {
            "y": self._y.copy(),
            "b": self._b.copy(),
            "meta": np.array(
                [
                    self.num_observations,
                    self._updates_since_refresh,
                    1 if self._y_inv is not None else 0,
                    1 if self._theta is not None else 0,
                ],
                dtype=np.int64,
            ),
        }
        if self._y_inv is not None:
            state["y_inv"] = self._y_inv.copy()
        if self._theta is not None:
            state["theta"] = self._theta.copy()
        return state

    def restore_checkpoint(self, state: Mapping[str, FloatArray]) -> None:
        """Restore the exact state exported by :meth:`checkpoint_state`.

        Every array is validated against this instance's dimension
        before anything is mutated; a mismatched archive raises
        :class:`~repro.exceptions.ConfigurationError` naming both
        shapes instead of surfacing as a numpy broadcast error later.
        """
        design: FloatArray = np.asarray(state["y"], dtype=float)
        response: FloatArray = np.asarray(state["b"], dtype=float).reshape(-1)
        meta = np.asarray(state["meta"], dtype=np.int64).reshape(-1)
        if design.shape != (self.dim, self.dim):
            raise ConfigurationError(
                f"checkpoint Y has shape {design.shape}, expected "
                f"({self.dim}, {self.dim})"
            )
        if response.size != self.dim:
            raise ConfigurationError(
                f"checkpoint b has size {response.size}, expected {self.dim}"
            )
        if meta.size != 4:
            raise ConfigurationError(
                f"checkpoint meta has size {meta.size}, expected 4"
            )
        has_inv, has_theta = bool(meta[2]), bool(meta[3])
        y_inv: Optional[FloatArray] = None
        if has_inv:
            y_inv = np.asarray(state["y_inv"], dtype=float)
            if y_inv.shape != (self.dim, self.dim):
                raise ConfigurationError(
                    f"checkpoint Y^-1 has shape {y_inv.shape}, expected "
                    f"({self.dim}, {self.dim})"
                )
        theta: Optional[FloatArray] = None
        if has_theta:
            theta = np.asarray(state["theta"], dtype=float).reshape(-1)
            if theta.size != self.dim:
                raise ConfigurationError(
                    f"checkpoint theta has size {theta.size}, expected {self.dim}"
                )
        self._y = design.copy()
        self._b = response.copy()
        self._y_inv = y_inv.copy() if y_inv is not None else None
        self._theta = theta.copy() if theta is not None else None
        self.num_observations = int(meta[0])
        self._updates_since_refresh = int(meta[1])

    def reset(self) -> None:
        """Forget all observations; return to the prior ``(lam * I, 0)``.

        Restores the SPD prior ``Y = lam * I`` with its exact inverse
        and re-caches ``theta_hat = 0``.
        """
        # Scaled in place: the d x d temporaries of ``lam * np.eye(d)``
        # and ``np.eye(d) / lam``, freed at once, made glibc trim and
        # re-fault the heap on every suite build at large d.
        self._y: FloatArray = np.eye(self.dim)
        self._y *= self.lam
        self._b: FloatArray = np.zeros(self.dim)
        self._y_inv: Optional[FloatArray] = None
        if self.refresh_every:
            self._y_inv = np.eye(self.dim)
            self._y_inv /= self.lam
        self._theta: Optional[FloatArray] = np.zeros(self.dim)
        self._updates_since_refresh = 0
        self.num_observations = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RidgeState(dim={self.dim}, lam={self.lam}, "
            f"n={self.num_observations})"
        )
