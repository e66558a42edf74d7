"""Random-number helpers: seeded generators and Gaussian sampling.

All randomness in the library flows through :func:`make_rng` /
:func:`spawn_rng` so that experiments are reproducible bit-for-bit and
independent components (context stream, feedback coin flips, policy
sampling) never share a generator.
"""

from __future__ import annotations

from typing import Union

import numpy as np
import numpy.typing as npt

from repro.exceptions import ConfigurationError
from repro.linalg.lapack import cholesky

RngLike = Union[int, np.random.Generator, None]


def make_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be ``None`` (non-deterministic), an integer, or an
    existing generator (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def capture_rng_state(rng: np.random.Generator) -> dict:
    """Export a generator's bit-generator state as plain JSON-able data.

    The returned dict round-trips through :func:`restore_rng_state`:
    restoring it puts the generator at the *exact* stream position it
    held at capture time, so a resumed run draws the same tail of
    values an uninterrupted run would.  Reading the state does not
    advance the stream.
    """
    return dict(rng.bit_generator.state)


def restore_rng_state(rng: np.random.Generator, state: dict) -> None:
    """Restore a bit-generator state captured by :func:`capture_rng_state`.

    Raises
    ------
    ConfigurationError
        If ``state`` belongs to a different bit-generator family than
        ``rng`` (e.g. a PCG64 state offered to a Philox generator).
    """
    expected = rng.bit_generator.state.get("bit_generator")
    offered = state.get("bit_generator") if isinstance(state, dict) else None
    if offered != expected:
        raise ConfigurationError(
            f"RNG state is for bit generator {offered!r}, expected {expected!r}"
        )
    try:
        rng.bit_generator.state = state
    except (KeyError, TypeError, ValueError) as error:
        raise ConfigurationError(f"invalid RNG state: {error}") from error


def spawn_rng(rng: np.random.Generator, *keys: int) -> np.random.Generator:
    """Derive an independent child generator from ``rng`` and ``keys``.

    The child is a deterministic function of the parent's bit-generator
    state *at creation time* and the integer ``keys``; use it to give
    sub-components (e.g. the feedback stream at time step ``t``) their
    own stream without perturbing the parent.
    """
    seed_seq = np.random.SeedSequence(
        entropy=int(rng.integers(0, 2**63 - 1)), spawn_key=tuple(keys)
    )
    return np.random.default_rng(seed_seq)


def cholesky_sample(
    mean: npt.ArrayLike,
    covariance: npt.ArrayLike,
    rng: np.random.Generator,
    jitter: float = 1e-10,
    max_tries: int = 5,
) -> npt.NDArray[np.float64]:
    """Draw one ``(d,)`` sample from ``N(mean, covariance)`` via
    Cholesky factoring.

    ``mean`` is a ``(d,)`` vector; ``covariance`` a ``d x d`` matrix,
    symmetric positive semi-definite up to noise.  A growing diagonal
    ``jitter`` is added when the factorisation fails, which happens for
    near-singular posterior covariances late in a Thompson Sampling run.

    Raises
    ------
    ConfigurationError
        If the covariance cannot be factorised even with jitter.
    """
    loc: npt.NDArray[np.float64] = np.asarray(mean, dtype=float)
    cov: npt.NDArray[np.float64] = np.asarray(covariance, dtype=float)
    if loc.ndim != 1:
        raise ConfigurationError(f"mean must be a vector, got shape {loc.shape}")
    if cov.shape != (loc.size, loc.size):
        raise ConfigurationError(
            f"covariance shape {cov.shape} does not match mean size {loc.size}"
        )
    symmetric = 0.5 * (cov + cov.T)
    scale = max(float(np.trace(symmetric)) / loc.size, 1.0)
    for attempt in range(max_tries):
        bump = jitter * scale * (10.0**attempt)
        try:
            lower = cholesky(symmetric + bump * np.eye(loc.size))
        except np.linalg.LinAlgError:
            continue
        return loc + lower @ rng.standard_normal(loc.size)
    raise ConfigurationError("covariance matrix is not positive semi-definite")
