"""A fixed reference kernel that gauges the machine's speed between calls.

On a shared host the vCPU speed drifts by a third or more within a
minute, so raw wall rates of identical code spread past any useful
bound.  The benchmark runs this kernel right before and right after
every timed call and scales the call's rate by how long the kernel took
against its nominal time: a drift that slows both cancels out.

The kernel is written against numpy alone and never calls into
``src/``, so a change to the program leaves its time alone.  It mirrors
the two kinds of work in a call, at the workload's |V| and d, so that it
loads the caches, memory and interpreter the way the call does:

- a scaled-down world build: conflict pairs drawn, unranked by a
  binary search and scattered into a dense |V| x |V| matrix;
- frozen, simplified FASEA rounds: contexts drawn and normalised, ridge
  scores and confidence widths, a stable sort, a Python-level pass over
  the top events, a rank-k Gram update and a Cholesky factor.

The build sample is scaled so that the two parts weigh in the probe
about as they weigh in the call: the build is about half the probe at
|V| = 10^4, as in the call, and negligible at |V| = 500.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Events taken per kernel round, as a per-user capacity would.
TAKEN_PER_ROUND = 5
#: Share of a world's conflict pairs that the build part samples.
BUILD_FRACTION = 1 / 60


def reference_build(num_events: int, conflict_ratio: float, rng: np.random.Generator) -> int:
    """Scatter a sample of conflict pairs into a fresh dense matrix."""
    total = num_events * (num_events - 1) // 2
    flat = rng.integers(total, size=max(1, int(conflict_ratio * total * BUILD_FRACTION)))
    offsets = np.concatenate([[0], np.cumsum(num_events - 1 - np.arange(num_events - 1))])
    rows = np.searchsorted(offsets, flat, side="right") - 1
    columns = flat - offsets[rows] + rows + 1
    matrix = np.zeros((num_events, num_events), dtype=bool)
    matrix[rows, columns] = True
    return int(matrix[rows[0]].sum())


def reference_rounds(num_events: int, dim: int, rounds: int, rng: np.random.Generator) -> float:
    """Run ``rounds`` kernel rounds; return a checksum of their scores."""
    gram = np.eye(dim)
    target = np.zeros(dim)
    blocked = np.zeros(num_events, dtype=bool)
    checksum = 0.0
    for _ in range(rounds):
        contexts = rng.standard_normal((num_events, dim))
        contexts /= np.linalg.norm(contexts, axis=1, keepdims=True)
        inverse = np.linalg.inv(gram)
        theta = inverse @ target
        widths = np.sqrt(np.maximum(np.multiply(contexts @ inverse, contexts).sum(axis=1), 0.0))
        order = np.argsort(-(contexts @ theta + widths), kind="stable")
        chosen = []
        for event in order[: 2 * TAKEN_PER_ROUND].tolist():
            if not blocked[event] and len(chosen) < TAKEN_PER_ROUND:
                chosen.append(event)
        blocked[:] = False
        blocked[order[-TAKEN_PER_ROUND:]] = True
        rows = contexts[chosen]
        gram += rows.T @ rows
        target += rows.sum(axis=0) * rng.random()
        checksum += float(np.linalg.cholesky(gram)[-1, -1])
    return checksum


def probe_seconds(num_events: int, dim: int, rounds: int, conflict_ratio: float) -> float:
    """Wall seconds of one fixed run of the kernel."""
    rng = np.random.default_rng(0)
    start = perf_counter()
    reference_build(num_events, conflict_ratio, rng)
    reference_rounds(num_events, dim, rounds, rng)
    return perf_counter() - start
