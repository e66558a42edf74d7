"""Layer spans recorded from outside the program.

The benchmark times each FASEA layer by wrapping the public functions
that enter it; nothing inside ``src/`` changes.  A :class:`Tracer` swaps
each entry point for a wrapper while a traced pass runs and restores the
original afterwards.  Every call records one span (layer, start, end,
parent span, seed cell) in memory; :meth:`Tracer.save` writes them out
when the run ends.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans under the root add up to the
root's duration exactly.  The root's own self time is the runner's
dispatch: the loop code between the wrapped layers.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

import repro.analysis.replication
import repro.bandits
import repro.bandits.base
import repro.bandits.linear
import repro.bandits.ts
import repro.datasets.synthetic
import repro.ebsn.platform
import repro.linalg.ridge
import repro.oracle.random_order
import repro.parallel.cells

ROOT = "call"

Hook = Callable[..., None]


class Tracer:
    """In-memory span recorder plus the counters measured at the spans."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        self._layer: List[int] = []
        self._parent: List[int] = []
        self._cell: List[int] = []
        self._start: List[float] = []
        self._end: List[float] = []
        self._stack: List[int] = []
        #: Seed cell of new spans; each world build starts the next one.
        self.cell = -1
        #: Name of the policy whose ``select`` ran last (owns the commit).
        self.policy = ""
        self.counts: Counter = Counter()
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def _open(self, layer_id: int) -> int:
        index = len(self._layer)
        self._layer.append(layer_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._cell.append(self.cell)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self._end[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Record one span around a block (the root of a traced pass)."""
        index = self._open(self._layer_id(layer))
        try:
            yield
        finally:
            self._close(index)

    def wrap(
        self,
        layer: str,
        fn: Callable[..., Any],
        before: Optional[Hook] = None,
        after: Optional[Hook] = None,
    ) -> Callable[..., Any]:
        """``fn`` recording a ``layer`` span per call.

        ``before(args, kwargs)`` runs ahead of the span and
        ``after(args, kwargs, result)`` behind it, so counter upkeep
        lands in the parent's self time, not the layer's.
        """
        layer_id = self._layer_id(layer)
        open_span, close_span = self._open, self._close

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(args, kwargs)
            index = open_span(layer_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(self, owner: Any, attribute: str, layer: str, **hooks: Hook) -> None:
        """Replace ``owner.attribute`` with its traced wrapper."""
        if isinstance(owner, type):
            # Only a class's own method: patching an inherited one would
            # silently trace every sibling class too.
            original = vars(owner)[attribute]
        else:
            original = getattr(owner, attribute)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(layer, original, **hooks))

    def restore(self) -> None:
        """Put every patched entry point back."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _arrays(self) -> Dict[str, np.ndarray]:
        return {
            "layer": np.asarray(self._layer, dtype=np.int32),
            "parent": np.asarray(self._parent, dtype=np.int64),
            "cell": np.asarray(self._cell, dtype=np.int32),
            "start": np.asarray(self._start, dtype=float),
            "end": np.asarray(self._end, dtype=float),
        }

    def layer_totals(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Per-layer self seconds and span counts."""
        spans = self._arrays()
        duration = spans["end"] - spans["start"]
        children = np.zeros_like(duration)
        nested = spans["parent"] >= 0
        np.add.at(children, spans["parent"][nested], duration[nested])
        size = len(self.layers)
        seconds = np.bincount(spans["layer"], weights=duration - children, minlength=size)
        calls = np.bincount(spans["layer"], minlength=size)
        return (
            {layer: float(seconds[i]) for i, layer in enumerate(self.layers)},
            {layer: int(calls[i]) for i, layer in enumerate(self.layers)},
        )

    def durations(self, layer: str) -> List[float]:
        """Duration of every span of ``layer``, in recording order."""
        layer_id = self._layer_ids.get(layer)
        return [
            end - start
            for lid, start, end in zip(self._layer, self._start, self._end)
            if lid == layer_id
        ]

    def save(self, path: Path, **meta: Any) -> None:
        """Write the spans (times relative to the first span) to ``path``."""
        spans = self._arrays()
        origin = spans["start"].min() if spans["start"].size else 0.0
        spans["start"] -= origin
        spans["end"] -= origin
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            layers=np.asarray(self.layers),
            meta=np.asarray(repr(sorted(meta.items()))),
            **spans,
        )


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (see README.md's table)."""
    counts = tracer.counts
    synthetic = repro.datasets.synthetic

    def next_cell(args: tuple, kwargs: dict) -> None:
        tracer.cell += 1

    def selected(args: tuple, kwargs: dict, result: Any) -> None:
        tracer.policy = args[0].name

    def arranged(args: tuple, kwargs: dict, result: List[int]) -> None:
        counts["oracle.arranged"] += len(result)
        counts["oracle.requested"] += kwargs["user_capacity"]

    def committed(args: tuple, kwargs: dict, entry: Any) -> None:
        store = args[0].store
        counts["platform.arranged"] += len(entry.arranged)
        counts["platform.accepted"] += len(entry.accepted)
        drained = sum(1 for event in entry.accepted if not store.is_available(event))
        counts[f"platform.drained.{tracer.policy}"] += drained

    def updated(args: tuple, kwargs: dict, result: Any) -> None:
        counts["ridge.rows"] += len(args[1])

    # setup: the world builds inside the call and their conflict graphs
    for module in (repro.analysis.replication, repro.parallel.cells):
        tracer.patch(module, "build_world", "setup.world", before=next_cell)
    tracer.patch(synthetic, "random_conflict_array", "setup.conflicts")
    tracer.patch(synthetic, "ConflictGraph", "setup.conflicts")
    # context sampling and the feedback probabilities
    tracer.patch(synthetic.ContextSampler, "sample", "context")
    tracer.patch(synthetic.SyntheticWorld, "accept_probabilities", "feedback")
    # scoring, with each policy's select as the enclosing span
    tracer.patch(repro.bandits.linear.LinearModel, "predict", "scoring.predict")
    tracer.patch(repro.linalg.ridge.RidgeState, "confidence_widths", "scoring.ucb_width")
    tracer.patch(repro.bandits.ts, "cholesky_sample", "scoring.ts_draw")
    for policy in (
        repro.bandits.OptPolicy,
        repro.bandits.UcbPolicy,
        repro.bandits.ThompsonSamplingPolicy,
        repro.bandits.EpsilonGreedyPolicy,
        repro.bandits.ExploitPolicy,
        repro.bandits.RandomPolicy,
    ):
        tracer.patch(policy, "select", "bandits.select", after=selected)
    # Oracle-Greedy, as the policies and the random-order baseline bind it
    tracer.patch(repro.bandits.base, "oracle_greedy", "oracle", after=arranged)
    tracer.patch(repro.oracle.random_order, "oracle_greedy", "oracle", after=arranged)
    # the platform commit and the ridge update
    tracer.patch(repro.ebsn.platform.Platform, "commit", "platform", after=committed)
    tracer.patch(repro.linalg.ridge.RidgeState, "update_batch", "ridge", after=updated)
