"""Streaming telemetry sinks: crash-safe incremental flushing.

PR 3's sinks wrote ``metrics.json``/``trace.jsonl`` once, *after* a run
finished — a killed 10⁶-round fleet run left nothing.  This module
makes telemetry durable **while the run is alive**:

* :class:`StreamingSink` periodically rotates an atomic snapshot of
  ``metrics.json`` (temp file + ``os.replace``, so the file on disk is
  always a complete, loadable document) and *appends* new trace records
  to ``trace.jsonl`` (one complete JSON line per record, periodically
  ``fsync``'d).  A SIGKILL at any instant therefore leaves the last
  published snapshot plus a trace whose longest valid prefix parses —
  ``tests/test_obs_stream.py`` proves both.
* ``fasea obs top <dir>`` (:mod:`repro.obs.dashboard`) follows those
  files from another terminal: the counters, per-policy reward/θ̂-drift
  and oracle fill-rate of a running (or finished) experiment,
  re-rendered whenever the snapshot rotates.

Flush cadence is configurable in **rounds** and **seconds** (whichever
fires first); the cadence check is two integer comparisons on the
monotonic clock, and the sink is only consulted at all when
instrumentation is enabled — the disabled-mode hot path is unchanged
(``benchmarks/bench_overhead.py`` gates this at ≤3%).

Determinism contract: streaming writes *observe* the registry, never
mutate it, and never touch an RNG stream — results are bit-identical
with streaming on or off.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.exceptions import ConfigurationError
from repro.obs.clock import monotonic
from repro.obs.core import InstrumentationLike

#: Default flush cadence: every this many rounds ...
DEFAULT_FLUSH_ROUNDS = 200
#: ... or this many seconds, whichever comes first.
DEFAULT_FLUSH_SECONDS = 5.0
#: Force trace bytes to disk every this many flushes.
DEFAULT_FSYNC_FLUSHES = 5


class StreamingSink:
    """Incrementally publish a run's telemetry while it is running.

    Parameters
    ----------
    directory:
        Where ``metrics.json`` / ``trace.jsonl`` land (created if
        missing) — the same layout ``persist_run_telemetry`` writes, so
        every ``fasea obs`` verb works on a live directory.
    obs:
        The registry to observe.  A disabled registry makes the sink a
        no-op (every flush publishes an empty snapshot; ``maybe_flush``
        still costs only the cadence check).
    flush_every_rounds / flush_every_seconds:
        Cadence knobs; either may be ``None`` to disable that trigger.
        At least one trigger must remain.
    fsync_every_flushes:
        Appended trace bytes are ``fsync``'d every N-th flush (and
        always on :meth:`close`): crash-durability without paying a
        disk barrier per flush.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        obs: InstrumentationLike,
        flush_every_rounds: Optional[int] = DEFAULT_FLUSH_ROUNDS,
        flush_every_seconds: Optional[float] = DEFAULT_FLUSH_SECONDS,
        fsync_every_flushes: int = DEFAULT_FSYNC_FLUSHES,
    ) -> None:
        if flush_every_rounds is None and flush_every_seconds is None:
            raise ConfigurationError(
                "streaming sink needs at least one flush trigger "
                "(rounds or seconds)"
            )
        if flush_every_rounds is not None and flush_every_rounds < 1:
            raise ConfigurationError(
                f"flush_every_rounds must be >= 1, got {flush_every_rounds}"
            )
        if flush_every_seconds is not None and flush_every_seconds <= 0:
            raise ConfigurationError(
                f"flush_every_seconds must be > 0, got {flush_every_seconds}"
            )
        if fsync_every_flushes < 1:
            raise ConfigurationError(
                f"fsync_every_flushes must be >= 1, got {fsync_every_flushes}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._obs = obs
        self._flush_every_rounds = flush_every_rounds
        self._flush_every_seconds = flush_every_seconds
        self._fsync_every_flushes = fsync_every_flushes
        self._rounds_since_flush = 0
        self._last_flush = monotonic()
        self._trace_cursor = 0
        self._flush_count = 0
        self._closed = False
        # Start the trace fresh: a re-used directory must not leak the
        # previous run's records into this run's prefix.
        from repro.obs.trace import write_trace_jsonl

        write_trace_jsonl([], self.directory / "trace.jsonl", atomic=True)

    # ------------------------------------------------------------------
    @property
    def metrics_path(self) -> Path:
        """The atomic snapshot this sink rotates."""
        return self.directory / "metrics.json"

    @property
    def trace_path(self) -> Path:
        """The append-only trace this sink extends."""
        return self.directory / "trace.jsonl"

    @property
    def flush_count(self) -> int:
        """How many times this sink has published so far."""
        return self._flush_count

    # ------------------------------------------------------------------
    def maybe_flush(self, rounds: int = 1) -> bool:
        """Account ``rounds`` finished rounds; flush if a trigger fired.

        Returns ``True`` when a flush happened.  This is the per-round
        call site, so the no-trigger path is deliberately cheap: one
        addition, at most two comparisons and one monotonic clock read.
        """
        self._rounds_since_flush += rounds
        if (
            self._flush_every_rounds is not None
            and self._rounds_since_flush >= self._flush_every_rounds
        ):
            self.flush()
            return True
        if self._flush_every_seconds is not None and (
            monotonic() - self._last_flush >= self._flush_every_seconds
        ):
            self.flush()
            return True
        return False

    def flush(self, fsync: Optional[bool] = None) -> None:
        """Publish the current snapshot + any new trace records now.

        ``metrics.json`` is rewritten atomically (readers never see a
        torn document); trace records accumulated since the previous
        flush are appended, each a complete JSON line.  ``fsync``
        defaults to the every-N-flushes policy.
        """
        from repro.io.runstore import atomic_write_text
        from repro.obs.export import snapshot_to_json
        from repro.obs.trace import append_trace_jsonl

        self._flush_count += 1
        if fsync is None:
            fsync = self._flush_count % self._fsync_every_flushes == 0
        new_records = self._obs.trace_records_since(self._trace_cursor)
        if new_records:
            append_trace_jsonl(new_records, self.trace_path, fsync=fsync)
            self._trace_cursor += len(new_records)
        atomic_write_text(self.metrics_path, snapshot_to_json(self._obs.snapshot()))
        self._rounds_since_flush = 0
        self._last_flush = monotonic()

    def close(self) -> None:
        """Final flush with a forced ``fsync`` (idempotent)."""
        if self._closed:
            return
        self.flush(fsync=True)
        self._closed = True

    def __enter__(self) -> "StreamingSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
