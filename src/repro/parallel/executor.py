"""Deterministic, fault-tolerant process-pool execution of work units.

The experiment layer is embarrassingly parallel: common-random-number
coupling (DESIGN.md §5.1) means every ``(world seed, run seed, policy)``
cell draws its streams from its own seed tree, so cells can run in any
order — or concurrently — without perturbing each other.  What *must*
not change with the worker count is the merged output.  This module
guarantees that by construction:

* work units are submitted in caller order and results are collected
  **by submission index**, never by completion order;
* worker functions receive plain picklable payloads and return plain
  picklable results — no shared state, no queues to drain.

A call takes one of two paths:

* **the live path** — ``jobs=1`` with telemetry on, no unit cache and
  no ``keep_going``: the units run inline against the caller's own
  registry, so ``--stream`` flushes and the disk-backed flight log see
  every round while a cell is still running;
* **the outcome path** — everything else.  Each unit runs through one
  worker function (:func:`_run_unit`), inline when ``jobs=1`` or on a
  process pool otherwise, under a fresh registry when telemetry is on.
  Both fill the same submission-ordered ``("ok"|"fail", value)``
  outcome list, and one merge loop under the ``run_work_units`` span
  folds the outcomes into the caller's registry (worker spans nested
  under that span), so results, failures, metrics and profile stacks
  do not depend on ``jobs`` or on a resume.

Fault tolerance (DESIGN.md §5.13):

* an ordinary exception in a unit shuts the pool down with
  ``cancel_futures=True`` — queued units never start, the sweep exits
  promptly — and re-raises annotated with the unit index;
* ``timeout`` bounds the wait per unit; a wedged unit terminates the
  pool (workers included) and raises
  :class:`~repro.exceptions.WorkUnitTimeoutError`;
* ``retries`` rebuilds the pool after a *crashed/killed* worker
  (``BrokenProcessPool``) and re-runs the lost units — a fresh process
  on the same unit produces the same result (CRN coupling), so a
  transient kill is invisible in the output;
* ``keep_going`` degrades gracefully instead of raising: failed units
  become :class:`UnitFailure` placeholders in the result list (unit
  order preserved) and, once the retry budget is spent, crashing units
  are isolated one-per-pool so one poisoned cell cannot take down its
  batch mates;
* a :class:`~repro.io.checkpoint.ExecutorCheckpoint` caches each
  completed unit's outcome on disk (worker-side, atomically), so a
  killed sweep resumes by replaying finished units bit-identically.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
    cast,
)

from repro.exceptions import ConfigurationError, WorkUnitTimeoutError
from repro.io.checkpoint import (
    ExecutorCheckpoint,
    UnitCacheScope,
    active_executor_checkpoint,
    save_unit_result,
    unit_digest,
)
from repro.obs.clock import wall_time
from repro.obs.core import Instrumentation, MetricsSnapshot, current, use
from repro.obs.flight import FlightBuffer

if TYPE_CHECKING:  # the pool is imported where it is made (_execute_pool)
    from concurrent.futures import ProcessPoolExecutor

T = TypeVar("T")
R = TypeVar("R")

#: Executor emit-site metric names (FAS016).
CELL_SECONDS_METRIC = "parallel.cell_seconds"
QUEUE_LATENCY_METRIC = "parallel.queue_latency_seconds"
CELL_WALL_SECONDS_METRIC = "parallel.cell_wall_seconds"
WORKERS_METRIC = "parallel.workers"
UNITS_METRIC = "parallel.units"
RETRIES_METRIC = "parallel.retries"
UNIT_FAILURES_METRIC = "parallel.unit_failures"
#: Trace event names (events only — resumed runs must keep metrics.json
#: byte-comparable to uninterrupted ones, and cache hits happen only on
#: resumed runs).
POOL_RETRY_EVENT = "parallel.pool_retry"
UNIT_FAILED_EVENT = "parallel.unit_failed"
UNIT_CACHED_EVENT = "parallel.unit_cached"


@dataclass(frozen=True)
class UnitFailure:
    """Placeholder for a failed unit in a ``keep_going`` result list.

    ``index`` is the submission index (the list position it occupies),
    ``error_type``/``message`` describe the exception or crash, and
    ``retried`` counts how many pool rebuilds preceded the verdict.
    """

    index: int
    error_type: str
    message: str
    retried: int = 0


@dataclass(frozen=True)
class _Telemetry:
    """What a worker records next to its result (the caller's settings).

    The worker runs its unit under a fresh registry with the caller's
    ``--profile`` sampling config, an in-memory flight buffer when the
    caller records decisions, and the caller's ``--health`` setting.
    Everything recorded travels back with the result for a
    submission-order merge, which is what makes ``decisions.jsonl`` and
    the health and alert events in the trace byte-identical for every
    worker count.
    """

    flight: bool
    health: bool
    profile_config: Optional[Any]

    @property
    def captures(self) -> Tuple[str, ...]:
        """The channels a cached outcome holds (part of its cache key)."""
        optional = (("flight", self.flight), ("health", self.health))
        return ("telemetry",) + tuple(name for name, on in optional if on)


#: Worker payload: fn, unit, index, submitted-at wall time, telemetry
#: (``None`` when the caller's registry is disabled), cache directory
#: and unit digest (both ``None`` without a unit cache).
_WorkerPayload = Tuple[
    Callable[[Any], Any],
    Any,
    int,
    float,
    Optional[_Telemetry],
    Optional[str],
    Optional[str],
]
#: What one unit recorded: snapshot, trace and flight records.
_Recorded = Tuple[MetricsSnapshot, List[Dict[str, Any]], List[Dict[str, Any]]]
#: One unit's outcome — its result and what it recorded (``None`` with
#: telemetry off).  This is also the cache-entry value.
_WorkerResult = Tuple[Any, Optional[_Recorded]]
#: Internal outcome cells: ("ok", _WorkerResult) or ("fail", UnitFailure).
_Outcome = Tuple[str, Any]


def _run_unit(payload: _WorkerPayload) -> _WorkerResult:
    """Run one unit, inline or in a pool worker, and return its outcome.

    With telemetry, the unit runs under a fresh :class:`Instrumentation`
    configured from the :class:`_Telemetry` spec, and its snapshot,
    trace and flight records return with the result.  With a cache
    directory in the payload the outcome is pickled atomically before
    returning, so a later resume replays this unit without re-running
    it — telemetry included.

    Queue latency is measured with the wall clock
    (:func:`repro.obs.clock.wall_time`): ``perf_counter`` origins are
    not comparable across processes.
    """
    fn, unit, index, submitted_at, telemetry, cache_dir, digest = payload
    outcome: _WorkerResult
    if telemetry is None:
        outcome = (fn(unit), None)
    else:
        worker_obs = Instrumentation()
        worker_obs.profile_config = telemetry.profile_config
        flight = FlightBuffer() if telemetry.flight else None
        worker_obs.flight_recorder = flight
        worker_obs.health = telemetry.health
        queue_latency = max(0.0, wall_time() - submitted_at)
        with use(worker_obs):
            start = time.perf_counter()
            result = fn(unit)
            wall = time.perf_counter() - start
        worker_obs.timer(CELL_SECONDS_METRIC).observe(wall)
        worker_obs.timer(QUEUE_LATENCY_METRIC).observe(queue_latency)
        worker_obs.series(CELL_WALL_SECONDS_METRIC).append(index, wall)
        outcome = (
            result,
            (
                worker_obs.snapshot(),
                worker_obs.trace_records(),
                flight.records if flight is not None else [],
            ),
        )
    if cache_dir is not None and digest is not None:
        captures = telemetry.captures if telemetry is not None else ()
        save_unit_result(cache_dir, index, digest, outcome, captures)
    return outcome


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``jobs`` argument.

    ``None`` and ``1`` mean serial; ``0`` means "all available CPUs";
    anything negative is rejected.
    """
    if jobs is None:
        return 1
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return int(jobs)


def run_work_units(
    fn: Callable[[T], R],
    units: Sequence[T],
    jobs: Optional[int] = 1,
    *,
    timeout: Optional[float] = None,
    retries: int = 0,
    keep_going: bool = False,
    checkpoint: Optional[ExecutorCheckpoint] = None,
) -> List[Union[R, UnitFailure]]:
    """Apply ``fn`` to every unit, optionally across a process pool.

    Parameters
    ----------
    fn:
        A **module-level** callable (it is pickled by reference when
        ``jobs > 1``) mapping one work unit to its result.
    units:
        The work units, each a picklable payload.
    jobs:
        Worker processes.  ``1``/``None`` runs inline (no pool, no
        pickling); ``0`` uses every CPU; ``> 1`` spawns that many
        workers (capped at the number of units *and* at the machine's
        CPU count — oversubscribing cores cannot finish CPU-bound
        cells any sooner, it only adds scheduler thrash).
    timeout:
        Per-unit bound, in seconds, on waiting for a result (pool mode
        only; the serial path cannot pre-empt an inline call).  The
        clock starts when collection reaches the unit, so a sweep of
        ``n`` units exits after at most ``n * timeout`` seconds even
        if every unit wedges.  A timeout terminates the worker pool
        and raises :class:`~repro.exceptions.WorkUnitTimeoutError`.
        It must be finite and positive.
    retries:
        How many times a pool broken by a *crashed or killed* worker
        (``BrokenProcessPool``) is rebuilt and the lost units re-run.
        Re-running a unit in a fresh process yields a bit-identical
        result (CRN coupling), so transient kills are invisible in the
        output.  Ordinary exceptions are deterministic and never
        retried.
    keep_going:
        Record failures instead of raising: a failed unit's slot in
        the result list holds a :class:`UnitFailure` and the remaining
        units still run.  After the ``retries`` budget is exhausted,
        crashing units are isolated in single-worker pools so a
        poisoned unit is blamed precisely and its batch mates survive.
    checkpoint:
        An :class:`~repro.io.checkpoint.ExecutorCheckpoint` caching
        each completed unit's outcome on disk.  Defaults to the ambient
        scope (:func:`~repro.io.checkpoint.executor_checkpoint_scope`),
        if any.  On resume, cached units are replayed in submission
        order — bit-identically, telemetry included — and only the
        rest execute.  A resume under a different telemetry setting
        (registry, flight recorder or ``--health`` on vs off) than
        the cached run raises :class:`~repro.exceptions.ConfigurationError`.

    Returns
    -------
    list
        Results in **unit order**, regardless of completion order —
        the merged output is identical for every ``jobs`` value.  With
        ``keep_going`` the list may hold :class:`UnitFailure` entries.
    """
    jobs = resolve_jobs(jobs)
    if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
        raise ConfigurationError(
            f"timeout must be a finite number of seconds > 0, got {timeout}"
        )
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    units = list(units)
    if checkpoint is None:
        checkpoint = active_executor_checkpoint()
    # The call scope is allocated before the empty-units fast path so
    # call numbering stays aligned between a run and its resume.
    scope = checkpoint.call_scope() if checkpoint is not None else None
    if not units:
        return []
    obs = current()
    serial = jobs == 1 or len(units) == 1
    if serial and obs.enabled and scope is None and not keep_going:
        return _run_serial_instrumented(fn, units, obs)
    workers = 1 if serial else min(jobs, len(units), os.cpu_count() or jobs)
    return _run_outcomes(
        fn, units, serial, workers, obs, timeout, retries, keep_going, scope
    )


def _run_serial_instrumented(
    fn: Callable[[T], R], units: List[T], obs: Any
) -> List[R]:
    """Inline execution against the caller's registry (the live path)."""
    obs.gauge(WORKERS_METRIC).set(1)
    obs.counter(UNITS_METRIC).inc(len(units))
    timer = obs.timer(CELL_SECONDS_METRIC)
    series = obs.series(CELL_WALL_SECONDS_METRIC)
    results: List[R] = []
    with obs.span("run_work_units", jobs=1, units=len(units)):
        for index, unit in enumerate(units):
            start = time.perf_counter()
            results.append(fn(unit))
            wall = time.perf_counter() - start
            timer.observe(wall)
            series.append(index, wall)
    return results


def _run_outcomes(
    fn: Callable[[T], R],
    units: List[T],
    inline: bool,
    workers: int,
    obs: Any,
    timeout: Optional[float],
    retries: int,
    keep_going: bool,
    scope: Optional[UnitCacheScope],
) -> List[Union[R, UnitFailure]]:
    """Cache lookup, execution (inline or pooled) and the ordered merge."""
    flight = obs.flight_recorder
    telemetry = (
        _Telemetry(
            flight=flight is not None,
            health=obs.health,
            profile_config=obs.profile_config,
        )
        if obs.enabled
        else None
    )
    captures = telemetry.captures if telemetry is not None else ()
    cache_dir = str(scope.directory) if scope is not None else None
    obs.gauge(WORKERS_METRIC).set(workers)
    obs.counter(UNITS_METRIC).inc(len(units))
    results: List[Union[R, UnitFailure]] = []
    with obs.span("run_work_units", jobs=workers, units=len(units)):
        outcomes: List[Optional[_Outcome]] = [None] * len(units)
        digests: List[Optional[str]] = [None] * len(units)
        if scope is not None:
            for index, unit in enumerate(units):
                digest = digests[index] = unit_digest(fn, unit)
                hit = scope.load(index, digest, captures)
                if hit is not None:
                    outcomes[index] = ("ok", hit[0])
        cached = [outcome is not None for outcome in outcomes]
        payloads: List[_WorkerPayload] = [
            (fn, unit, index, wall_time(), telemetry, cache_dir, digests[index])
            for index, unit in enumerate(units)
        ]
        if inline:
            _execute_inline(payloads, keep_going, outcomes)
        else:
            _execute_pool(
                payloads, workers, timeout, retries, keep_going, outcomes, obs
            )
        # Submission-order merge: the aggregate is identical for every
        # worker count and completion order.
        for index, (kind, value) in enumerate(cast(List[_Outcome], outcomes)):
            if kind == "fail":
                obs.counter(UNIT_FAILURES_METRIC).inc()
                obs.event(UNIT_FAILED_EVENT, unit=index, error=value.error_type)
                results.append(value)
                continue
            if cached[index]:
                obs.event(UNIT_CACHED_EVENT, unit=index)
            result, recorded = value
            if recorded is not None:
                snapshot, trace, flight_records = recorded
                obs.merge_snapshot(snapshot)
                obs.merge_trace(trace)
                if flight is not None:
                    flight.extend(flight_records)
            results.append(result)
    return results


def _failure(index: int, error: BaseException, retried: int = 0) -> UnitFailure:
    message = str(error) or "worker process died before returning a result"
    return UnitFailure(
        index=index,
        error_type=type(error).__name__,
        message=message,
        retried=retried,
    )


def _annotate(error: BaseException, note: str) -> None:
    if hasattr(error, "add_note"):  # pragma: no branch
        error.add_note(note)


def _execute_inline(
    payloads: List[_WorkerPayload],
    keep_going: bool,
    outcomes: List[Optional[_Outcome]],
) -> None:
    """Run the pending units in this process, in submission order.

    ``outcomes`` arrives pre-filled with cache hits (``None`` means
    pending).  A failing unit is recorded as a :class:`UnitFailure`
    under ``keep_going``; otherwise its error re-raises annotated with
    the unit index.
    """
    for index, outcome in enumerate(outcomes):
        if outcome is not None:
            continue
        # Stamp the submission as the unit starts: inline, no unit waits
        # in a queue, so its queue latency is only the dispatch gap.
        fn, unit, _, _, telemetry, cache_dir, digest = payloads[index]
        payload = (fn, unit, index, wall_time(), telemetry, cache_dir, digest)
        try:
            outcomes[index] = ("ok", _run_unit(payload))
        except Exception as error:
            if not keep_going:
                _annotate(error, f"raised by work unit {index}")
                raise
            outcomes[index] = ("fail", _failure(index, error))


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a pool: cancel queued futures, kill running workers.

    ``shutdown(cancel_futures=True)`` alone still *waits out* units
    already running; a wedged unit would hang the sweep forever.  The
    worker processes are killed explicitly so the timeout path returns
    promptly.  The process table must be snapshotted *before* shutdown:
    ``ProcessPoolExecutor.shutdown`` drops its ``_processes`` reference
    even with ``wait=False``, and an unkilled wedged worker would keep
    the management thread — and interpreter exit — blocked forever.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        process.kill()


def _execute_pool(
    payloads: List[_WorkerPayload],
    workers: int,
    timeout: Optional[float],
    retries: int,
    keep_going: bool,
    outcomes: List[Optional[_Outcome]],
    obs: Any,
) -> None:
    """Drive a process pool to a full outcome list, in submission order.

    ``outcomes`` arrives pre-filled with cache hits (``None`` means
    pending).  Pending units are submitted in index order and collected
    by index.  Failure semantics:

    * ordinary unit exception — ``keep_going`` records a
      :class:`UnitFailure`; otherwise the pool shuts down with
      ``cancel_futures=True`` (queued units never start, running ones
      are not waited on past their completion) and the error re-raises
      annotated with the unit index;
    * timeout — the pool is terminated and
      :class:`~repro.exceptions.WorkUnitTimeoutError` raises (always
      fatal: the wedged unit still occupies its worker);
    * broken pool (a worker was killed) — every in-flight result is
      lost; the pool is rebuilt and the missing units re-run, up to
      ``retries`` times.  Past the budget, ``keep_going`` switches to
      one-unit-per-pool isolation (a crash then blames exactly one
      unit); without it the ``BrokenExecutor`` re-raises.
    """
    # Deferred: a serial run never loads the pool and what it pulls in
    # (multiprocessing, subprocess, socket).
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
    from concurrent.futures import TimeoutError as FuturesTimeoutError

    todo = [index for index, outcome in enumerate(outcomes) if outcome is None]
    rebuilds = 0
    isolate = False
    while todo:
        group = todo[:1] if isolate else todo
        pool = ProcessPoolExecutor(max_workers=min(workers, len(group)))
        futures = [
            (index, pool.submit(_run_unit, payloads[index])) for index in group
        ]
        broken: Optional[BaseException] = None
        broken_index = -1
        for index, future in futures:
            if outcomes[index] is not None:
                continue
            try:
                outcomes[index] = ("ok", future.result(timeout))
            except FuturesTimeoutError as error:
                _terminate_pool(pool)
                timeout_error = WorkUnitTimeoutError(
                    f"work unit {index} exceeded the per-unit timeout of "
                    f"{timeout}s; worker pool terminated"
                )
                raise timeout_error from error
            except BrokenExecutor as error:
                broken = error
                broken_index = index
                break
            except Exception as error:
                if not keep_going:
                    pool.shutdown(wait=True, cancel_futures=True)
                    _annotate(error, f"raised by work unit {index}")
                    raise
                outcomes[index] = ("fail", _failure(index, error, rebuilds))
        if broken is None:
            pool.shutdown(wait=True, cancel_futures=True)
            todo = [index for index in todo if outcomes[index] is None]
            continue
        # A worker died mid-batch (SIGKILL, OOM, hard crash): every
        # in-flight future of this pool raises BrokenProcessPool and
        # its results are lost.  The queued-but-unstarted units were
        # cancelled by the executor itself.
        pool.shutdown(wait=False, cancel_futures=True)
        todo = [index for index in todo if outcomes[index] is None]
        if isolate:
            # One unit per pool: the crash blames exactly this unit.
            outcomes[broken_index] = ("fail", _failure(broken_index, broken, rebuilds))
            todo = [index for index in todo if outcomes[index] is None]
            continue
        rebuilds += 1
        obs.counter(RETRIES_METRIC).inc()
        obs.event(POOL_RETRY_EVENT, rebuild=rebuilds, unit=broken_index)
        if rebuilds <= retries:
            continue
        if keep_going:
            isolate = True
            continue
        _annotate(
            broken,
            f"worker pool crashed while waiting on work unit "
            f"{broken_index} ({rebuilds - 1} of {retries} retries used; "
            "a killed worker loses every in-flight unit)",
        )
        raise broken
