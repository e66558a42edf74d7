"""Deterministic, fault-tolerant process-pool execution of work units.

The experiment layer is embarrassingly parallel: common-random-number
coupling (DESIGN.md §5.1) means every ``(world seed, run seed, policy)``
cell draws its streams from its own seed tree, so cells can run in any
order — or concurrently — without perturbing each other.  What *must*
not change with the worker count is the merged output.  This module
guarantees that by construction:

* work units are submitted in caller order and results are collected
  **by submission index**, never by completion order;
* ``jobs=1`` bypasses the pool entirely and runs the units inline, so
  the serial path is byte-identical to pre-parallel behaviour (and
  keeps tracebacks trivial);
* worker functions receive plain picklable payloads and return plain
  picklable results — no shared state, no queues to drain.

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
  completed unit's result on disk (worker-side, atomically), so a
  killed sweep resumes by replaying finished units bit-identically.
"""

from __future__ import annotations

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
)

from repro.exceptions import ConfigurationError, WorkUnitTimeoutError
from repro.io.checkpoint import (
    ExecutorCheckpoint,
    UnitCacheScope,
    active_executor_checkpoint,
    load_unit_result,
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


#: Worker payload / result shapes (kept as plain tuples for pickling).
_WorkerPayload = Tuple[
    Callable[[Any], Any],
    Any,
    int,
    float,
    bool,
    Optional[Any],
    Optional[Any],
    Optional[Any],
    Optional[str],
    Optional[str],
]
_WorkerResult = Tuple[
    Any,
    MetricsSnapshot,
    List[Dict[str, Any]],
    List[Dict[str, Any]],
    List[Dict[str, Any]],
    List[Dict[str, Any]],
]
#: Internal outcome cells: ("ok", value) or ("fail", UnitFailure).
_Outcome = Tuple[str, Any]


def _run_unit_instrumented(payload: _WorkerPayload) -> _WorkerResult:
    """Worker-side wrapper: run one unit under a fresh registry.

    Each worker activates its own :class:`Instrumentation` so anything
    the unit records (oracle counters, policy series, ...) lands in a
    private snapshot that travels back with the result.  The parent
    merges those snapshots **in submission order**, so the aggregate is
    deterministic and independent of worker scheduling.

    When the parent has a decision flight recorder attached, the
    worker records into an in-memory :class:`FlightBuffer` whose
    records return with the result; the parent appends them to the
    real log in submission order — ``decisions.jsonl`` is therefore
    byte-identical for every worker count.  The health monitor and
    alert engine travel the same way: the worker runs a fresh
    :class:`~repro.obs.health.HealthMonitor` / in-memory
    :class:`~repro.obs.alerts.AlertEngine` and ships their events and
    firings back for a submission-order drain — ``alerts.jsonl`` and
    the health log are byte-identical for every worker count.  The
    parent's ``--profile`` sampling config is set on the worker registry
    too, so a unit samples the same rounds under every worker count.

    With a cache directory in the payload the finished result tuple is
    pickled atomically before returning, so a later resume replays this
    unit without re-running it — including its snapshot and flight
    records, keeping the merged telemetry bit-identical.

    Queue latency is measured with the wall clock
    (:func:`repro.obs.clock.wall_time`): ``perf_counter`` origins are
    not comparable across processes.
    """
    (
        fn,
        unit,
        index,
        submitted_at,
        flight_enabled,
        health_config,
        rules,
        profile_config,
        cache_dir,
        digest,
    ) = payload
    worker_obs = Instrumentation()
    worker_obs.profile_config = profile_config
    if flight_enabled:
        worker_obs.flight_recorder = FlightBuffer()
    if health_config is not None:
        from repro.obs.health import HealthMonitor

        worker_obs.health_monitor = HealthMonitor(health_config)
    if rules is not None:
        from repro.obs.alerts import AlertBuffer, AlertEngine

        worker_obs.alert_engine = AlertEngine(rules, AlertBuffer())
    queue_latency = max(0.0, wall_time() - submitted_at)
    with use(worker_obs):
        start = time.perf_counter()
        result = fn(unit)
        wall = time.perf_counter() - start
    worker_obs.timer(CELL_SECONDS_METRIC).observe(wall)
    worker_obs.timer(QUEUE_LATENCY_METRIC).observe(queue_latency)
    worker_obs.series(CELL_WALL_SECONDS_METRIC).append(index, wall)
    flight_records: List[Dict[str, Any]] = (
        worker_obs.flight_recorder.records if flight_enabled else []
    )
    health_events: List[Dict[str, Any]] = (
        worker_obs.health_monitor.events
        if worker_obs.health_monitor is not None
        else []
    )
    alert_records: List[Dict[str, Any]] = (
        worker_obs.alert_engine.sink.records
        if worker_obs.alert_engine is not None
        else []
    )
    outcome: _WorkerResult = (
        result,
        worker_obs.snapshot(),
        worker_obs.trace_records(),
        flight_records,
        health_events,
        alert_records,
    )
    if cache_dir is not None and digest is not None:
        save_unit_result(cache_dir, index, digest, outcome)
    return outcome


def _run_unit_cached(payload: Tuple[Callable[[Any], Any], Any, int, str, str]) -> Any:
    """Worker-side wrapper for the uninstrumented cached path."""
    fn, unit, index, cache_dir, digest = payload
    result = fn(unit)
    save_unit_result(cache_dir, index, digest, result)
    return result


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
        each completed unit's result on disk.  Defaults to the ambient
        scope (:func:`~repro.io.checkpoint.executor_checkpoint_scope`),
        if any.  On resume, cached units are replayed in submission
        order — bit-identically, telemetry included — and only the
        rest execute.

    Returns
    -------
    list
        Results in **unit order**, regardless of completion order —
        the merged output is identical for every ``jobs`` value.  With
        ``keep_going`` the list may hold :class:`UnitFailure` entries.
    """
    jobs = resolve_jobs(jobs)
    if timeout is not None and timeout <= 0:
        raise ConfigurationError(f"timeout must be > 0 seconds, got {timeout}")
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
    digests = (
        [unit_digest(fn, unit) for unit in units] if scope is not None else None
    )
    obs = current()
    if jobs == 1 or len(units) == 1:
        if not obs.enabled:
            return _run_serial_plain_ft(fn, units, keep_going, scope, digests)
        if scope is None and not keep_going:
            return _run_serial_instrumented(fn, units, obs)
        return _run_serial_isolated(fn, units, obs, keep_going, scope, digests)
    workers = min(jobs, len(units), os.cpu_count() or jobs)
    if obs.enabled:
        return _run_pool_instrumented(
            fn, units, workers, obs, timeout, retries, keep_going, scope, digests
        )
    return _run_pool_plain(
        fn, units, workers, timeout, retries, keep_going, scope, digests
    )


# ----------------------------------------------------------------------
# Serial paths
# ----------------------------------------------------------------------
def _run_serial_instrumented(
    fn: Callable[[T], R], units: List[T], obs: Any
) -> List[R]:
    """Inline execution with per-cell timing (registry already current)."""
    obs.gauge(WORKERS_METRIC).set(1)
    obs.counter(UNITS_METRIC).inc(len(units))
    timer = obs.timer(CELL_SECONDS_METRIC)
    series = obs.series(CELL_WALL_SECONDS_METRIC)
    monitor = getattr(obs, "health_monitor", None)
    engine = getattr(obs, "alert_engine", None)
    results: List[R] = []
    with obs.span("run_work_units", jobs=1, units=len(units)):
        for index, unit in enumerate(units):
            # Work-unit boundary: reset detector state and re-baseline
            # the alert windows so a cell sees only its own telemetry —
            # exactly what a parallel worker's fresh registry sees.
            if monitor is not None:
                monitor.begin_cell()
            if engine is not None:
                engine.begin_cell(obs)
            start = time.perf_counter()
            results.append(fn(unit))
            wall = time.perf_counter() - start
            timer.observe(wall)
            series.append(index, wall)
    return results


def _run_serial_plain_ft(
    fn: Callable[[T], R],
    units: List[T],
    keep_going: bool,
    scope: Optional[UnitCacheScope],
    digests: Optional[List[str]],
) -> List[Union[R, UnitFailure]]:
    """Inline uninstrumented execution, with optional caching and keep-going.

    Without ``keep_going`` a failure re-raises annotated with the unit
    index.
    """
    results: List[Union[R, UnitFailure]] = []
    for index, unit in enumerate(units):
        if scope is not None and digests is not None:
            hit = scope.load(index, digests[index])
            if hit is not None:
                results.append(hit[0])
                continue
        try:
            value = fn(unit)
        except Exception as error:
            if not keep_going:
                if hasattr(error, "add_note"):  # pragma: no branch
                    error.add_note(f"raised by work unit {index}")
                raise
            results.append(
                UnitFailure(
                    index=index,
                    error_type=type(error).__name__,
                    message=str(error),
                )
            )
            continue
        if scope is not None and digests is not None:
            save_unit_result(str(scope.directory), index, digests[index], value)
        results.append(value)
    return results


def _run_serial_isolated(
    fn: Callable[[T], R],
    units: List[T],
    obs: Any,
    keep_going: bool,
    scope: Optional[UnitCacheScope],
    digests: Optional[List[str]],
) -> List[Union[R, UnitFailure]]:
    """Serial execution through the worker wrapper (isolated-cell mode).

    Used when checkpointing or keep-going is active: each unit runs
    under a fresh registry exactly as a pool worker would, and the
    parent merges the returned tuples in submission order.  The merge
    is associative, so the aggregate telemetry is identical to the
    plain serial path for the deterministic metrics — and, crucially,
    a cached unit replays the *same* tuple a live one produces, which
    is what makes a resumed run's telemetry bit-comparable.
    """
    obs.gauge(WORKERS_METRIC).set(1)
    obs.counter(UNITS_METRIC).inc(len(units))
    flight = getattr(obs, "flight_recorder", None)
    monitor = getattr(obs, "health_monitor", None)
    engine = getattr(obs, "alert_engine", None)
    health_config = monitor.config if monitor is not None else None
    rules = engine.rules if engine is not None else None
    profile_config = getattr(obs, "profile_config", None)
    cache_dir = str(scope.directory) if scope is not None else None
    results: List[Union[R, UnitFailure]] = []
    with obs.span("run_work_units", jobs=1, units=len(units)):
        for index, unit in enumerate(units):
            digest = digests[index] if digests is not None else None
            cached: Optional[Tuple[Any]] = None
            if scope is not None and digest is not None:
                cached = scope.load(index, digest)
            if cached is not None:
                obs.event(UNIT_CACHED_EVENT, unit=index)
                outcome = cached[0]
            else:
                payload: _WorkerPayload = (
                    fn,
                    unit,
                    index,
                    wall_time(),
                    flight is not None,
                    health_config,
                    rules,
                    profile_config,
                    cache_dir,
                    digest,
                )
                try:
                    outcome = _run_unit_instrumented(payload)
                except Exception as error:
                    if not keep_going:
                        if hasattr(error, "add_note"):  # pragma: no branch
                            error.add_note(f"raised by work unit {index}")
                        raise
                    obs.counter(UNIT_FAILURES_METRIC).inc()
                    obs.event(
                        UNIT_FAILED_EVENT,
                        unit=index,
                        error=type(error).__name__,
                    )
                    results.append(
                        UnitFailure(
                            index=index,
                            error_type=type(error).__name__,
                            message=str(error),
                        )
                    )
                    continue
            results.append(
                _merge_worker_outcome(obs, outcome, flight, monitor, engine)
            )
    return results


# ----------------------------------------------------------------------
# Pool paths
# ----------------------------------------------------------------------
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


def _failure(index: int, error: BaseException, retried: int = 0) -> UnitFailure:
    message = str(error) or "worker process died before returning a result"
    return UnitFailure(
        index=index,
        error_type=type(error).__name__,
        message=message,
        retried=retried,
    )


def _execute_pool(
    worker: Callable[[Any], Any],
    payloads: List[Any],
    workers: int,
    timeout: Optional[float],
    retries: int,
    keep_going: bool,
    outcomes: List[Optional[_Outcome]],
    obs: Any,
) -> List[_Outcome]:
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
        futures = [(index, pool.submit(worker, payloads[index])) for index in group]
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
                    if hasattr(error, "add_note"):  # pragma: no branch
                        error.add_note(f"raised by work unit {index}")
                    raise
                if obs.enabled:
                    obs.counter(UNIT_FAILURES_METRIC).inc()
                    obs.event(
                        UNIT_FAILED_EVENT,
                        unit=index,
                        error=type(error).__name__,
                    )
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
            if obs.enabled:
                obs.counter(UNIT_FAILURES_METRIC).inc()
                obs.event(
                    UNIT_FAILED_EVENT,
                    unit=broken_index,
                    error=type(broken).__name__,
                )
            outcomes[broken_index] = ("fail", _failure(broken_index, broken, rebuilds))
            todo = [index for index in todo if outcomes[index] is None]
            continue
        rebuilds += 1
        if obs.enabled:
            obs.counter(RETRIES_METRIC).inc()
            obs.event(POOL_RETRY_EVENT, rebuild=rebuilds, unit=broken_index)
        if rebuilds <= retries:
            continue
        if keep_going:
            isolate = True
            continue
        if hasattr(broken, "add_note"):  # pragma: no branch
            broken.add_note(
                f"worker pool crashed while waiting on work unit "
                f"{broken_index} ({rebuilds - 1} of {retries} retries used; "
                "a killed worker loses every in-flight unit)"
            )
        raise broken
    return [outcome for outcome in outcomes if outcome is not None]


def _run_pool_plain(
    fn: Callable[[T], R],
    units: List[T],
    workers: int,
    timeout: Optional[float],
    retries: int,
    keep_going: bool,
    scope: Optional[UnitCacheScope],
    digests: Optional[List[str]],
) -> List[Union[R, UnitFailure]]:
    """Pool execution without instrumentation."""
    outcomes: List[Optional[_Outcome]] = [None] * len(units)
    if scope is not None and digests is not None:
        worker: Callable[[Any], Any] = _run_unit_cached
        payloads: List[Any] = [
            (fn, unit, index, str(scope.directory), digests[index])
            for index, unit in enumerate(units)
        ]
        for index in range(len(units)):
            hit = scope.load(index, digests[index])
            if hit is not None:
                outcomes[index] = ("ok", hit[0])
    else:
        worker = fn
        payloads = units
    final = _execute_pool(
        worker, payloads, workers, timeout, retries, keep_going, outcomes, current()
    )
    return [value for _, value in final]


def _merge_worker_outcome(
    obs: Any,
    outcome: _WorkerResult,
    flight: Optional[Any],
    monitor: Optional[Any],
    engine: Optional[Any],
) -> Any:
    """Fold one worker result tuple into the parent registry (in order)."""
    (
        result,
        snapshot,
        trace,
        flight_records,
        health_events,
        alert_records,
    ) = outcome
    obs.merge_snapshot(snapshot)
    obs.merge_trace(trace)
    if flight is not None:
        flight.extend(flight_records)
    if monitor is not None:
        monitor.extend(health_events)
    if engine is not None:
        engine.absorb(alert_records)
    return result


def _run_pool_instrumented(
    fn: Callable[[T], R],
    units: List[T],
    workers: int,
    obs: Any,
    timeout: Optional[float],
    retries: int,
    keep_going: bool,
    scope: Optional[UnitCacheScope],
    digests: Optional[List[str]],
) -> List[Union[R, UnitFailure]]:
    """Pool execution with worker-side registries merged in unit order."""
    obs.gauge(WORKERS_METRIC).set(workers)
    obs.counter(UNITS_METRIC).inc(len(units))
    flight = getattr(obs, "flight_recorder", None)
    monitor = getattr(obs, "health_monitor", None)
    engine = getattr(obs, "alert_engine", None)
    health_config = monitor.config if monitor is not None else None
    rules = engine.rules if engine is not None else None
    profile_config = getattr(obs, "profile_config", None)
    cache_dir = str(scope.directory) if scope is not None else None
    results: List[Union[R, UnitFailure]] = []
    with obs.span("run_work_units", jobs=workers, units=len(units)):
        outcomes: List[Optional[_Outcome]] = [None] * len(units)
        cached = [False] * len(units)
        if scope is not None and digests is not None:
            for index in range(len(units)):
                hit = scope.load(index, digests[index])
                if hit is not None:
                    outcomes[index] = ("ok", hit[0])
                    cached[index] = True
        payloads: List[_WorkerPayload] = [
            (
                fn,
                unit,
                index,
                wall_time(),
                flight is not None,
                health_config,
                rules,
                profile_config,
                cache_dir,
                digests[index] if digests is not None else None,
            )
            for index, unit in enumerate(units)
        ]
        final = _execute_pool(
            _run_unit_instrumented,
            payloads,
            workers,
            timeout,
            retries,
            keep_going,
            outcomes,
            obs,
        )
        # Submission-order merge: the aggregate is identical for every
        # worker count and completion order.
        for index, (kind, value) in enumerate(final):
            if kind == "fail":
                results.append(value)
                continue
            if cached[index]:
                obs.event(UNIT_CACHED_EVENT, unit=index)
            results.append(
                _merge_worker_outcome(obs, value, flight, monitor, engine)
            )
    return results
