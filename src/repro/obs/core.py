"""repro.obs core: typed metric primitives and the instrumentation registry.

Design goals, in priority order:

1. **Zero overhead when disabled.**  Every hot path holds a reference to
   an instrumentation object and guards its metric work behind a single
   attribute read: ``if obs.enabled: ...``.  The default is the shared
   :data:`NULL_OBS` singleton whose ``enabled`` is ``False``, so the
   un-instrumented cost is one attribute load and a branch —
   ``benchmarks/bench_overhead.py`` regresses this against a bare
   re-implementation of the select path and CI fails above 3% slowdown.
2. **Deterministic, mergeable aggregation.**  Counters add, histograms
   are fixed-bucket (bucket-wise addition), series concatenate in
   recording order; :meth:`Instrumentation.merge_snapshot` folds a
   worker process's :class:`MetricsSnapshot` into the parent, and the
   parallel executor merges snapshots in *submission* order — the
   merged metrics are identical for every ``jobs`` value.
3. **Plain data at the boundary.**  Snapshots and trace records are
   dict/list/scalar only, so they pickle across processes and serialise
   to JSON without custom encoders.

Clocks: spans and timers use :func:`time.perf_counter_ns` /
:func:`time.perf_counter` (monotonic); trace events additionally carry
a ``wall`` timestamp so cross-process traces can be ordered roughly.

The registry is **process-local**: :func:`current` returns the active
instrumentation (default :data:`NULL_OBS`) and :func:`use` installs one
for a ``with`` block.  Worker processes start at the null default and
activate their own fresh registry (see ``repro.parallel.executor``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.exceptions import ConfigurationError, SchemaError
from repro.obs.clock import wall_time

Number = Union[int, float]

#: Major schema version of the ``metrics.json`` snapshot document.
SNAPSHOT_SCHEMA_VERSION = 1

#: Default histogram buckets for unit-less values (counts, ratios).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0,
    50.0, 100.0,
)
#: Default buckets for durations in seconds (micro-second to minute).
TIME_BUCKETS: Tuple[float, ...] = (
    1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1,
    0.5, 1.0, 5.0, 15.0, 60.0,
)


# ----------------------------------------------------------------------
# Metric primitives
# ----------------------------------------------------------------------
class Counter:
    """A monotonically increasing count (merge = addition)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (must be >= 0) to the running total."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self.value += amount


class Gauge:
    """A point-in-time value (merge = last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: Number) -> None:
        """Overwrite the gauge with ``value``."""
        self.value = float(value)

    def inc(self, amount: Number = 1) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        self.value += amount


class Histogram:
    """A fixed-bucket histogram (merge = bucket-wise addition).

    ``buckets`` holds the inclusive upper bounds of each bucket; an
    implicit ``+Inf`` bucket catches the overflow.  Alongside the bucket
    counts the histogram tracks ``sum``/``count``/``min``/``max`` so
    means and extremes survive merging.
    """

    __slots__ = ("name", "buckets", "counts", "sum", "count", "min", "max")

    def __init__(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ConfigurationError(f"histogram {name!r} needs at least one bucket")
        if list(bounds) != sorted(bounds):
            raise ConfigurationError(
                f"histogram {name!r} buckets must be sorted, got {bounds}"
            )
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # trailing +Inf bucket
        self.sum: float = 0.0
        self.count: int = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: Number) -> None:
        """Record one observation."""
        value = float(value)
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.sum += value
        self.count += 1
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        """Average observed value (0.0 before any observation)."""
        return self.sum / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram (bucket layouts must match)."""
        if other.buckets != self.buckets:
            raise ConfigurationError(
                f"cannot merge histogram {other.name!r}: bucket layout differs"
            )
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.sum += other.sum
        self.count += other.count
        for bound_name in ("min", "max"):
            theirs = getattr(other, bound_name)
            if theirs is None:
                continue
            mine = getattr(self, bound_name)
            if mine is None:
                setattr(self, bound_name, theirs)
            else:
                pick = min if bound_name == "min" else max
                setattr(self, bound_name, pick(mine, theirs))


class _TimerContext:
    """Tiny non-generator context manager: one perf_counter pair."""

    __slots__ = ("_timer", "_start")

    def __init__(self, timer: "Timer") -> None:
        self._timer = timer
        self._start = 0.0

    def __enter__(self) -> "_TimerContext":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._timer.observe(time.perf_counter() - self._start)


class Timer:
    """Durations in seconds over a mergeable :class:`Histogram`.

    ``with timer.time(): ...`` records one duration; ``observe`` takes a
    pre-measured duration.  ``total``/``count``/``mean`` mirror the
    underlying histogram, so ad-hoc ``perf_counter`` accumulators (as
    ``repro.metrics.resources`` used to keep) migrate loss-free.
    """

    __slots__ = ("name", "histogram")

    def __init__(self, name: str, buckets: Sequence[float] = TIME_BUCKETS) -> None:
        self.name = name
        self.histogram = Histogram(name, buckets=buckets)

    def time(self) -> _TimerContext:
        """Context manager measuring one ``perf_counter`` interval."""
        return _TimerContext(self)

    def observe(self, seconds: Number) -> None:
        """Record a duration measured elsewhere."""
        self.histogram.observe(seconds)

    @property
    def total(self) -> float:
        """Sum of recorded durations in seconds."""
        return self.histogram.sum

    @property
    def count(self) -> int:
        """Number of recorded durations."""
        return self.histogram.count

    @property
    def mean(self) -> float:
        """Average duration (0.0 before any observation)."""
        return self.histogram.mean


class Series:
    """An append-only ``(step, value)`` sequence (merge = concatenation).

    Used for run-scoped diagnostics sampled per round — θ̂ drift, TS
    sample norms, UCB confidence widths, oracle fill rates — where the
    *trajectory* matters, not just the aggregate.
    """

    __slots__ = ("name", "points")

    def __init__(self, name: str) -> None:
        self.name = name
        self.points: List[Tuple[int, float]] = []

    def append(self, step: int, value: Number) -> None:
        """Record ``value`` at ``step`` (steps need not be unique)."""
        self.points.append((int(step), float(value)))

    def __len__(self) -> int:
        return len(self.points)

    @property
    def last(self) -> Optional[Tuple[int, float]]:
        """The most recent point, if any."""
        return self.points[-1] if self.points else None


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
@dataclass
class MetricsSnapshot:
    """A plain-data, picklable image of one registry's metrics.

    Everything inside is JSON-serialisable: counters/gauges are name ->
    number, histograms are name -> bucket dict, series are name -> list
    of ``[step, value]`` pairs.  ``merge`` folds another snapshot in
    with the same semantics the live registry uses (counters add,
    gauges last-write, histograms bucket-add, series concatenate).
    """

    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    series: Dict[str, List[List[float]]] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)

    def merge(self, other: "MetricsSnapshot") -> None:
        """Fold ``other`` into this snapshot (deterministic given order)."""
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in other.gauges.items():
            self.gauges[name] = value
        for name, payload in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = _copy_histogram_payload(payload)
            else:
                _merge_histogram_payload(mine, payload)
        for name, points in other.series.items():
            self.series.setdefault(name, []).extend(
                [list(point) for point in points]
            )
        self.meta.update(other.meta)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict (schema version 1)."""
        return {
            "version": SNAPSHOT_SCHEMA_VERSION,
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": dict(sorted(self.histograms.items())),
            "series": dict(sorted(self.series.items())),
            "meta": dict(sorted(self.meta.items())),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MetricsSnapshot":
        """Inverse of :meth:`to_dict` (tolerates missing sections).

        Rejects documents whose major schema version this library does
        not understand with a clear :class:`repro.exceptions.SchemaError`
        rather than failing on a missing key deep inside the loader.  A
        missing ``version`` is tolerated (hand-built test payloads).
        """
        version = payload.get("version", SNAPSHOT_SCHEMA_VERSION)
        try:
            major = int(version)
        except (TypeError, ValueError) as error:
            raise SchemaError(
                f"metrics snapshot version {version!r} is not an integer"
            ) from error
        if major != SNAPSHOT_SCHEMA_VERSION:
            raise SchemaError(
                f"metrics snapshot schema version {major} is not supported "
                f"(this library reads version {SNAPSHOT_SCHEMA_VERSION}); "
                "re-record the run or upgrade the library"
            )
        return cls(
            counters=dict(payload.get("counters", {})),
            gauges=dict(payload.get("gauges", {})),
            histograms={
                name: _copy_histogram_payload(hist)
                for name, hist in payload.get("histograms", {}).items()
            },
            series={
                name: [list(point) for point in points]
                for name, points in payload.get("series", {}).items()
            },
            meta=dict(payload.get("meta", {})),
        )


def _copy_histogram_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    copied = dict(payload)
    copied["buckets"] = list(payload.get("buckets", []))
    copied["counts"] = list(payload.get("counts", []))
    return copied


def _merge_histogram_payload(mine: Dict[str, Any], other: Dict[str, Any]) -> None:
    if list(mine.get("buckets", [])) != list(other.get("buckets", [])):
        raise ConfigurationError(
            "cannot merge histogram snapshots with different bucket layouts"
        )
    mine["counts"] = [a + b for a, b in zip(mine["counts"], other["counts"])]
    mine["sum"] = mine.get("sum", 0.0) + other.get("sum", 0.0)
    mine["count"] = mine.get("count", 0) + other.get("count", 0)
    for key, pick in (("min", min), ("max", max)):
        theirs = other.get(key)
        if theirs is None:
            continue
        current_value = mine.get(key)
        mine[key] = theirs if current_value is None else pick(current_value, theirs)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class _SpanContext:
    """Context manager for one hierarchical span."""

    __slots__ = ("_obs", "_name", "_attrs", "_span_id", "_parent_id", "_start_ns")

    def __init__(
        self, obs: "Instrumentation", name: str, attrs: Dict[str, Any]
    ) -> None:
        self._obs = obs
        self._name = name
        self._attrs = attrs
        self._span_id = 0
        self._parent_id: Optional[int] = None
        self._start_ns = 0

    def __enter__(self) -> "_SpanContext":
        obs = self._obs
        obs._span_serial += 1
        self._span_id = obs._span_serial
        self._parent_id = obs._span_stack[-1] if obs._span_stack else None
        obs._span_stack.append(self._span_id)
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        duration_ns = time.perf_counter_ns() - self._start_ns
        obs = self._obs
        obs._span_stack.pop()
        record: Dict[str, Any] = {
            "kind": "span",
            "name": self._name,
            "span_id": self._span_id,
            "parent_id": self._parent_id,
            "start_ns": self._start_ns,
            "duration_ns": duration_ns,
            "wall": wall_time(),
        }
        if self._attrs:
            record["attrs"] = self._attrs
        if exc_type is not None:
            record["error"] = getattr(exc_type, "__name__", str(exc_type))
        obs._trace.append(record)


# ----------------------------------------------------------------------
# Registries
# ----------------------------------------------------------------------
class Instrumentation:
    """A process-local registry of named metrics plus a trace buffer.

    Metric accessors are get-or-create: ``obs.counter("x").inc()`` is
    the canonical call shape.  Requesting an existing name with a
    different metric type raises, so a name means one thing for the
    whole process.
    """

    enabled = True

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}
        self._trace: List[Dict[str, Any]] = []
        self._span_stack: List[int] = []
        self._span_serial = 0
        # The run's observers: the profiler config (repro.obs.profile),
        # streaming sink (repro.obs.stream), decision flight recorder
        # (repro.obs.flight) and whether each fleet call ends with the
        # learning-health pass (repro.obs.health, which also evaluates
        # the built-in alerts).  The registry is their only carrier, so
        # the CLI's flags reach every round loop an experiment runs
        # without threading parameters through the experiments package
        # (``repro.simulation.fleet.play_fleet`` reads them here).
        # Typed loosely to avoid circular imports.
        self.profile_config: Optional[Any] = None
        self.stream_sink: Optional[Any] = None
        self.flight_recorder: Optional[Any] = None
        self.health = False

    # -- metric accessors ---------------------------------------------
    def _get(self, name: str, cls: type, *args: object) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, *args)
            self._metrics[name] = metric
        elif type(metric) is not cls:
            raise ConfigurationError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get(name, Gauge)

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        """Get or create the histogram ``name`` (buckets fixed at creation)."""
        return self._get(name, Histogram, buckets)

    def timer(self, name: str, buckets: Sequence[float] = TIME_BUCKETS) -> Timer:
        """Get or create the timer ``name``."""
        return self._get(name, Timer, buckets)

    def series(self, name: str) -> Series:
        """Get or create the series ``name``."""
        return self._get(name, Series)

    # -- registry introspection ---------------------------------------
    def get_metric(self, name: str) -> Optional[Any]:
        """The live metric object registered under ``name``, or None."""
        return self._metrics.get(name)

    # -- tracing -------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Open a hierarchical span; nesting follows ``with`` structure."""
        return _SpanContext(self, name, attrs)

    def event(self, name: str, **fields: Any) -> None:
        """Record one point-in-time trace event."""
        record: Dict[str, Any] = {
            "kind": "event",
            "name": name,
            "ts_ns": time.perf_counter_ns(),
            "wall": wall_time(),
        }
        if self._span_stack:
            record["span_id"] = self._span_stack[-1]
        if fields:
            record["fields"] = fields
        self._trace.append(record)

    def trace_records(self) -> List[Dict[str, Any]]:
        """The accumulated trace (events + completed spans), in order."""
        return list(self._trace)

    def trace_length(self) -> int:
        """Number of completed trace records (streaming cursor support)."""
        return len(self._trace)

    def trace_records_since(self, start: int) -> List[Dict[str, Any]]:
        """Records appended at index >= ``start`` (streaming sink slice).

        Completed records are immutable once appended, so a sink can
        remember ``trace_length()`` after each flush and fetch only the
        delta — O(new records), not O(whole trace), per flush.
        """
        return list(self._trace[start:])

    # -- snapshots -----------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        """A plain-data image of every registered metric."""
        snap = MetricsSnapshot()
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                snap.counters[name] = metric.value
            elif isinstance(metric, Gauge):
                snap.gauges[name] = metric.value
            elif isinstance(metric, Timer):
                snap.histograms[name] = _histogram_payload(metric.histogram)
                snap.histograms[name]["unit"] = "seconds"
            elif isinstance(metric, Histogram):
                snap.histograms[name] = _histogram_payload(metric)
            elif isinstance(metric, Series):
                snap.series[name] = [[step, value] for step, value in metric.points]
        return snap

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        """Fold a (worker) snapshot into the live registry.

        Counters add, gauges last-write, histograms/timers bucket-add,
        series concatenate.  Call in a fixed (submission) order to keep
        the merged registry deterministic across worker counts.
        """
        for name, value in sorted(snapshot.counters.items()):
            self.counter(name).inc(value)
        for name, value in sorted(snapshot.gauges.items()):
            self.gauge(name).set(value)
        for name, payload in sorted(snapshot.histograms.items()):
            buckets = tuple(float(b) for b in payload.get("buckets", DEFAULT_BUCKETS))
            if payload.get("unit") == "seconds":
                histogram = self.timer(name, buckets=buckets).histogram
            else:
                histogram = self.histogram(name, buckets=buckets)
            _merge_into_histogram(histogram, payload)
        for name, points in sorted(snapshot.series.items()):
            series = self.series(name)
            for step, value in points:
                series.append(int(step), value)

    def merge_trace(self, records: Sequence[Dict[str, Any]]) -> None:
        """Append externally produced trace records (e.g. from workers).

        Incoming ``span_id``/``parent_id`` values are remapped past this
        registry's own serial so merged traces keep globally unique span
        identities — the profiler (:mod:`repro.obs.profile`) rebuilds
        stacks from those ids, and worker registries all start counting
        at 1.  The remap is a fixed offset, so calling ``merge_trace``
        in submission order keeps merged traces deterministic.

        The incoming roots (spans without a parent, events outside any
        span) are attached to the innermost span open here, if any, so
        a worker's stacks read exactly as they would had the unit run
        inline under that span.
        """
        records = [dict(record) for record in records]
        max_incoming = 0
        for record in records:
            span_id = record.get("span_id")
            if isinstance(span_id, int) and span_id > max_incoming:
                max_incoming = span_id
        offset = self._span_serial
        parent = self._span_stack[-1] if self._span_stack else None
        for record in records:
            for key in ("span_id", "parent_id"):
                value = record.get(key)
                if isinstance(value, int):
                    record[key] = value + offset
            if parent is not None:
                key = "parent_id" if record.get("kind") == "span" else "span_id"
                if record.get(key) is None:
                    record[key] = parent
            self._trace.append(record)
        self._span_serial += max_incoming


def _histogram_payload(histogram: Histogram) -> Dict[str, Any]:
    return {
        "buckets": list(histogram.buckets),
        "counts": list(histogram.counts),
        "sum": histogram.sum,
        "count": histogram.count,
        "min": histogram.min,
        "max": histogram.max,
    }


def _merge_into_histogram(histogram: Histogram, payload: Dict[str, Any]) -> None:
    other = Histogram(histogram.name, buckets=payload["buckets"])
    other.counts = list(payload["counts"])
    other.sum = float(payload.get("sum", 0.0))
    other.count = int(payload.get("count", 0))
    other.min = payload.get("min")
    other.max = payload.get("max")
    histogram.merge(other)


class _NullMetric:
    """Shared do-nothing stand-in for every metric type."""

    __slots__ = ()
    name = ""
    value = 0.0
    points: List[Tuple[int, float]] = []
    total = 0.0
    count = 0
    mean = 0.0
    sum = 0.0
    min = None
    max = None
    last = None

    def inc(self, amount: Number = 1) -> None:
        return None

    def set(self, value: Number) -> None:
        return None

    def observe(self, value: Number) -> None:
        return None

    def append(self, step: int, value: Number) -> None:
        return None

    def time(self) -> "_NullContext":
        return _NULL_CONTEXT

    def __len__(self) -> int:
        return 0


class _NullContext:
    """No-op context manager shared by null spans and timers."""

    __slots__ = ()

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_METRIC = _NullMetric()
_NULL_CONTEXT = _NullContext()


class NullInstrumentation:
    """The disabled default: every accessor returns a shared no-op.

    Hot paths check ``obs.enabled`` (a class attribute — one dict lookup)
    and skip all metric computation; code that calls accessors without
    the guard still works, it just records nothing.
    """

    enabled = False

    def __init__(self) -> None:
        # The observers of :class:`Instrumentation`.  The round loop
        # records into a flight recorder even with telemetry off (as
        # ``fasea obs replay`` does on its own instance); the shared
        # :data:`NULL_OBS` is never given one.
        self.profile_config: Optional[Any] = None
        self.stream_sink: Optional[Any] = None
        self.flight_recorder: Optional[Any] = None
        self.health = False

    def counter(self, name: str) -> Counter:
        return _NULL_METRIC  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return _NULL_METRIC  # type: ignore[return-value]

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return _NULL_METRIC  # type: ignore[return-value]

    def timer(self, name: str, buckets: Sequence[float] = TIME_BUCKETS) -> Timer:
        return _NULL_METRIC  # type: ignore[return-value]

    def series(self, name: str) -> Series:
        return _NULL_METRIC  # type: ignore[return-value]

    def get_metric(self, name: str) -> Optional[Any]:
        return None

    def span(self, name: str, **attrs: Any) -> _NullContext:
        return _NULL_CONTEXT

    def event(self, name: str, **fields: Any) -> None:
        return None

    def trace_records(self) -> List[Dict[str, Any]]:
        return []

    def trace_length(self) -> int:
        return 0

    def trace_records_since(self, start: int) -> List[Dict[str, Any]]:
        return []

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot()

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        return None

    def merge_trace(self, records: Sequence[Dict[str, Any]]) -> None:
        return None


#: The process-wide disabled singleton; hot paths default to this.
NULL_OBS = NullInstrumentation()

InstrumentationLike = Union[Instrumentation, NullInstrumentation]

_current: InstrumentationLike = NULL_OBS


def current() -> InstrumentationLike:
    """The active process-local instrumentation (default: disabled)."""
    return _current


def set_current(obs: Optional[InstrumentationLike]) -> InstrumentationLike:
    """Install ``obs`` as the process-local registry; returns the previous.

    ``None`` restores the disabled default.  Prefer :func:`use` unless a
    scope-less install is genuinely needed (e.g. worker bootstrap).
    """
    global _current
    previous = _current
    _current = obs if obs is not None else NULL_OBS
    return previous


@contextmanager
def use(obs: InstrumentationLike) -> Iterator[InstrumentationLike]:
    """Activate ``obs`` for the duration of a ``with`` block."""
    previous = set_current(obs)
    try:
        yield obs
    finally:
        set_current(previous)
