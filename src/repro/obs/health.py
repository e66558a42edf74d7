"""Learning health: changepoint & anomaly detection over recorded series.

The paper's two headline phenomena — TS collapsing toward Random under
FASEA feedback, and the sudden regret-curve drop when OPT exhausts the
event capacities (Section 6) — are visible in the per-policy telemetry
a run records: the reward series shifts level, θ̂-drift stops
contracting, the oracle fill rate leaves its band, and the
``capacity_exhausted`` series starts ticking.  With ``--health``, each
fleet call ends with one pass (:func:`record_fleet_health`) of classic
sequential detectors over the four series that call recorded, and
evaluates the three built-in alerts over them:

``PageHinkley``
    The Page–Hinkley test: accumulate ``m_t = Σ (x_i - x̄_i - δ)`` and
    alarm when ``m_t`` departs from its running extremum by more than
    ``λ`` — the textbook sequential mean-shift detector (up and down).
``WindowedCusum``
    A two-sided CUSUM over a sliding reference window: deviations from
    the trailing-window mean accumulate into positive/negative sums
    (drift-discounted) and alarm at ``λ·σ_window``; the window makes the
    reference adaptive, so slow trends do not alarm but level shifts do.
``EwmaBand``
    An exponentially weighted mean ± k·σ band (EW first and second
    moments); values leaving the band are flagged as anomalies.
``capacity-cliff`` (:class:`CliffTracker`)
    The capacity-exhaustion detector: per policy it tracks the first
    round each event's last seat drains (shared with ``fasea obs
    summary``'s drop-point table via :func:`first_drain_rounds` —
    *one* implementation, one metric name).  It emits an ``onset``
    health event when the first event drains (where the regret curve
    begins to bend) and a ``complete`` event when every event is
    drained (where OPT's reward goes to zero and the paper's regret
    curves drop).

Every detection becomes a schema-versioned ``HealthEvent`` dict and
every alert firing — ``capacity-exhaustion`` on each cliff mark,
``reward-collapse`` and ``theta-divergence`` on the reward and drift
signals — an ``AlertRecord`` dict.  Both go into the trace (``health``
and ``alert`` events), which the parallel executor merges in submission
order like any other trace; ``health.json`` and ``alerts.jsonl`` are
written from the merged trace when the run persists
(:func:`persist_health`).  Events and alerts carry **no wall-clock
fields**, so both logs are byte-identical across runs, worker counts
and resumed checkpoints: a cell's health is a function of what the cell
recorded, not of how it was executed.

Determinism contract: detectors are pure functions of the recorded
series — no RNG is ever touched, and rewards are bit-identical with
``--health`` on or off.  The round loop runs no health code; without
``--health`` a fleet call pays one flag check.
"""

from __future__ import annotations

import math
from collections import deque
from pathlib import Path
from typing import (
    Any, Deque, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union,
)

from repro.exceptions import ConfigurationError, SchemaError

#: Major schema version of ``health.json`` and of ``HealthEvent`` records.
HEALTH_SCHEMA_VERSION = 1

#: Filename of the health sink inside a run directory.
HEALTH_FILENAME = "health.json"

#: Trace event names under which health events and alert firings are
#: recorded.
HEALTH_EVENT_NAME = "health"
ALERT_EVENT_NAME = "alert"

# ----------------------------------------------------------------------
# Canonical metric names (FAS016: emit sites must use these constants).
# The runner, the fleet runner, the obs CLI and the detectors all
# reference the same definitions, so a reader of
# ``policy.*.capacity_exhausted`` can never drift from the emit site.
# ----------------------------------------------------------------------
#: Prefix of every per-policy metric (see ``Policy.obs_name``).
POLICY_METRIC_PREFIX = "policy."
#: Per-round reward series (``policy.<label>.reward``).
REWARD_METRIC = "reward"
#: Per-round estimate drift series (``policy.<label>.theta_drift``).
THETA_DRIFT_METRIC = "theta_drift"
#: Capacity-exhaustion series: one ``(round, event_id)`` point per
#: drained event (``policy.<label>.capacity_exhausted``).
CAPACITY_EXHAUSTED_METRIC = "capacity_exhausted"
#: Oracle fill-rate series suffix (``policy.<label>.oracle.fill_rate_series``).
FILL_RATE_SERIES_METRIC = "oracle.fill_rate_series"

EXHAUSTION_SUFFIX = "." + CAPACITY_EXHAUSTED_METRIC
REWARD_SUFFIX = "." + REWARD_METRIC
THETA_DRIFT_SUFFIX = "." + THETA_DRIFT_METRIC
FILL_RATE_SERIES_SUFFIX = "." + FILL_RATE_SERIES_METRIC
#: The per-policy series the detectors read.
HEALTH_SERIES_SUFFIXES = (
    REWARD_SUFFIX, THETA_DRIFT_SUFFIX, FILL_RATE_SERIES_SUFFIX, EXHAUSTION_SUFFIX,
)

#: Detector identifiers carried by health events and alerts.
PAGE_HINKLEY_DETECTOR = "page_hinkley"
CUSUM_DETECTOR = "cusum"
EWMA_BAND_DETECTOR = "ewma_band"
CAPACITY_CLIFF_DETECTOR = "capacity_cliff"

HealthEvent = Dict[str, Any]
AlertRecord = Dict[str, Any]


# ----------------------------------------------------------------------
# Detector constants, sized for the per-round reward/θ̂-drift scales of
# the FASEA workloads (rewards in ``[0, c_u]``, drift in ``[0, ‖θ‖]``):
# conservative enough that a healthy quickstart records changepoints
# only where the learning dynamics genuinely shift.
# ----------------------------------------------------------------------
PH_DELTA = 0.005
PH_THRESHOLD = 50.0
PH_BURN_IN = 50
CUSUM_WINDOW = 100
CUSUM_THRESHOLD = 10.0
CUSUM_DRIFT = 0.5
EWMA_ALPHA = 0.05
EWMA_K = 5.0
EWMA_BURN_IN = 50

# ----------------------------------------------------------------------
# The built-in alerts (``alerts.jsonl``)
# ----------------------------------------------------------------------
#: Major schema version of ``alerts.jsonl`` firing records.
ALERTS_SCHEMA_VERSION = 1
#: Filename of the alert log inside a run directory.
ALERTS_FILENAME = "alerts.jsonl"
#: Fires on every capacity-cliff event (onset and completion).
CAPACITY_EXHAUSTION_ALERT = "capacity-exhaustion"
#: Fires when the mean of a policy's last ``REWARD_COLLAPSE_WINDOW``
#: rewards in the cell drops below ``REWARD_COLLAPSE_BELOW``.
REWARD_COLLAPSE_ALERT = "reward-collapse"
REWARD_COLLAPSE_WINDOW = 200
REWARD_COLLAPSE_BELOW = 0.05
#: Fires when a policy's last θ̂ drift rises above
#: ``THETA_DIVERGENCE_ABOVE`` (``‖θ‖ <= 1``, so a sane estimate stays
#: far below it).
THETA_DIVERGENCE_ALERT = "theta-divergence"
THETA_DIVERGENCE_ABOVE = 10.0


# ----------------------------------------------------------------------
# Sequential detectors (pure state machines, no RNG, no clocks)
# ----------------------------------------------------------------------
class PageHinkley:
    """Two-sided Page–Hinkley mean-shift test.

    Maintains ``m_t = Σ (x_i - x̄_i - δ)`` together with its running
    minimum and maximum; an upward shift makes ``m_t - min(m)`` grow,
    a downward shift makes ``max(m) - m_t`` grow.  Alarms when either
    excursion exceeds ``threshold`` (after ``burn_in`` samples), then
    resets so subsequent shifts are detected independently.
    """

    __slots__ = ("delta", "threshold", "burn_in", "count", "mean",
                 "cum", "min_cum", "max_cum")

    def __init__(
        self,
        delta: float = PH_DELTA,
        threshold: float = PH_THRESHOLD,
        burn_in: int = PH_BURN_IN,
    ) -> None:
        self.delta = float(delta)
        self.threshold = float(threshold)
        self.burn_in = int(burn_in)
        self.reset()

    def reset(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.cum = 0.0
        self.min_cum = 0.0
        self.max_cum = 0.0

    def update(self, value: float) -> Optional[str]:
        """Feed one observation; returns ``"up"``/``"down"`` on a shift."""
        self.count += 1
        self.mean += (value - self.mean) / self.count
        self.cum += value - self.mean - self.delta
        self.min_cum = min(self.min_cum, self.cum)
        self.max_cum = max(self.max_cum, self.cum)
        if self.count < self.burn_in:
            return None
        if self.cum - self.min_cum > self.threshold:
            self.reset()
            return "up"
        if self.max_cum - self.cum > self.threshold:
            self.reset()
            return "down"
        return None


class WindowedCusum:
    """Two-sided CUSUM against a trailing-window reference.

    The reference mean/σ come from a sliding window of the last
    ``window`` observations; each new value's standardized deviation
    (minus ``drift`` slack) accumulates into one-sided sums which alarm
    above ``threshold``.  The adaptive reference forgives slow trends
    (θ̂ drift contracting) while level shifts alarm within
    ``O(threshold / shift)`` rounds.
    """

    __slots__ = ("window", "threshold", "drift", "values", "pos", "neg")

    def __init__(
        self,
        window: int = CUSUM_WINDOW,
        threshold: float = CUSUM_THRESHOLD,
        drift: float = CUSUM_DRIFT,
    ) -> None:
        self.window = int(window)
        self.threshold = float(threshold)
        self.drift = float(drift)
        self.reset()

    def reset(self) -> None:
        self.values: List[float] = []
        self.pos = 0.0
        self.neg = 0.0

    def update(self, value: float) -> Optional[str]:
        """Feed one observation; returns ``"up"``/``"down"`` on a shift."""
        values = self.values
        if len(values) >= self.window:
            mean = math.fsum(values) / len(values)
            variance = math.fsum((v - mean) ** 2 for v in values) / len(values)
            sigma = math.sqrt(variance)
            if sigma > 1e-12:
                z = (value - mean) / sigma
                self.pos = max(0.0, self.pos + z - self.drift)
                self.neg = max(0.0, self.neg - z - self.drift)
                if self.pos > self.threshold:
                    self.reset()
                    return "up"
                if self.neg > self.threshold:
                    self.reset()
                    return "down"
        values.append(value)
        if len(values) > self.window:
            del values[0]
        return None


class EwmaBand:
    """EWMA mean ± k·σ anomaly band (EW first and second moments)."""

    __slots__ = ("alpha", "k", "burn_in", "count", "mean", "var")

    def __init__(
        self,
        alpha: float = EWMA_ALPHA,
        k: float = EWMA_K,
        burn_in: int = EWMA_BURN_IN,
    ) -> None:
        self.alpha = float(alpha)
        self.k = float(k)
        self.burn_in = int(burn_in)
        self.reset()

    def reset(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.var = 0.0

    def update(self, value: float) -> Optional[str]:
        """Feed one observation; returns ``"high"``/``"low"`` outside band."""
        self.count += 1
        if self.count == 1:
            self.mean = value
            return None
        deviation = value - self.mean
        out: Optional[str] = None
        if self.count > self.burn_in:
            band = self.k * math.sqrt(self.var) + 1e-9
            if deviation > band:
                out = "high"
            elif deviation < -band:
                out = "low"
        # Fold the point in regardless: a genuine level change should
        # re-center the band instead of alarming forever.
        self.mean += self.alpha * deviation
        self.var = (1 - self.alpha) * (self.var + self.alpha * deviation**2)
        return out


class CliffTracker:
    """Capacity-exhaustion cliff localization for one policy.

    Shares the drop-point semantics of :func:`first_drain_rounds`: the
    *first* round an event is reported drained wins.  ``onset`` is the
    round the first event drains (the regret curve starts bending
    there); ``complete`` is the round the last of ``num_events`` drains
    (where the paper's regret curves drop — OPT can no longer collect
    any reward).
    """

    __slots__ = ("first_rounds", "onset_round", "complete_round")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.first_rounds: Dict[int, int] = {}
        self.onset_round: Optional[int] = None
        self.complete_round: Optional[int] = None

    def update(
        self, round_: int, event_id: int, num_events: int
    ) -> List[Tuple[str, int]]:
        """Record one drained event; returns new ``(phase, round)`` marks."""
        marks: List[Tuple[str, int]] = []
        if event_id not in self.first_rounds or round_ < self.first_rounds[event_id]:
            self.first_rounds[event_id] = round_
        if self.onset_round is None:
            self.onset_round = round_
            marks.append(("onset", round_))
        if (
            self.complete_round is None
            and num_events > 0
            and len(self.first_rounds) >= num_events
        ):
            self.complete_round = max(self.first_rounds.values())
            marks.append(("complete", self.complete_round))
        return marks


# ----------------------------------------------------------------------
# Shared drop-point implementation (obs summary + cliff detector)
# ----------------------------------------------------------------------
def first_drain_rounds(
    points: Iterable[Sequence[float]],
) -> Dict[int, int]:
    """``event_id -> first round drained`` from an exhaustion series.

    Each point of a ``policy.<label>.capacity_exhausted`` series is
    ``(round, event_id)``; the first round an event is reported drained
    wins (merged re-runs may repeat events).  This is the *single*
    drop-point implementation behind ``fasea obs summary``'s table; the
    :class:`CliffTracker` keeps the same first-report-wins rule.
    """
    first_round: Dict[int, int] = {}
    for step, value in points:
        event_id = int(value)
        step = int(step)
        if event_id not in first_round or step < first_round[event_id]:
            first_round[event_id] = step
    return first_round


def drop_point_rows(snapshot: Any) -> List[Tuple[str, int, int]]:
    """``(policy, event_id, round)`` rows, one per drained event."""
    rows: List[Tuple[str, int, int]] = []
    for name, points in sorted(snapshot.series.items()):
        if not (
            name.startswith(POLICY_METRIC_PREFIX)
            and name.endswith(EXHAUSTION_SUFFIX)
        ):
            continue
        label = name[len(POLICY_METRIC_PREFIX) : -len(EXHAUSTION_SUFFIX)]
        rows.extend(
            (label, event_id, round_)
            for event_id, round_ in sorted(first_drain_rounds(points).items())
        )
    return rows


# ----------------------------------------------------------------------
# Health events
# ----------------------------------------------------------------------
def health_event(
    detector: str,
    policy: str,
    metric: str,
    round_: int,
    value: float,
    direction: Optional[str] = None,
    **extra: Any,
) -> HealthEvent:
    """Build one schema-versioned health event (plain JSON-able dict).

    Deliberately carries no wall-clock fields: ``health.json`` must be
    byte-identical across repeat runs and worker counts.
    """
    event: HealthEvent = {
        "kind": "health",
        "schema_version": HEALTH_SCHEMA_VERSION,
        "detector": detector,
        "policy": policy,
        "metric": metric,
        "round": int(round_),
        "value": float(value),
    }
    if direction is not None:
        event["direction"] = direction
    event.update(extra)
    return event


class _PolicyDetectors:
    """One policy's detector bank and built-in alert state."""

    __slots__ = ("ph_reward", "ph_drift", "cusum_reward", "cusum_drift",
                 "ewma_fill", "cliff", "rewards", "drift", "collapsed",
                 "diverged")

    def __init__(self) -> None:
        self.ph_reward = PageHinkley()
        self.ph_drift = PageHinkley()
        self.cusum_reward = WindowedCusum()
        self.cusum_drift = WindowedCusum()
        self.ewma_fill = EwmaBand()
        self.cliff = CliffTracker()
        #: The cell's last REWARD_COLLAPSE_WINDOW rewards and last drift.
        self.rewards: Deque[float] = deque(maxlen=REWARD_COLLAPSE_WINDOW)
        self.drift: Optional[float] = None
        #: Alert predicates at the last evaluation (edge triggering).
        self.collapsed = False
        self.diverged = False


def _metric_alert(
    rule: str, metric: str, op: str, threshold: float,
    aggregate: str, round_: int, value: float,
) -> AlertRecord:
    return {
        "kind": "alert",
        "schema_version": ALERTS_SCHEMA_VERSION,
        "rule": rule,
        "severity": "critical",
        "metric": metric,
        "op": op,
        "threshold": threshold,
        "aggregate": aggregate,
        "round": int(round_),
        "value": float(value),
    }


def series_health(
    series: Mapping[str, Sequence[Sequence[float]]],
    labels: Sequence[str],
    num_events: int,
) -> Tuple[List[HealthEvent], List[AlertRecord]]:
    """The health events and built-in alert firings of one cell's series.

    ``series`` maps ``policy.<label>.<metric>`` to the points one fleet
    call recorded for each policy in ``labels`` (fleet order);
    ``num_events`` is the cell's |V|.  Every policy starts with fresh
    detectors and alert windows.  Rounds go in step order.  Within a
    round each policy, in fleet order, feeds its drained events to the
    cliff tracker (each mark is also a ``capacity-exhaustion`` firing),
    then its reward, θ̂ drift and fill rate to the detectors.  The round
    ends with the ``reward-collapse`` and then the ``theta-divergence``
    alerts, each over policies in sorted metric-name order.  Metric
    alerts are edge-triggered: one fires when its predicate turns true,
    not on every round it stays true.
    """
    events: List[HealthEvent] = []
    alerts: List[AlertRecord] = []
    banks = {label: _PolicyDetectors() for label in labels}
    by_reward_name = sorted(
        (POLICY_METRIC_PREFIX + label + REWARD_SUFFIX, banks[label]) for label in labels
    )
    by_drift_name = sorted(
        (POLICY_METRIC_PREFIX + label + THETA_DRIFT_SUFFIX, banks[label]) for label in labels
    )

    def points(label: str, suffix: str) -> Sequence[Sequence[float]]:
        return series.get(POLICY_METRIC_PREFIX + label + suffix, ())

    def by_step(suffix: str) -> Dict[str, Dict[int, float]]:
        return {label: {int(s): v for s, v in points(label, suffix)} for label in labels}

    rewards = by_step(REWARD_SUFFIX)
    drifts = by_step(THETA_DRIFT_SUFFIX)
    fills = by_step(FILL_RATE_SERIES_SUFFIX)
    drained: Dict[str, Dict[int, List[int]]] = {label: {} for label in labels}
    for label in labels:
        for step, event_id in points(label, EXHAUSTION_SUFFIX):
            drained[label].setdefault(int(step), []).append(int(event_id))
    steps = sorted({step for table in (*rewards.values(), *drained.values()) for step in table})

    for round_ in steps:
        for label in labels:
            bank = banks[label]
            for event_id in drained[label].get(round_, ()):
                for phase, mark_round in bank.cliff.update(round_, event_id, num_events):
                    events.append(health_event(
                        CAPACITY_CLIFF_DETECTOR, label, CAPACITY_EXHAUSTED_METRIC,
                        mark_round, float(event_id), phase,
                        drained=len(bank.cliff.first_rounds),
                        num_events=int(num_events),
                    ))
                    alerts.append({
                        "kind": "alert",
                        "schema_version": ALERTS_SCHEMA_VERSION,
                        "rule": CAPACITY_EXHAUSTION_ALERT,
                        "severity": "warning",
                        "detector": CAPACITY_CLIFF_DETECTOR,
                        "policy": label,
                        "metric": CAPACITY_EXHAUSTED_METRIC,
                        "direction": phase,
                        "round": mark_round,
                        "value": float(event_id),
                    })
            if round_ not in rewards[label]:
                continue
            reward = rewards[label][round_]
            bank.rewards.append(reward)
            signals = [
                (bank.ph_reward, PAGE_HINKLEY_DETECTOR, REWARD_METRIC, reward),
                (bank.cusum_reward, CUSUM_DETECTOR, REWARD_METRIC, reward),
            ]
            drift = drifts[label].get(round_)
            if drift is not None:
                bank.drift = drift
                signals.append((bank.ph_drift, PAGE_HINKLEY_DETECTOR, THETA_DRIFT_METRIC, drift))
                signals.append((bank.cusum_drift, CUSUM_DETECTOR, THETA_DRIFT_METRIC, drift))
            fill_rate = fills[label].get(round_)
            if fill_rate is not None:
                signals.append(
                    (bank.ewma_fill, EWMA_BAND_DETECTOR, FILL_RATE_SERIES_METRIC, fill_rate)
                )
            for detector, detector_name, metric, value in signals:
                direction = detector.update(value)
                if direction is not None:
                    events.append(health_event(
                        detector_name, label, metric, round_, value, direction,
                    ))
        for name, bank in by_reward_name:
            collapsed = False
            if len(bank.rewards) == REWARD_COLLAPSE_WINDOW:
                mean = math.fsum(bank.rewards) / REWARD_COLLAPSE_WINDOW
                collapsed = mean < REWARD_COLLAPSE_BELOW
                if collapsed and not bank.collapsed:
                    alerts.append(_metric_alert(
                        REWARD_COLLAPSE_ALERT, name, "lt",
                        REWARD_COLLAPSE_BELOW, "mean", round_, mean,
                    ))
            bank.collapsed = collapsed
        for name, bank in by_drift_name:
            diverged = bank.drift is not None and bank.drift > THETA_DIVERGENCE_ABOVE
            if diverged and not bank.diverged:
                alerts.append(_metric_alert(
                    THETA_DIVERGENCE_ALERT, name, "gt",
                    THETA_DIVERGENCE_ABOVE, "last", round_, bank.drift,
                ))
            bank.diverged = diverged
    return events, alerts


def series_marks(obs: Any, labels: Sequence[str]) -> Dict[str, int]:
    """The current length of each health series of ``labels`` in ``obs``.

    Taken when a fleet call starts, so :func:`record_fleet_health` reads
    only the points that call appends.
    """
    marks: Dict[str, int] = {}
    for label in labels:
        for suffix in HEALTH_SERIES_SUFFIXES:
            name = POLICY_METRIC_PREFIX + label + suffix
            metric = obs.get_metric(name)
            marks[name] = 0 if metric is None else len(metric.points)
    return marks


def record_fleet_health(
    obs: Any, labels: Sequence[str], marks: Mapping[str, int], num_events: int
) -> None:
    """Trace the :func:`series_health` of the points past ``marks``.

    Each health event becomes a ``health`` trace event and each alert
    firing an ``alert`` trace event, in order; ``health.json`` and
    ``alerts.jsonl`` are written from the merged trace
    (:func:`persist_health`).
    """
    series = {}
    for name, start in marks.items():
        metric = obs.get_metric(name)
        if metric is not None:
            series[name] = metric.points[start:]
    events, alerts = series_health(series, labels, num_events)
    for event in events:
        obs.event(HEALTH_EVENT_NAME, **event)
    for alert in alerts:
        obs.event(ALERT_EVENT_NAME, **alert)


def health_events_from_trace(
    records: Sequence[Dict[str, Any]], name: str = HEALTH_EVENT_NAME
) -> List[Dict[str, Any]]:
    """The fields of the trace events called ``name`` (health events by
    default, alert firings with :data:`ALERT_EVENT_NAME`), in order."""
    return [
        record["fields"]
        for record in records
        if record.get("kind") == "event"
        and record.get("name") == name
        and isinstance(record.get("fields"), dict)
    ]


def health_payload(events: Sequence[HealthEvent]) -> Dict[str, Any]:
    """The ``health.json`` document body (schema version 1)."""
    return {
        "version": HEALTH_SCHEMA_VERSION,
        "events": list(events),
        "summary": summarize_events(events),
    }


def summarize_events(
    events: Sequence[HealthEvent],
) -> Dict[str, Dict[str, Any]]:
    """Fold an event list into the per-policy summary table.

    Per policy: detection counts per detector, the changepoint rounds,
    and the capacity-cliff ``onset``/``complete`` rounds (if reached).
    """
    summary: Dict[str, Dict[str, Any]] = {}
    for event in events:
        policy = str(event.get("policy", "?"))
        entry = summary.setdefault(
            policy,
            {"detections": {}, "changepoints": [],
             "cliff_onset": None, "cliff_complete": None},
        )
        detector = str(event.get("detector", "?"))
        detections: Dict[str, int] = entry["detections"]
        detections[detector] = detections.get(detector, 0) + 1
        round_ = int(event.get("round", 0))
        if detector == CAPACITY_CLIFF_DETECTOR:
            if event.get("direction") == "onset":
                entry["cliff_onset"] = round_
            elif event.get("direction") == "complete":
                entry["cliff_complete"] = round_
        else:
            entry["changepoints"].append(round_)
    return summary


# ----------------------------------------------------------------------
# health.json persistence
# ----------------------------------------------------------------------
def persist_health(
    directory: Union[str, Path], records: Sequence[Dict[str, Any]]
) -> Tuple[Path, int, int]:
    """Atomically write ``health.json`` and ``alerts.jsonl`` from a trace.

    ``records`` is a run's merged trace; returns the ``health.json`` path
    and the numbers of health events and alert firings written.
    """
    import json

    from repro.io.runstore import atomic_write_text
    from repro.obs.flight import FlightRecorder

    events = health_events_from_trace(records)
    alerts = health_events_from_trace(records, ALERT_EVENT_NAME)
    with FlightRecorder(directory, filename=ALERTS_FILENAME) as log:
        log.extend(alerts)
    path = Path(directory) / HEALTH_FILENAME
    atomic_write_text(
        path, json.dumps(health_payload(events), indent=2, sort_keys=True) + "\n"
    )
    return path, len(events), len(alerts)


def load_health(target: Union[str, Path]) -> Dict[str, Any]:
    """Load a ``health.json`` document (from a file or a run directory)."""
    import json

    path = Path(target)
    if path.is_dir():
        path = path / HEALTH_FILENAME
    if not path.is_file():
        raise ConfigurationError(f"no health report at {path}")
    payload = json.loads(path.read_text(encoding="utf-8"))
    version = payload.get("version")
    if version != HEALTH_SCHEMA_VERSION:
        raise SchemaError(
            f"health.json schema version {version!r} is not supported "
            f"(this library reads version {HEALTH_SCHEMA_VERSION})"
        )
    return payload


def load_alerts(
    target: Union[str, Path], strict: bool = True
) -> List[AlertRecord]:
    """Load an alert log from a file or a run directory.

    ``strict=False`` recovers the longest valid prefix (the read mode
    for logs whose writer was killed mid-line); a missing log reads as
    an empty list — "no alerts" and "no alerting configured" render the
    same way.
    """
    from repro.obs.trace import read_trace_jsonl

    path = Path(target)
    if path.is_dir():
        path = path / ALERTS_FILENAME
    if not path.exists():
        return []
    return read_trace_jsonl(path, strict=strict)
