"""Learning-health monitor: online changepoint & anomaly detection.

The paper's two headline phenomena — TS collapsing toward Random under
FASEA feedback, and the sudden regret-curve drop when OPT exhausts the
event capacities (Section 6) — are visible in the per-policy telemetry
*while a run is in flight*: the reward series shifts level, θ̂-drift
stops contracting, the oracle fill rate leaves its band, and the
``capacity_exhausted`` series starts ticking.  This module watches all
four signals online with classic sequential detectors and evaluates
the three built-in alerts over them:

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

Every detection becomes a schema-versioned ``HealthEvent`` dict —
recorded into the trace (``obs.event``) *and* kept on the monitor for
the ``health.json`` sink.  The alerts — ``capacity-exhaustion`` on each
cliff mark, ``reward-collapse`` and ``theta-divergence`` on the reward
and drift signals — append to ``alerts.jsonl``.  Events and alerts
carry **no wall-clock fields**, so both logs are byte-identical across
runs and worker counts (the parallel executor merges worker events and
alerts in submission order).

Determinism contract: detectors are pure functions of the observed
series — no RNG is ever touched, rewards are bit-identical with the
monitor attached or not, and the disabled-mode cost is one ``getattr``
per instrumented round (gated ≤3% by
``benchmarks/bench_overhead.py``).
"""

from __future__ import annotations

import math
from collections import deque
from pathlib import Path
from typing import (
    Any, Deque, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

from repro.exceptions import ConfigurationError, SchemaError

#: Major schema version of ``health.json`` and of ``HealthEvent`` records.
HEALTH_SCHEMA_VERSION = 1

#: Filename of the health sink inside a run directory.
HEALTH_FILENAME = "health.json"

#: Trace event name under which health events are recorded.
HEALTH_EVENT_NAME = "health"

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
# Online detectors (pure state machines, no RNG, no clocks)
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
    drop-point implementation: ``fasea obs summary``'s table, the
    offline report and the online :class:`CliffTracker` all agree by
    construction.
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


class HealthMonitor:
    """Per-policy online detectors, the built-in alerts and their logs.

    Attached as the ambient ``obs.health_monitor``; the round loop
    feeds it from :func:`repro.simulation.fleet._record_policy_round`
    on every policy step and calls :meth:`end_round` once every policy
    has stepped.  Detections become the events behind ``health.json``;
    alert firings go to ``alerts`` (a
    :class:`~repro.obs.flight.FlightRecorder` on ``alerts.jsonl``, or an
    in-memory :class:`~repro.obs.flight.FlightBuffer` by default).

    The alerts carry no wall-clock fields and are edge-triggered: a
    metric alert fires when its predicate turns true, not on every round
    it stays true.  Within a round, capacity-exhaustion firings come
    first (as the cliff events happen), then ``reward-collapse`` and
    ``theta-divergence``, each over policies in sorted metric-name order.

    Detector and alert state is per policy and per cell: the parallel
    executor resets it (:meth:`begin_cell`) before each serial work unit
    and gives each worker a fresh monitor, so events and firings are
    identical for every ``jobs`` value (workers' events and alerts are
    merged in submission order via :meth:`extend`).
    """

    def __init__(self, alerts: Optional[Any] = None) -> None:
        if alerts is None:
            from repro.obs.flight import FlightBuffer

            alerts = FlightBuffer()
        self.alerts = alerts
        self.events: List[HealthEvent] = []
        self._policies: Dict[str, _PolicyDetectors] = {}
        #: The banks in sorted reward / drift metric-name order.
        self._by_reward_name: List[Tuple[str, _PolicyDetectors]] = []
        self._by_drift_name: List[Tuple[str, _PolicyDetectors]] = []

    # -- lifecycle -----------------------------------------------------
    def begin_cell(self) -> None:
        """Reset detector and alert state at a work-unit boundary.

        Keeps the accumulated events and alerts: the logs span the whole
        run, the detectors and alert windows span one cell — exactly
        matching a parallel worker's fresh monitor.
        """
        self._policies.clear()
        self._by_reward_name.clear()
        self._by_drift_name.clear()

    def extend(
        self, events: Iterable[HealthEvent], alerts: Iterable[AlertRecord]
    ) -> None:
        """Append a worker's events and alerts (call in submission order)."""
        self.events.extend(events)
        self.alerts.extend(alerts)

    # -- feeding -------------------------------------------------------
    def _bank(self, policy: str) -> _PolicyDetectors:
        bank = self._policies.get(policy)
        if bank is None:
            bank = _PolicyDetectors()
            self._policies[policy] = bank
            prefix = POLICY_METRIC_PREFIX + policy
            self._by_reward_name.append((prefix + REWARD_SUFFIX, bank))
            self._by_reward_name.sort(key=lambda entry: entry[0])
            self._by_drift_name.append((prefix + THETA_DRIFT_SUFFIX, bank))
            self._by_drift_name.sort(key=lambda entry: entry[0])
        return bank

    def _emit(self, obs: Any, event: HealthEvent) -> None:
        self.events.append(event)
        obs.event(HEALTH_EVENT_NAME, **event)

    def observe_round(
        self,
        obs: Any,
        policy: str,
        round_: int,
        reward: float,
        drift: Optional[float] = None,
        fill_rate: Optional[float] = None,
    ) -> None:
        """Feed one instrumented round's signals through the detectors."""
        bank = self._bank(policy)
        bank.rewards.append(reward)
        direction = bank.ph_reward.update(reward)
        if direction is not None:
            self._emit(obs, health_event(
                PAGE_HINKLEY_DETECTOR, policy, REWARD_METRIC,
                round_, reward, direction,
            ))
        direction = bank.cusum_reward.update(reward)
        if direction is not None:
            self._emit(obs, health_event(
                CUSUM_DETECTOR, policy, REWARD_METRIC,
                round_, reward, direction,
            ))
        if drift is not None:
            bank.drift = drift
            direction = bank.ph_drift.update(drift)
            if direction is not None:
                self._emit(obs, health_event(
                    PAGE_HINKLEY_DETECTOR, policy, THETA_DRIFT_METRIC,
                    round_, drift, direction,
                ))
            direction = bank.cusum_drift.update(drift)
            if direction is not None:
                self._emit(obs, health_event(
                    CUSUM_DETECTOR, policy, THETA_DRIFT_METRIC,
                    round_, drift, direction,
                ))
        if fill_rate is not None:
            direction = bank.ewma_fill.update(fill_rate)
            if direction is not None:
                self._emit(obs, health_event(
                    EWMA_BAND_DETECTOR, policy, FILL_RATE_SERIES_METRIC,
                    round_, fill_rate, direction,
                ))

    def observe_exhaustion(
        self,
        obs: Any,
        policy: str,
        round_: int,
        event_id: int,
        num_events: int,
    ) -> None:
        """Feed one drained event into the capacity-cliff tracker.

        Each cliff mark is a health event and a capacity-exhaustion
        alert.
        """
        bank = self._bank(policy)
        for phase, mark_round in bank.cliff.update(round_, event_id, num_events):
            self._emit(obs, health_event(
                CAPACITY_CLIFF_DETECTOR, policy, CAPACITY_EXHAUSTED_METRIC,
                mark_round, float(event_id), phase,
                drained=len(bank.cliff.first_rounds),
                num_events=int(num_events),
            ))
            self.alerts.record({
                "kind": "alert",
                "schema_version": ALERTS_SCHEMA_VERSION,
                "rule": CAPACITY_EXHAUSTION_ALERT,
                "severity": "warning",
                "detector": CAPACITY_CLIFF_DETECTOR,
                "policy": policy,
                "metric": CAPACITY_EXHAUSTED_METRIC,
                "direction": phase,
                "round": mark_round,
                "value": float(event_id),
            })

    def end_round(self, round_: int) -> None:
        """Evaluate the metric alerts once every policy stepped ``round_``."""
        for name, bank in self._by_reward_name:
            collapsed = False
            if len(bank.rewards) == REWARD_COLLAPSE_WINDOW:
                mean = math.fsum(bank.rewards) / REWARD_COLLAPSE_WINDOW
                collapsed = mean < REWARD_COLLAPSE_BELOW
                if collapsed and not bank.collapsed:
                    self._metric_alert(
                        REWARD_COLLAPSE_ALERT, name, "lt",
                        REWARD_COLLAPSE_BELOW, "mean", round_, mean,
                    )
            bank.collapsed = collapsed
        for name, bank in self._by_drift_name:
            diverged = False
            if bank.drift is not None:
                diverged = bank.drift > THETA_DIVERGENCE_ABOVE
                if diverged and not bank.diverged:
                    self._metric_alert(
                        THETA_DIVERGENCE_ALERT, name, "gt",
                        THETA_DIVERGENCE_ABOVE, "last", round_, bank.drift,
                    )
            bank.diverged = diverged

    def _metric_alert(
        self, rule: str, metric: str, op: str, threshold: float,
        aggregate: str, round_: int, value: float,
    ) -> None:
        self.alerts.record({
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
        })

    # -- reporting -----------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, Any]]:
        """Per-policy digest of the recorded events (plain data)."""
        return summarize_events(self.events)

    def to_payload(self) -> Dict[str, Any]:
        """The ``health.json`` document body (schema version 1)."""
        return {
            "version": HEALTH_SCHEMA_VERSION,
            "events": list(self.events),
            "summary": self.summary(),
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
# Offline: rebuild the report from a recorded metrics snapshot
# ----------------------------------------------------------------------
def events_from_snapshot(snapshot: Any) -> List[HealthEvent]:
    """Run the online detectors over a recorded ``metrics.json``.

    Replays each per-policy reward/θ̂-drift/fill-rate/exhaustion series
    through the same detector bank the live monitor uses, in sorted
    metric-name order — so ``fasea obs health`` works on any run
    directory, with or without a ``health.json`` (and the two agree on
    runs whose series were recorded from round 1; ``tests/
    test_obs_health.py`` asserts that equivalence).
    """
    from repro.obs.core import NULL_OBS

    monitor = HealthMonitor()
    per_policy: Dict[str, Dict[str, List[List[float]]]] = {}
    for name, points in sorted(snapshot.series.items()):
        if not name.startswith(POLICY_METRIC_PREFIX):
            continue
        for suffix in (
            REWARD_SUFFIX,
            THETA_DRIFT_SUFFIX,
            FILL_RATE_SERIES_SUFFIX,
            EXHAUSTION_SUFFIX,
        ):
            if name.endswith(suffix):
                label = name[len(POLICY_METRIC_PREFIX) : -len(suffix)]
                per_policy.setdefault(label, {})[suffix] = [
                    list(point) for point in points
                ]
                break
    num_events = _num_events_hint(snapshot)
    for label in sorted(per_policy):
        streams = per_policy[label]
        rewards = {int(s): v for s, v in streams.get(REWARD_SUFFIX, [])}
        drifts = {int(s): v for s, v in streams.get(THETA_DRIFT_SUFFIX, [])}
        fills = {int(s): v for s, v in streams.get(FILL_RATE_SERIES_SUFFIX, [])}
        drained = streams.get(EXHAUSTION_SUFFIX, [])
        drain_by_round: Dict[int, List[int]] = {}
        for step, value in drained:
            drain_by_round.setdefault(int(step), []).append(int(value))
        steps = sorted(
            set(rewards) | set(drifts) | set(fills) | set(drain_by_round)
        )
        for step in steps:
            if step in rewards:
                monitor.observe_round(
                    NULL_OBS, label, step,
                    reward=rewards[step],
                    drift=drifts.get(step),
                    fill_rate=fills.get(step),
                )
            for event_id in drain_by_round.get(step, []):
                monitor.observe_exhaustion(
                    NULL_OBS, label, step, event_id, num_events
                )
    return monitor.events


def _num_events_hint(snapshot: Any) -> int:
    """Best-effort total event count for offline cliff completion.

    Recorded snapshots carry no world config; the environment's
    arranged/accepted counters do not bound |V| either, so fall back to
    the highest event id ever drained + 1 — exact whenever the run
    actually exhausted everything (the only case ``complete`` fires).
    """
    highest = -1
    for name, points in snapshot.series.items():
        if name.endswith(EXHAUSTION_SUFFIX):
            for _, value in points:
                highest = max(highest, int(value))
    return highest + 1


# ----------------------------------------------------------------------
# health.json persistence
# ----------------------------------------------------------------------
def persist_health(
    directory: Union[str, Path], monitor: HealthMonitor
) -> Path:
    """Atomically write ``health.json`` into a run directory."""
    import json

    from repro.io.runstore import atomic_write_text

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / HEALTH_FILENAME
    atomic_write_text(
        path, json.dumps(monitor.to_payload(), indent=2, sort_keys=True) + "\n"
    )
    return path


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
