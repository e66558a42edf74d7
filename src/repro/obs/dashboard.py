"""``fasea obs health`` / ``fasea obs top`` — health report & live dashboard.

Two consumption surfaces over the learning-health artefacts
(:mod:`repro.obs.health`):

``obs health <dir>``
    Offline report: the per-policy health table (detection counts,
    changepoint rounds, capacity-cliff onset/complete) plus the alert
    history, from ``health.json`` + ``alerts.jsonl``.  A run that never
    persisted them (killed under ``--stream``) is read from its
    ``trace.jsonl``, which holds each finished cell's health and alert
    events.  ``--format json`` emits the machine-readable document;
    ``--html`` writes a single-file inline-SVG report (no plotting
    dependency).

``obs top <dir>``
    A curses-free live dashboard for a running (or finished) run: poll
    the streaming sink's ``metrics.json`` and *follow* ``trace.jsonl``
    incrementally, re-rendering a compact block —
    the counters, per-policy reward sparklines, last θ̂-drift points and
    oracle fill rates, detector status, the most recent alerts —
    whenever anything changes.  ``--once`` renders a single
    frame and exits (the CI mode).

The file followers use :class:`JsonlFollower`: a byte-offset reader
that only ever consumes complete, newline-terminated, valid-JSON lines
(the longest valid prefix of a log whose writer may be mid-record or
SIGKILL'd) and never re-reads consumed bytes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ConfigurationError
from repro.obs.console import Console
from repro.obs.core import MetricsSnapshot
from repro.obs.health import (
    ALERT_EVENT_NAME,
    HEALTH_FILENAME,
    POLICY_METRIC_PREFIX,
    REWARD_SUFFIX,
    THETA_DRIFT_SUFFIX,
    health_events_from_trace,
    health_payload,
    load_alerts,
    load_health,
    summarize_events,
)

#: Unicode ramp for terminal sparklines (flat series render low blocks).
SPARK_BLOCKS = "▁▂▃▄▅▆▇█"

#: Points shown per policy sparkline in ``obs top``.
SPARK_WIDTH = 40

#: Alerts shown in the dashboard's "recent alerts" section.
TOP_ALERT_ROWS = 5

#: Streamed trace filename (the sink's append-only log).
TRACE_FILENAME = "trace.jsonl"

#: Snapshot filename the streaming sink rotates.
METRICS_FILENAME = "metrics.json"


def text_sparkline(values: Sequence[float], width: int = SPARK_WIDTH) -> str:
    """Render a series tail as a fixed-width block-character sparkline."""
    if not values:
        return ""
    tail = list(values)[-width:]
    lo = min(tail)
    hi = max(tail)
    span = hi - lo
    if span <= 0.0:
        return SPARK_BLOCKS[0] * len(tail)
    top = len(SPARK_BLOCKS) - 1
    return "".join(
        SPARK_BLOCKS[int(round((value - lo) / span * top))] for value in tail
    )


class JsonlFollower:
    """Incrementally read complete JSON lines from a growing JSONL file.

    Tracks a byte offset and, per :meth:`poll`, consumes only the
    newline-terminated lines that parse as JSON — a partial final line
    (writer mid-record, or a crash mid-write) is left unconsumed for the
    next poll, so the follower never crashes on a truncated log and
    never yields a record twice.  A file that shrinks (rotation) resets
    the offset and re-reads from the top.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._offset = 0

    @property
    def offset(self) -> int:
        """The byte position up to which the log has been consumed."""
        return self._offset

    def poll(self) -> List[Dict[str, Any]]:
        """All newly appended complete records (empty if none or no file)."""
        try:
            size = self.path.stat().st_size
        except OSError:
            return []
        if size < self._offset:
            # The file shrank: a writer truncated/rotated it — start over.
            self._offset = 0
        if size == self._offset:
            return []
        with self.path.open("rb") as handle:
            handle.seek(self._offset)
            chunk = handle.read(size - self._offset)
        records: List[Dict[str, Any]] = []
        consumed = 0
        for line in chunk.splitlines(keepends=True):
            if not line.endswith(b"\n"):
                break  # incomplete tail: leave for the next poll
            text = line.strip()
            if text:
                try:
                    record = json.loads(text.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    # A malformed interior line ends the valid prefix;
                    # do not consume past it (the writer may still be
                    # repairing, or the log is damaged — either way the
                    # follower must not skip bytes silently).
                    break
                if isinstance(record, dict):
                    records.append(record)
            consumed += len(line)
        self._offset += consumed
        return records


# ----------------------------------------------------------------------
# obs health — offline report
# ----------------------------------------------------------------------
def load_health_document(target: Union[str, Path]) -> Dict[str, Any]:
    """The ``health.json`` payload of a run, with its ``alerts`` list.

    Read from ``health.json`` + ``alerts.jsonl`` when the run persisted
    them, otherwise from the health and alert events of its (possibly
    torn) ``trace.jsonl``; a directory with neither raises
    :class:`~repro.exceptions.ConfigurationError`.
    """
    from repro.obs.trace import read_trace_jsonl

    directory = Path(target)
    if directory.is_file():
        directory = directory.parent
    if (directory / HEALTH_FILENAME).is_file():
        document = load_health(directory)
        document["alerts"] = load_alerts(directory, strict=False)
        return document
    trace_path = directory / TRACE_FILENAME
    if not trace_path.is_file():
        raise ConfigurationError(
            f"no {HEALTH_FILENAME} or {TRACE_FILENAME} in {directory}; "
            "record the run with --health"
        )
    records = read_trace_jsonl(trace_path, strict=False)
    document = health_payload(health_events_from_trace(records))
    document["alerts"] = health_events_from_trace(records, ALERT_EVENT_NAME)
    return document


def health_table_rows(summary: Dict[str, Dict[str, Any]]) -> List[List[str]]:
    """Per-policy rows: detections, changepoint rounds, cliff marks."""
    rows: List[List[str]] = []
    for policy in sorted(summary):
        entry = summary[policy]
        detections = entry.get("detections", {})
        shown = ", ".join(
            f"{name}:{count}" for name, count in sorted(detections.items())
        )
        changepoints = entry.get("changepoints", [])
        rounds = ", ".join(str(r) for r in changepoints[:6])
        if len(changepoints) > 6:
            rounds += f", ... ({len(changepoints)} total)"
        onset = entry.get("cliff_onset")
        complete = entry.get("cliff_complete")
        rows.append(
            [
                policy,
                shown or "-",
                rounds or "-",
                "-" if onset is None else str(onset),
                "-" if complete is None else str(complete),
            ]
        )
    return rows


def alert_table_rows(alerts: Sequence[Dict[str, Any]]) -> List[List[str]]:
    """One row per firing: rule, severity, subject, round, value."""
    rows: List[List[str]] = []
    for record in alerts:
        subject = record.get("policy") or record.get("metric") or "-"
        rows.append(
            [
                str(record.get("rule", "?")),
                str(record.get("severity", "?")),
                str(subject),
                str(record.get("round", "?")),
                f"{float(record.get('value', 0.0)):.6g}",
            ]
        )
    return rows


def render_health_text(
    payload: Dict[str, Any], alerts: Sequence[Dict[str, Any]]
) -> str:
    """The ``fasea obs health`` text body."""
    from repro.experiments.reporting import format_table

    sections: List[str] = []
    summary = payload.get("summary", {})
    if summary:
        sections.append(
            "learning health (per policy)\n"
            + format_table(
                ["policy", "detections", "changepoint rounds", "cliff onset",
                 "cliff complete"],
                health_table_rows(summary),
            )
        )
    else:
        sections.append("no health events recorded")
    if alerts:
        sections.append(
            f"alerts ({len(alerts)} firing(s))\n"
            + format_table(
                ["rule", "severity", "subject", "round", "value"],
                alert_table_rows(alerts),
            )
        )
    else:
        sections.append("alerts: none fired")
    return "\n\n".join(sections)


def _svg_sparkline(
    values: Sequence[float], width: int = 520, height: int = 96
) -> str:
    """A single-series polyline SVG; degenerate series render flat."""
    pad = 8
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    n = max(len(values) - 1, 1)
    points = " ".join(
        f"{pad + (width - 2 * pad) * i / n:.1f},"
        f"{height - pad - (height - 2 * pad) * (v - lo) / span:.1f}"
        for i, v in enumerate(values)
    )
    circles = "".join(
        f'<circle cx="{pad + (width - 2 * pad) * i / n:.1f}" '
        f'cy="{height - pad - (height - 2 * pad) * (v - lo) / span:.1f}" '
        f'r="2.5" fill="#1f77b4"/>'
        for i, v in enumerate(values)
    )
    return (
        f'<svg width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img">'
        f'<rect width="{width}" height="{height}" fill="#fafafa"/>'
        f'<polyline points="{points}" fill="none" stroke="#1f77b4" '
        f'stroke-width="1.5"/>{circles}</svg>'
    )


def render_health_html(
    payload: Dict[str, Any],
    alerts: Sequence[Dict[str, Any]],
    snapshot: Optional[MetricsSnapshot] = None,
) -> str:
    """A single-file inline-SVG health report (no plotting dependency)."""
    from html import escape

    summary = payload.get("summary", {})
    parts: List[str] = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        "<title>FASEA learning health</title>",
        "<style>body{font-family:system-ui,sans-serif;margin:2rem;"
        "max-width:60rem}h2{border-bottom:1px solid #ddd}"
        "table{border-collapse:collapse;font-size:0.85rem}"
        "td,th{border:1px solid #ddd;padding:0.25rem 0.5rem;text-align:left}"
        ".muted{color:#777}.sev-critical{color:#b00}"
        ".sev-warning{color:#a60}</style></head><body>",
        "<h1>FASEA learning health</h1>",
        f'<p class="muted">{len(payload.get("events", []))} health '
        f"event(s), {len(alerts)} alert firing(s).</p>",
    ]
    for policy in sorted(summary):
        entry = summary[policy]
        parts.append(f"<h2>{escape(policy)}</h2>")
        detections = entry.get("detections", {})
        shown = ", ".join(
            f"{escape(str(name))}: {count}"
            for name, count in sorted(detections.items())
        )
        onset = entry.get("cliff_onset")
        complete = entry.get("cliff_complete")
        parts.append(
            f"<p>detections: {shown or '-'} &middot; cliff onset: "
            f"{'-' if onset is None else onset} &middot; cliff complete: "
            f"{'-' if complete is None else complete}</p>"
        )
        if snapshot is not None:
            name = POLICY_METRIC_PREFIX + policy + REWARD_SUFFIX
            points = snapshot.series.get(name)
            if points:
                values = [float(value) for _, value in points]
                parts.append(_svg_sparkline(values))
                parts.append(
                    f'<p class="muted">reward series ({len(values)} '
                    "point(s))</p>"
                )
    if alerts:
        parts.append("<h2>alerts</h2><table><tr><th>rule</th>"
                     "<th>severity</th><th>subject</th><th>round</th>"
                     "<th>value</th></tr>")
        for row in alert_table_rows(alerts):
            severity = row[1]
            cells = "".join(f"<td>{escape(cell)}</td>" for cell in row)
            parts.append(f'<tr class="sev-{escape(severity)}">{cells}</tr>')
        parts.append("</table>")
    parts.append("</body></html>")
    return "\n".join(parts)


def write_health_html(
    target: Union[str, Path],
    payload: Dict[str, Any],
    alerts: Sequence[Dict[str, Any]],
    snapshot: Optional[MetricsSnapshot] = None,
) -> Path:
    """Atomically write the HTML report; returns its path."""
    from repro.io.runstore import atomic_write_text

    return atomic_write_text(
        Path(target), render_health_html(payload, alerts, snapshot)
    )


# ----------------------------------------------------------------------
# obs top — live dashboard
# ----------------------------------------------------------------------
#: The per-policy oracle fill-rate histogram (``policy.<label>.oracle.fill_rate``).
FILL_RATE_SUFFIX = ".oracle.fill_rate"


def _policy_metrics(names: Sequence[str], suffix: str) -> List[Tuple[str, str]]:
    """``(policy label, metric name)`` for each ``policy.<label><suffix>``."""
    return [
        (name[len(POLICY_METRIC_PREFIX) : -len(suffix)], name)
        for name in sorted(names)
        if name.startswith(POLICY_METRIC_PREFIX) and name.endswith(suffix)
    ]


def top_lines(
    snapshot: MetricsSnapshot,
    health_events: Sequence[Dict[str, Any]],
    alerts: Sequence[Dict[str, Any]],
) -> List[str]:
    """One dashboard frame: the counters, reward sparklines, each
    policy's last θ̂-drift point and oracle fill-rate mean, detector
    status and recent alerts."""
    lines: List[str] = []
    if snapshot.counters:
        counters = "  ".join(
            f"{name}={value:g}" for name, value in sorted(snapshot.counters.items())
        )
        lines.append(f"counters: {counters}")
    rewards = _policy_metrics(list(snapshot.series), REWARD_SUFFIX)
    if rewards:
        lines.append("reward (sparkline over the series tail):")
        for label, name in rewards:
            values = [float(value) for _, value in snapshot.series[name]]
            last = values[-1] if values else 0.0
            lines.append(
                f"  {label:<12} {text_sparkline(values):<{SPARK_WIDTH}} "
                f"last={last:g}  n={len(values)}"
            )
    drifts = [
        (label, snapshot.series[name])
        for label, name in _policy_metrics(list(snapshot.series), THETA_DRIFT_SUFFIX)
        if snapshot.series[name]
    ]
    if drifts:
        lines.append("theta_drift (last point per policy):")
        for label, points in drifts:
            step, value = points[-1]
            lines.append(
                f"  {label:<12} t={int(step):<8} last={value:.6g}  n={len(points)}"
            )
    fills = _policy_metrics(list(snapshot.histograms), FILL_RATE_SUFFIX)
    if fills:
        lines.append("oracle fill rate:")
        for label, name in fills:
            payload = snapshot.histograms[name]
            count = int(payload.get("count", 0))
            mean = float(payload.get("sum", 0.0)) / count if count else 0.0
            lines.append(f"  {label:<12} mean={mean:.4f}  n={count}")
    summary = summarize_events(list(health_events))
    if summary:
        lines.append("health detectors:")
        for policy in sorted(summary):
            entry = summary[policy]
            shown = ", ".join(
                f"{name}:{count}"
                for name, count in sorted(entry.get("detections", {}).items())
            )
            onset = entry.get("cliff_onset")
            cliff = "" if onset is None else f"  cliff@{onset}"
            lines.append(f"  {policy:<12} {shown or '-'}{cliff}")
    else:
        lines.append("health detectors: no events")
    if alerts:
        lines.append(f"alerts ({len(alerts)} total, last {TOP_ALERT_ROWS}):")
        for record in list(alerts)[-TOP_ALERT_ROWS:]:
            subject = record.get("policy") or record.get("metric") or "-"
            lines.append(
                f"  [{record.get('severity', '?'):<8}] "
                f"{record.get('rule', '?')} {subject} "
                f"round={record.get('round', '?')}"
            )
    else:
        lines.append("alerts: none fired")
    return lines


def run_top(
    target: Union[str, Path],
    console: Console,
    interval: float = 1.0,
    max_updates: Optional[int] = None,
    sleep: Optional[Any] = None,
) -> int:
    """Follow a run directory live, re-rendering the dashboard on change.

    Polls ``metrics.json``'s mtime on ``interval`` and drains the
    ``trace.jsonl`` follower, whose health and alert events each cell
    adds as it ends; a frame renders whenever the snapshot rotated or
    new records arrived.
    ``max_updates=1`` is the ``--once`` CI mode; ``None`` follows until
    interrupted.  A ``target`` that does not exist raises
    :class:`~repro.exceptions.ConfigurationError`.
    """
    import time as _time

    from repro.obs.export import snapshot_from_json

    sleep = sleep if sleep is not None else _time.sleep
    directory = Path(target)
    if not directory.exists():
        raise ConfigurationError(f"no run directory at {directory}")
    if directory.is_file():
        directory = directory.parent
    metrics_path = directory / METRICS_FILENAME
    trace_follower = JsonlFollower(directory / TRACE_FILENAME)
    health_events: List[Dict[str, Any]] = []
    alerts: List[Dict[str, Any]] = []
    snapshot = MetricsSnapshot()
    rendered = 0
    last_mtime: Optional[int] = None
    try:
        while True:
            changed = False
            if metrics_path.is_file():
                mtime = metrics_path.stat().st_mtime_ns
                if mtime != last_mtime:
                    last_mtime = mtime
                    snapshot = snapshot_from_json(
                        metrics_path.read_text(encoding="utf-8")
                    )
                    changed = True
            fresh_trace = trace_follower.poll()
            if fresh_trace:
                health_events.extend(health_events_from_trace(fresh_trace))
                alerts.extend(health_events_from_trace(fresh_trace, ALERT_EVENT_NAME))
                changed = True
            force_first = rendered == 0 and max_updates is not None
            if changed or force_first:
                rendered += 1
                console.info(f"--- top frame {rendered}: {directory} ---")
                for line in top_lines(snapshot, health_events, alerts):
                    console.data(line)
                if max_updates is not None and rendered >= max_updates:
                    return 0
            sleep(interval)
    except KeyboardInterrupt:
        return 0
