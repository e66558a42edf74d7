"""``fasea obs`` — inspect the telemetry a run left behind (or is leaving).

Verbs over the artefacts written by
:func:`repro.io.runstore.persist_run_telemetry` and the streaming sink:

``summary``
    Render a ``metrics.json`` snapshot: counters, gauges,
    histogram/timer digests, per-policy diagnostics (theta-drift,
    exploration telemetry, oracle fill rates) and the
    capacity-exhaustion drop-point table (which round drained each
    event's last seat, per policy).
``trace``
    Render a ``trace.jsonl`` file as an indented span tree (events
    optional).
``diff``
    Compare two snapshots metric-by-metric; exits non-zero when any
    value moved by more than ``--tolerance`` (relative) or a metric
    appears/disappears.
``health``
    Per-policy learning-health report: changepoint detections, the
    capacity-cliff onset/complete rounds and the alert history, from
    ``health.json`` + ``alerts.jsonl`` (from the streamed
    ``trace.jsonl`` when the run did not persist them); ``--format
    json`` and ``--html`` (inline-SVG single file) for machines.
``top``
    Curses-free live dashboard: follow the streaming sink and render
    the counters, reward sparklines, the last θ̂-drift point and oracle
    fill-rate mean per policy, detector status and the most recent
    alerts; ``--once`` renders a single frame for CI.
``profile``
    Render a run's deterministic sampling profile as a hottest-first
    table, or emit flamegraph.pl-compatible folded stacks
    (``--folded``); rebuilds the profile from ``trace.jsonl`` when no
    ``profile.json`` was written.
``replay``
    Re-execute a recorded run from its ``decisions.jsonl`` and assert
    the replay is bit-identical; ``--until`` time-travels, ``--diff``
    dumps the first diverging record pair side-by-side.  Exits 1 on
    divergence.
``ope``
    Off-policy evaluation: estimate a target policy's value on a
    logged behavior stream (IPS/SNIPS/DR with bootstrap CIs, plus the
    direct-method estimate).

All human-facing output flows through :class:`repro.obs.console.Console`
so ``--quiet`` and ``NO_COLOR`` behave uniformly.
"""

from __future__ import annotations

import argparse
import math
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ConfigurationError
from repro.obs.console import Console
from repro.obs.core import MetricsSnapshot
from repro.obs.export import snapshot_from_json
from repro.obs.health import EXHAUSTION_SUFFIX, drop_point_rows
from repro.obs.trace import read_trace_jsonl, span_tree_lines


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def _resolve_metrics_path(target: Union[str, Path]) -> Path:
    path = Path(target)
    if path.is_dir():
        path = path / "metrics.json"
    if not path.is_file():
        raise ConfigurationError(f"no metrics snapshot at {path}")
    return path


def load_snapshot(target: Union[str, Path]) -> MetricsSnapshot:
    """Load a snapshot from a ``metrics.json`` file or its directory."""
    path = _resolve_metrics_path(target)
    return snapshot_from_json(path.read_text(encoding="utf-8"))


def _resolve_trace_path(target: Union[str, Path]) -> Path:
    path = Path(target)
    if path.is_dir():
        path = path / "trace.jsonl"
    if not path.is_file():
        raise ConfigurationError(f"no trace file at {path}")
    return path


def _resolve_decisions_path(target: Union[str, Path]) -> Optional[Path]:
    """The decisions.jsonl next to a snapshot, if one was recorded."""
    from repro.obs.flight import DECISIONS_FILENAME

    path = Path(target)
    if path.is_file():
        path = path.parent
    candidate = path / DECISIONS_FILENAME
    return candidate if candidate.is_file() else None


# ----------------------------------------------------------------------
# summary
# ----------------------------------------------------------------------
def exhaustion_rows(snapshot: MetricsSnapshot) -> List[Tuple[str, int, int]]:
    """``(policy, event_id, round)`` rows, one per drained event.

    Delegates to :func:`repro.obs.health.drop_point_rows` — the single
    drop-point implementation shared with the online capacity-cliff
    detector, so the summary table and ``health.json`` always agree.
    """
    return drop_point_rows(snapshot)


def _histogram_digest(payload: Dict[str, Any]) -> Tuple[int, float, float]:
    count = int(payload.get("count", 0))
    total = float(payload.get("sum", 0.0))
    mean = total / count if count else 0.0
    return count, total, mean


def _series_digest(points: Sequence[Sequence[float]]) -> Tuple[int, float]:
    last = float(points[-1][1]) if points else 0.0
    return len(points), last


def render_summary(snapshot: MetricsSnapshot) -> str:
    """The ``fasea obs summary`` text body (without chrome)."""
    from repro.experiments.reporting import format_table

    sections: List[str] = []
    if snapshot.counters:
        rows = [[name, f"{value:g}"] for name, value in sorted(snapshot.counters.items())]
        sections.append("counters\n" + format_table(["name", "value"], rows))
    if snapshot.gauges:
        rows = [[name, f"{value:g}"] for name, value in sorted(snapshot.gauges.items())]
        sections.append("gauges\n" + format_table(["name", "value"], rows))
    if snapshot.histograms:
        rows = []
        for name, payload in sorted(snapshot.histograms.items()):
            count, total, mean = _histogram_digest(payload)
            unit = payload.get("unit", "")
            rows.append([name, str(count), f"{mean:.6g}", f"{total:.6g}", unit])
        sections.append(
            "histograms & timers\n"
            + format_table(["name", "count", "mean", "total", "unit"], rows)
        )
    if snapshot.series:
        rows = []
        for name, points in sorted(snapshot.series.items()):
            if name.endswith(EXHAUSTION_SUFFIX):
                continue  # rendered as the drop-point table below
            length, last = _series_digest(points)
            rows.append([name, str(length), f"{last:.6g}"])
        if rows:
            sections.append(
                "series\n" + format_table(["name", "points", "last"], rows)
            )
    drained = exhaustion_rows(snapshot)
    if drained:
        rows = [
            [policy, str(event_id), str(round_)]
            for policy, event_id, round_ in drained
        ]
        sections.append(
            "capacity exhaustion (first round each event drained)\n"
            + format_table(["policy", "event", "round"], rows)
        )
    if not sections:
        return "snapshot is empty"
    return "\n\n".join(sections)


def flight_summary_rows(
    decisions_path: Union[str, Path],
) -> List[List[str]]:
    """Per-policy flight-log digest rows for the summary table.

    Columns: policy, decision count, total reward, explore rate (blank
    when the policy logs no coin), propensity coverage, digest prefix.
    """
    from repro.obs.flight import flight_digest, load_flight

    log = load_flight(decisions_path, strict=False)
    rows: List[List[str]] = []
    for policy, records in sorted(log.by_policy().items()):
        total_reward = sum(float(r.get("reward", 0.0)) for r in records)
        coins = [r for r in records if "explore" in r]
        explored = sum(1 for r in coins if r.get("explore"))
        with_propensity = sum(
            1
            for r in records
            if isinstance(r.get("propensity"), (int, float))
        )
        rows.append(
            [
                policy,
                str(len(records)),
                f"{total_reward:g}",
                f"{explored / len(coins):.3f}" if coins else "-",
                f"{with_propensity / len(records):.0%}" if records else "-",
                flight_digest(records)[:12],
            ]
        )
    return rows


# ----------------------------------------------------------------------
# diff
# ----------------------------------------------------------------------
def _flatten(snapshot: MetricsSnapshot) -> Dict[str, float]:
    """One comparable scalar per metric name."""
    flat: Dict[str, float] = {}
    for name, value in snapshot.counters.items():
        flat[f"counter:{name}"] = float(value)
    for name, value in snapshot.gauges.items():
        flat[f"gauge:{name}"] = float(value)
    for name, payload in snapshot.histograms.items():
        count, total, _ = _histogram_digest(payload)
        flat[f"histogram:{name}:count"] = float(count)
        flat[f"histogram:{name}:sum"] = total
    for name, points in snapshot.series.items():
        length, last = _series_digest(points)
        flat[f"series:{name}:points"] = float(length)
        flat[f"series:{name}:last"] = last
    return flat


def diff_snapshots(
    baseline: MetricsSnapshot,
    candidate: MetricsSnapshot,
    tolerance: float = 1e-9,
    ignore_timings: bool = True,
) -> List[str]:
    """Human-readable drift lines (empty = snapshots agree).

    ``ignore_timings`` skips wall-clock histograms/series (anything
    tagged with a seconds unit or named ``*_seconds``): those are never
    reproducible and would drown real drift.
    """
    if not tolerance >= 0:
        raise ConfigurationError(f"--tolerance must be >= 0, got {tolerance}")
    base = _flatten(baseline)
    cand = _flatten(candidate)
    lines: List[str] = []
    for key in sorted(set(base) | set(cand)):
        if ignore_timings and ("_seconds" in key or "_latency" in key):
            continue
        if key not in base:
            lines.append(f"+ {key} = {cand[key]:g} (only in candidate)")
            continue
        if key not in cand:
            lines.append(f"- {key} = {base[key]:g} (only in baseline)")
            continue
        b, c = base[key], cand[key]
        scale = max(abs(b), abs(c), 1.0)
        if abs(b - c) > tolerance * scale:
            lines.append(f"! {key}: {b:g} -> {c:g}")
    return lines


def flight_diff_lines(
    baseline: Union[str, Path], candidate: Union[str, Path]
) -> List[str]:
    """Decision-log drift lines (empty = identical choices, or no logs).

    Compares the two runs' ``decisions.jsonl`` per-policy record counts
    and content digests, so drift in *choices* — not just aggregate
    metrics — is flagged.  A log present on only one side is drift too.
    """
    from repro.obs.flight import load_flight, policy_digests

    base_path = _resolve_decisions_path(baseline)
    cand_path = _resolve_decisions_path(candidate)
    if base_path is None and cand_path is None:
        return []
    if base_path is None:
        return [f"+ decisions: log only in candidate ({cand_path})"]
    if cand_path is None:
        return [f"- decisions: log only in baseline ({base_path})"]
    base = policy_digests(load_flight(base_path, strict=False).records)
    cand = policy_digests(load_flight(cand_path, strict=False).records)
    lines: List[str] = []
    for policy in sorted(set(base) | set(cand)):
        if policy not in base:
            lines.append(f"+ decisions:{policy} (only in candidate)")
            continue
        if policy not in cand:
            lines.append(f"- decisions:{policy} (only in baseline)")
            continue
        base_count, base_digest = base[policy]
        cand_count, cand_digest = cand[policy]
        if base_count != cand_count:
            lines.append(
                f"! decisions:{policy}: {base_count} -> {cand_count} records"
            )
        elif base_digest != cand_digest:
            lines.append(
                f"! decisions:{policy}: choices drifted "
                f"({base_digest[:12]} -> {cand_digest[:12]})"
            )
    return lines


# ----------------------------------------------------------------------
# argparse wiring (mirrors repro.devtools.lint.cli)
# ----------------------------------------------------------------------
def add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``fasea obs`` arguments to a subparser."""
    verbs = parser.add_subparsers(dest="obs_command", required=True)

    summary = verbs.add_parser(
        "summary", help="render a metrics.json snapshot"
    )
    summary.add_argument(
        "target", help="run directory or metrics.json file"
    )
    summary.add_argument(
        "--format",
        default="text",
        choices=("text", "json"),
        help="output format (json is machine-readable)",
    )
    summary.add_argument(
        "--quiet", action="store_true", help="suppress human-readable chrome"
    )

    trace = verbs.add_parser("trace", help="render a trace.jsonl span tree")
    trace.add_argument("target", help="run directory or trace.jsonl file")
    trace.add_argument(
        "--limit", type=int, default=200, help="maximum lines to render"
    )
    trace.add_argument(
        "--events", action="store_true", help="include point events in the tree"
    )
    trace.add_argument("--quiet", action="store_true", help=argparse.SUPPRESS)

    diff = verbs.add_parser("diff", help="compare two metrics snapshots")
    diff.add_argument("baseline", help="baseline run directory or metrics.json")
    diff.add_argument("candidate", help="candidate run directory or metrics.json")
    diff.add_argument(
        "--tolerance", type=float, default=1e-9, help="relative tolerance"
    )
    diff.add_argument(
        "--include-timings",
        action="store_true",
        help="also compare wall-clock metrics (never reproducible)",
    )
    diff.add_argument("--quiet", action="store_true", help=argparse.SUPPRESS)

    health = verbs.add_parser(
        "health",
        help="per-policy learning-health report (detections + alerts)",
    )
    health.add_argument(
        "target", help="run directory (health.json + alerts.jsonl, or trace.jsonl)"
    )
    health.add_argument(
        "--format",
        default="text",
        choices=("text", "json"),
        help="output format (json is the raw health document + alerts)",
    )
    health.add_argument(
        "--html",
        default=None,
        metavar="FILE",
        help="also write a single-file inline-SVG HTML report to FILE",
    )
    health.add_argument(
        "--quiet", action="store_true", help="suppress human-readable chrome"
    )

    top = verbs.add_parser(
        "top",
        help="live terminal dashboard following a (running) run directory",
    )
    top.add_argument("target", help="run directory to follow")
    top.add_argument(
        "--interval", type=float, default=1.0, help="poll interval in seconds"
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="render one frame and exit (CI mode)",
    )
    top.add_argument(
        "--max-updates",
        type=int,
        default=None,
        help="stop after this many frames (default: follow forever)",
    )
    top.add_argument("--quiet", action="store_true", help=argparse.SUPPRESS)

    profile = verbs.add_parser(
        "profile", help="render a run's sampling profile"
    )
    profile.add_argument(
        "target",
        help="run directory, profile.json, or trace.jsonl to rebuild from",
    )
    profile.add_argument(
        "--limit", type=int, default=30, help="maximum table rows"
    )
    profile.add_argument(
        "--folded",
        action="store_true",
        help="emit flamegraph.pl-compatible folded stacks instead",
    )
    profile.add_argument("--quiet", action="store_true", help=argparse.SUPPRESS)

    replay = verbs.add_parser(
        "replay",
        help="re-execute a recorded run and assert bit-identical decisions",
    )
    replay.add_argument(
        "target", help="run directory or decisions.jsonl file"
    )
    replay.add_argument(
        "--until",
        type=int,
        default=None,
        help="replay only rounds t <= UNTIL (time travel)",
    )
    replay.add_argument(
        "--diff",
        action="store_true",
        help="dump the first diverging record pair side-by-side",
    )
    replay.add_argument("--quiet", action="store_true", help=argparse.SUPPRESS)

    ope = verbs.add_parser(
        "ope",
        help="off-policy evaluation of a target policy on a decision log",
    )
    ope.add_argument("target", help="run directory or decisions.jsonl file")
    ope.add_argument(
        "--policy",
        required=True,
        help="target policy to evaluate (OPT or a make_policy name)",
    )
    ope.add_argument(
        "--behavior",
        default=None,
        help="logged behavior stream to evaluate against "
        "(defaults to the only one in the log)",
    )
    ope.add_argument(
        "--target-seed",
        type=int,
        default=None,
        help="override the target policy's RNG seed",
    )
    ope.add_argument(
        "--bootstrap",
        type=int,
        default=1000,
        help="bootstrap resamples for the confidence intervals",
    )
    ope.add_argument(
        "--seed", type=int, default=0, help="bootstrap resampling seed"
    )
    ope.add_argument(
        "--format",
        default="text",
        choices=("text", "json"),
        help="output format",
    )
    ope.add_argument("--quiet", action="store_true", help=argparse.SUPPRESS)


def run_obs(args: argparse.Namespace, console: Optional[Console] = None) -> int:
    """Execute one ``fasea obs`` verb; returns the process exit code."""
    from repro.exceptions import SchemaError

    console = console or Console(quiet=bool(getattr(args, "quiet", False)))
    try:
        if args.obs_command == "summary":
            return _summary(args, console)
        if args.obs_command == "trace":
            return _trace(args, console)
        if args.obs_command == "diff":
            return _diff(args, console)
        if args.obs_command == "health":
            return _health(args, console)
        if args.obs_command == "top":
            return _top(args, console)
        if args.obs_command == "profile":
            return _profile(args, console)
        if args.obs_command == "replay":
            return _replay(args, console)
        if args.obs_command == "ope":
            return _ope(args, console)
    except (ConfigurationError, SchemaError) as error:
        console.error(f"fasea obs: {error}")
        return 2
    console.error(f"fasea obs: unknown verb {args.obs_command!r}")
    return 2


def _summary(args: argparse.Namespace, console: Console) -> int:
    snapshot = load_snapshot(args.target)
    if args.format == "json":
        from repro.obs.export import snapshot_to_json

        console.data(snapshot_to_json(snapshot), end="\n")
        return 0
    console.info(f"snapshot: {_resolve_metrics_path(args.target)}")
    console.result(render_summary(snapshot))
    decisions_path = _resolve_decisions_path(args.target)
    if decisions_path is not None:
        from repro.experiments.reporting import format_table

        rows = flight_summary_rows(decisions_path)
        if rows:
            console.result("")
            console.result(
                "decision flight log (decisions.jsonl)\n"
                + format_table(
                    ["policy", "decisions", "reward", "explore",
                     "propensity", "digest"],
                    rows,
                )
            )
    return 0


def _check_limit(limit: int) -> None:
    if limit < 1:
        raise ConfigurationError(f"--limit must be >= 1, got {limit}")


def _check_interval(interval: float) -> None:
    """Reject a poll interval ``time.sleep`` cannot honour."""
    if not (math.isfinite(interval) and interval >= 0):
        raise ConfigurationError(
            f"--interval must be a finite number >= 0, got {interval}"
        )


def _trace(args: argparse.Namespace, console: Console) -> int:
    _check_limit(args.limit)
    path = _resolve_trace_path(args.target)
    records = read_trace_jsonl(path)
    console.info(f"trace: {path} ({len(records)} records)")
    lines = span_tree_lines(
        records, limit=args.limit, include_events=args.events
    )
    for line in lines:
        console.result(line)
    if not lines:
        console.result("(empty trace)")
    return 0


def _diff(args: argparse.Namespace, console: Console) -> int:
    baseline = load_snapshot(args.baseline)
    candidate = load_snapshot(args.candidate)
    lines = diff_snapshots(
        baseline,
        candidate,
        tolerance=args.tolerance,
        ignore_timings=not args.include_timings,
    )
    lines.extend(flight_diff_lines(args.baseline, args.candidate))
    if not lines:
        console.info("snapshots agree")
        return 0
    for line in lines:
        console.data(line)
    console.warn(f"{len(lines)} metric(s) drifted")
    return 1


def _health(args: argparse.Namespace, console: Console) -> int:
    import json

    from repro.obs.dashboard import (
        load_health_document,
        render_health_text,
        write_health_html,
    )

    payload = load_health_document(args.target)
    alerts = payload["alerts"]
    if args.format == "json":
        console.data(json.dumps(payload, indent=2, sort_keys=True))
    else:
        console.info(f"health: {args.target}")
        console.result(render_health_text(payload, alerts))
    if args.html:
        snapshot: Optional[MetricsSnapshot] = None
        try:
            snapshot = load_snapshot(args.target)
        except ConfigurationError:
            pass
        path = write_health_html(args.html, payload, alerts, snapshot)
        console.info(f"html report in {path}")
    return 0


def _top(args: argparse.Namespace, console: Console) -> int:
    from repro.obs.dashboard import run_top

    _check_interval(args.interval)
    max_updates = 1 if args.once else args.max_updates
    return run_top(
        args.target, console, interval=args.interval, max_updates=max_updates
    )


def _profile(args: argparse.Namespace, console: Console) -> int:
    from repro.experiments.reporting import format_table
    from repro.obs.profile import load_profile

    profile = load_profile(args.target)
    if args.folded:
        for line in profile.folded_lines():
            console.data(line)
        return 0
    _check_limit(args.limit)
    rows = profile.table_rows()
    total = len(rows)
    rows = rows[: args.limit]
    console.info(
        f"profile: {args.target} ({total} stack(s), "
        f"{profile.total_ns / 1e6:.3f}ms sampled self time)"
    )
    if not rows:
        console.result("(empty profile)")
        return 0
    console.result(
        format_table(["stack", "calls", "cum_ms", "self_ms", "self_%"], rows)
    )
    if total > len(rows):
        console.info(f"... {total - len(rows)} colder stack(s) hidden ...")
    return 0


def _replay(args: argparse.Namespace, console: Console) -> int:
    from repro.obs.flight import load_flight
    from repro.obs.replay import render_replay_report, replay_flight

    log = load_flight(args.target, strict=False)
    console.info(
        f"replaying {log.path} ({len(log.decisions)} logged decision(s))"
    )
    report = replay_flight(log, until=args.until)
    for line in render_replay_report(report, diff=args.diff):
        console.result(line)
    return 0 if report.ok else 1


def _ope(args: argparse.Namespace, console: Console) -> int:
    import json

    from repro.obs.flight import load_flight
    from repro.obs.ope import evaluate_policy, render_ope_report

    log = load_flight(args.target, strict=False)
    report = evaluate_policy(
        log,
        args.policy,
        behavior=args.behavior,
        num_resamples=args.bootstrap,
        seed=args.seed,
        target_seed=args.target_seed,
    )
    if args.format == "json":
        console.data(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0
    for line in render_ope_report(report):
        console.result(line)
    return 0
