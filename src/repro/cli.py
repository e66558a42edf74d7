"""Command-line interface: ``fasea`` / ``python -m repro``.

Subcommands
-----------
``list``
    Print the known experiment ids (one per paper table/figure).
``run <ids...>``
    Run one or more experiments (or ``all``) and write text + CSV
    reports under ``--out`` (default ``results/``).
``quickstart``
    A tiny end-to-end demonstration run on the default setting.
``replicate``
    Re-run the default comparison across several seeds with 95% CIs.
``claims [ids...]``
    Re-certify the paper's summary claims (C1..C5).
``export-damai``
    Write the Damai-like dataset to CSV/JSON.
``diff <baseline> <candidate>``
    Compare two results directories for drift.
``report``
    Grade a results directory into a markdown report.
``lint``
    Run fasealint, the reproducibility and numerical-contract rules.
``analyze``
    Whole-program determinism analysis (call-graph rules).
``obs``
    Inspect run telemetry, profiles, health and flight logs.

``run``, ``quickstart`` and ``replicate`` attach their observers
(telemetry, profiler, stream, flight log, learning health) through one
session, :func:`_observer_session`.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, ContextManager, Iterator, Optional, Sequence, Union

from repro.exceptions import ConfigurationError
from repro.experiments import get_experiment, list_experiments, render_result, save_result

if TYPE_CHECKING:
    from repro.obs.console import Console
    from repro.obs.core import InstrumentationLike


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fasea",
        description=(
            "Reproduce 'Feedback-Aware Social Event-Participant Arrangement' "
            "(SIGMOD 2017)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment ids")

    run = sub.add_parser("run", help="run experiments and save reports")
    run.add_argument("ids", nargs="+", help="experiment ids or 'all'")
    run.add_argument("--out", default="results", help="output directory")
    run.add_argument(
        "--scale",
        default="scaled",
        choices=("scaled", "paper"),
        help="synthetic workload scale (see DESIGN.md)",
    )
    run.add_argument("--seed", type=int, default=0, help="world seed")
    run.add_argument(
        "--horizon", type=int, default=None, help="override the horizon T"
    )
    run.add_argument(
        "--quiet", action="store_true", help="do not print reports to stdout"
    )
    _add_observer_arguments(run, "next to each experiment's reports")
    _add_checkpoint_arguments(
        run,
        "cache each completed work unit under <out>/checkpoints/<id> so "
        "a killed run resumes without repeating finished cells",
    )

    quickstart = sub.add_parser("quickstart", help="run a tiny demonstration")
    _add_observer_arguments(quickstart, "under --out")
    quickstart.add_argument(
        "--flight",
        action="store_true",
        help=(
            "record a decision flight log (decisions.jsonl, implies "
            "--obs); replay with 'fasea obs replay <out>', evaluate "
            "counterfactually with 'fasea obs ope <out> --policy NAME'"
        ),
    )
    quickstart.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for the per-policy runs (0 = all CPUs); "
            "results — including decisions.jsonl — are byte-identical "
            "to --jobs 1"
        ),
    )
    quickstart.add_argument(
        "--out",
        default="results/quickstart",
        help="directory for --obs telemetry artefacts",
    )
    quickstart.add_argument(
        "--quiet", action="store_true", help="suppress the comparison table"
    )
    _add_checkpoint_arguments(
        quickstart,
        "save round-granular cell checkpoints under <out>/checkpoints; a "
        "killed run resumed with --resume produces byte-identical "
        "metrics.json and decisions.jsonl",
    )

    replicate = sub.add_parser(
        "replicate",
        help="re-run the default comparison across several seeds with CIs",
    )
    replicate.add_argument("--seeds", type=int, default=5, help="number of seeds")
    replicate.add_argument(
        "--horizon", type=int, default=3000, help="rounds per run"
    )
    replicate.add_argument(
        "--store", default=None, help="optional SQLite file to log runs into"
    )
    replicate.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for the per-seed cells (0 = all CPUs); "
            "results are identical to --jobs 1, only faster"
        ),
    )
    replicate.add_argument(
        "--flight",
        default=None,
        metavar="DIR",
        help=(
            "record a decision flight log (decisions.jsonl + telemetry) "
            "into DIR; replay with 'fasea obs replay DIR'"
        ),
    )
    replicate.add_argument(
        "--health",
        action="store_true",
        help=(
            "enable learning-health detection (requires --flight DIR: "
            "health.json + alerts.jsonl are written there)"
        ),
    )
    _add_checkpoint_arguments(
        replicate,
        "save per-seed round checkpoints and cache finished seeds under "
        "results/replicate/checkpoints (override with --resume DIR)",
    )
    replicate.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-seed result timeout (pool mode); a wedged cell "
            "terminates the pool and exits with an error"
        ),
    )
    replicate.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help=(
            "rebuild a pool broken by a crashed/killed worker up to N "
            "times and re-run the lost seeds (bit-identical: a fresh "
            "process on the same seed yields the same result)"
        ),
    )
    replicate.add_argument(
        "--keep-going",
        action="store_true",
        help=(
            "graceful degradation: record a crashed seed's failure and "
            "aggregate the surviving seeds instead of aborting the sweep"
        ),
    )

    claims = sub.add_parser(
        "claims", help="re-certify the paper's summary claims"
    )
    claims.add_argument(
        "ids", nargs="*", help="claim ids (C1..C5); default: all"
    )

    export = sub.add_parser(
        "export-damai", help="write the Damai-like dataset to CSV/JSON"
    )
    export.add_argument("--out", default="data/damai", help="output directory")
    export.add_argument(
        "--seed", type=int, default=2016, help="dataset seed (2016 = canonical)"
    )

    diff = sub.add_parser(
        "diff", help="compare two results directories for drift"
    )
    diff.add_argument("baseline", help="baseline results directory")
    diff.add_argument("candidate", help="candidate results directory")
    diff.add_argument(
        "--tolerance", type=float, default=1e-9, help="relative tolerance"
    )

    report = sub.add_parser(
        "report", help="grade a results directory into a markdown report"
    )
    report.add_argument("--results", default="results", help="results directory")
    report.add_argument(
        "--out", default=None, help="write the markdown here (default: stdout)"
    )

    lint = sub.add_parser(
        "lint",
        help="run fasealint (reproducibility & numerical-contract rules)",
    )
    from repro.devtools.lint.cli import add_lint_arguments

    add_lint_arguments(lint)

    analyze = sub.add_parser(
        "analyze",
        help=(
            "whole-program determinism analysis (FAS011-FAS014 call-graph "
            "rules; fails on any finding)"
        ),
    )
    from repro.devtools.analyze.cli import add_analyze_arguments

    add_analyze_arguments(analyze)

    obs = sub.add_parser(
        "obs",
        help="inspect run telemetry (metrics.json / trace.jsonl)",
    )
    from repro.obs.cli import add_obs_arguments

    add_obs_arguments(obs)
    return parser


def _add_observer_arguments(parser: argparse.ArgumentParser, where: str) -> None:
    """Attach the shared ``--obs`` / ``--profile`` / ``--stream`` / ``--health`` flags."""
    parser.add_argument(
        "--obs",
        action="store_true",
        help=(
            f"record run telemetry (metrics.json + trace.jsonl) {where}; "
            "inspect with 'fasea obs'"
        ),
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const=16,
        default=None,
        type=int,
        metavar="N",
        help=(
            "enable the deterministic sampling profiler (implies --obs): "
            "sample every N-th round (default 16) and write profile.json "
            f"+ profile.folded {where}"
        ),
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help=(
            "stream telemetry incrementally while running (implies --obs); "
            "follow with 'fasea obs top <dir>' from another terminal"
        ),
    )
    parser.add_argument(
        "--health",
        action="store_true",
        help=(
            "enable learning-health detection (implies --obs): as each "
            "cell ends, changepoint detectors and the built-in alerts run "
            "over its recorded series; health.json and alerts.jsonl are "
            f"written {where}; inspect with 'fasea obs health <dir>'"
        ),
    )


def _add_checkpoint_arguments(parser: argparse.ArgumentParser, what: str) -> None:
    """Attach the shared ``--checkpoint`` / ``--resume`` pair."""
    from repro.io.checkpoint import DEFAULT_CHECKPOINT_EVERY

    parser.add_argument(
        "--checkpoint",
        nargs="?",
        const=DEFAULT_CHECKPOINT_EVERY,
        default=None,
        type=int,
        metavar="EVERY",
        help=(
            f"enable crash-safe checkpointing ({what}); the optional "
            f"value is the round cadence (default "
            f"{DEFAULT_CHECKPOINT_EVERY})"
        ),
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help=(
            "resume from the checkpoint directory of an interrupted "
            "--checkpoint run (the manifest there is validated against "
            "this invocation); implies --checkpoint with the cadence "
            "recorded in the manifest"
        ),
    )


def _resolve_checkpointing(
    args: argparse.Namespace,
    default_dir: Path,
    payload: dict,
) -> "tuple[Optional[Path], int, bool]":
    """Shared --checkpoint/--resume resolution for run/quickstart/replicate.

    Returns ``(directory, every, resume)`` with ``directory=None`` when
    checkpointing is off.  On a fresh checkpointed run the manifest is
    written; on resume it is validated against ``payload`` (all
    mismatches reported together) and the cadence is taken from it —
    the resumed run must save on exactly the grid the original did.
    """
    from repro.io.checkpoint import check_manifest, write_manifest

    checkpoint_every = getattr(args, "checkpoint", None)
    resume_dir = getattr(args, "resume", None)
    if checkpoint_every is None and resume_dir is None:
        return None, 0, False
    if resume_dir is not None:
        directory = Path(resume_dir)
        stored = check_manifest(directory, payload)
        return directory, int(stored["every"]), True
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ConfigurationError(
            f"--checkpoint cadence must be >= 1 round, got {checkpoint_every}"
        )
    directory = default_dir
    write_manifest(directory, {**payload, "every": int(checkpoint_every)})
    return directory, int(checkpoint_every), False


def _observers_requested(args: argparse.Namespace) -> bool:
    """Whether any observer flag is set (``--flight`` is a switch or a DIR)."""
    return getattr(args, "profile", None) is not None or any(
        getattr(args, flag, None) for flag in ("obs", "stream", "flight", "health")
    )


@contextmanager
def _observer_session(
    args: argparse.Namespace,
    directory: Union[str, Path],
    console: "Console",
    flight_header: Optional[dict] = None,
    label: str = "",
) -> Iterator["InstrumentationLike"]:
    """Attach the run's observers to one registry and install it as current.

    ``--profile``, ``--stream`` and ``--health`` come from ``args``; a
    ``flight_header`` records the decision flight log.  Every artefact
    goes into ``directory``.  With no observer flag set this yields
    :data:`~repro.obs.core.NULL_OBS`.  The stream and flight log are
    closed however the run ends.  On success ``metrics.json`` +
    ``trace.jsonl``, ``health.json`` + ``alerts.jsonl`` (from the merged
    trace) and the profile are persisted, one ``console`` line per
    artefact, each prefixed with ``[label]``.
    """
    from repro.obs.core import NULL_OBS, Instrumentation, use

    if not _observers_requested(args):
        with use(NULL_OBS):
            yield NULL_OBS
        return
    from repro.io.runstore import persist_run_telemetry
    from repro.obs.flight import FlightRecorder
    from repro.obs.health import ALERTS_FILENAME, HEALTH_FILENAME, persist_health
    from repro.obs.profile import Profile, ProfileConfig, write_profile
    from repro.obs.stream import StreamingSink

    obs = Instrumentation()
    profile_every = getattr(args, "profile", None)
    try:
        if profile_every is not None:
            obs.profile_config = ProfileConfig(sample_every=profile_every)
        if getattr(args, "stream", False):
            obs.stream_sink = StreamingSink(directory, obs)
        if flight_header is not None:
            obs.flight_recorder = FlightRecorder(directory, run=flight_header)
        if getattr(args, "health", False):
            obs.health = True
            # A crash leaves no health logs of this run, so none of a
            # previous run may stand beside its streamed trace.
            for name in (HEALTH_FILENAME, ALERTS_FILENAME):
                (Path(directory) / name).unlink(missing_ok=True)
        with use(obs):
            yield obs
    finally:
        if obs.stream_sink is not None:
            obs.stream_sink.close()
        if obs.flight_recorder is not None:
            obs.flight_recorder.close()
    prefix = f"[{label}] " if label else ""
    paths = persist_run_telemetry(directory, obs)
    console.info(f"{prefix}telemetry in {paths['metrics'].parent}")
    if obs.flight_recorder is not None:
        console.info(f"{prefix}decision flight log in {obs.flight_recorder.path}")
    if obs.health:
        health_path, events, alerts = persist_health(directory, obs.trace_records())
        console.info(
            f"{prefix}health log in {health_path} ({events} events, {alerts} alerts)"
        )
    if profile_every is not None:
        profile_paths = write_profile(
            directory, Profile.from_trace_records(obs.trace_records())
        )
        console.info(f"{prefix}profile in {profile_paths['profile']}")


def _run_experiments(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from repro.obs.console import Console

    console = Console(quiet=args.quiet)
    ids = list_experiments() if "all" in args.ids else args.ids
    outdir = Path(args.out)
    ckpt_base, _, resuming = _resolve_checkpointing(
        args,
        outdir / "checkpoints",
        {
            "command": "run",
            "ids": sorted(ids),
            "scale": args.scale,
            "seed": args.seed,
            "horizon": args.horizon,
        },
    )
    for experiment_id in ids:
        runner = get_experiment(experiment_id)
        kwargs = {"scale": args.scale, "seed": args.seed}
        if args.horizon is not None and experiment_id.startswith("fig"):
            if experiment_id == "fig10":
                kwargs["regret_horizon"] = args.horizon
            else:
                kwargs["horizon"] = args.horizon
        if experiment_id in ("fig10", "tab7"):
            # The real dataset has its own canonical seed.
            kwargs["seed"] = 2016 if args.seed == 0 else args.seed
        started = time.perf_counter()
        checkpoint_scope: ContextManager[object] = nullcontext()
        if ckpt_base is not None:
            from repro.io.checkpoint import (
                ExecutorCheckpoint,
                executor_checkpoint_scope,
            )

            # Unit-granular caching: every run_work_units call inside
            # the experiment (grid sweeps, replication cells) caches
            # its completed units under checkpoints/<id>, so a resumed
            # run replays finished cells bit-identically.
            checkpoint_scope = executor_checkpoint_scope(
                ExecutorCheckpoint(ckpt_base / experiment_id, resume=resuming)
            )
        # save_result writes into outdir/<id>/ — the observers write
        # there too, so the live artefacts and the final ones share a home.
        with _observer_session(
            args, outdir / experiment_id, console, label=experiment_id
        ) as obs:
            with checkpoint_scope, obs.span("experiment", experiment_id=experiment_id):
                result = runner(**kwargs)
            elapsed = time.perf_counter() - started
        directory = save_result(result, outdir)
        console.result(render_result(result))
        console.info(f"[{experiment_id}] saved to {directory} ({elapsed:.1f}s)")
    return 0


#: The quickstart suite: OPT first (the regret reference), then the
#: paper's five policies, all sharing one policy seed.
_QUICKSTART_POLICIES = ("UCB", "TS", "eGreedy", "Exploit", "Random")
_QUICKSTART_HORIZON = 2000
_QUICKSTART_RUN_SEED = 0
_QUICKSTART_POLICY_SEED = 7


def _quickstart(args: argparse.Namespace) -> int:
    from repro import SyntheticConfig
    from repro.obs.console import Console
    from repro.parallel import (
        OPT_KEY,
        PolicyRunCell,
        run_policy_run_cell,
        run_work_units,
    )

    console = Console(quiet=args.quiet)
    config = SyntheticConfig.scaled_default(seed=42)
    ckpt_dir, ckpt_every, resuming = _resolve_checkpointing(
        args,
        Path(args.out) / "checkpoints",
        {
            "command": "quickstart",
            "horizon": _QUICKSTART_HORIZON,
            "run_seed": _QUICKSTART_RUN_SEED,
            "policy_seed": _QUICKSTART_POLICY_SEED,
            "policies": list(_QUICKSTART_POLICIES),
            "flight": args.flight,
            "obs": _observers_requested(args),
        },
    )
    names = (OPT_KEY, *_QUICKSTART_POLICIES)
    flight_header = None
    if args.flight:
        from repro.obs.flight import make_run_header

        specs = [{"name": OPT_KEY}] + [
            {"name": name, "seed": _QUICKSTART_POLICY_SEED}
            for name in _QUICKSTART_POLICIES
        ]
        flight_header = make_run_header(
            config, _QUICKSTART_HORIZON, _QUICKSTART_RUN_SEED, specs
        )
    executor_checkpoint = None
    if ckpt_dir is not None:
        from repro.io.checkpoint import CellCheckpointSpec, ExecutorCheckpoint

        executor_checkpoint = ExecutorCheckpoint(ckpt_dir, resume=resuming)
    cells = [
        PolicyRunCell(
            config=config,
            policy_name=name,
            horizon=_QUICKSTART_HORIZON,
            run_seed=_QUICKSTART_RUN_SEED,
            policy_seed=_QUICKSTART_POLICY_SEED,
            checkpoint=(
                CellCheckpointSpec(
                    directory=str(ckpt_dir),
                    key=name,
                    every=ckpt_every,
                    resume=resuming,
                )
                if ckpt_dir is not None
                else None
            ),
        )
        for name in names
    ]
    with _observer_session(args, args.out, console, flight_header):
        histories = dict(
            zip(
                names,
                run_work_units(
                    run_policy_run_cell,
                    cells,
                    jobs=args.jobs,
                    checkpoint=executor_checkpoint,
                ),
            )
        )
    opt_history = histories[OPT_KEY]
    console.result("policy     accept_ratio  total_reward  regret_vs_OPT")
    for name in _QUICKSTART_POLICIES:
        history = histories[name]
        regret = opt_history.total_reward - history.total_reward
        console.result(
            f"{name:<10} {history.overall_accept_ratio:>12.3f} "
            f"{history.total_reward:>13.0f} {regret:>14.0f}"
        )
    return 0


def _replicate(args: argparse.Namespace) -> int:
    from repro.analysis import replicate_policies
    from repro.bandits import POLICY_NAMES
    from repro.datasets.synthetic import SyntheticConfig
    from repro.experiments.reporting import format_table
    from repro.io import RunStore
    from repro.obs.console import Console

    config = SyntheticConfig.scaled_default().with_overrides(horizon=args.horizon)
    if args.health and not args.flight:
        raise ConfigurationError(
            "--health requires --flight DIR (health.json and "
            "alerts.jsonl are written into the flight directory)"
        )
    ckpt_dir, ckpt_every, resuming = _resolve_checkpointing(
        args,
        Path("results/replicate/checkpoints"),
        {
            "command": "replicate",
            "seeds": args.seeds,
            "horizon": args.horizon,
            "flight": bool(args.flight),
        },
    )
    flight_header = None
    if args.flight:
        from repro.obs.flight import make_replication_header

        flight_header = make_replication_header(
            config, args.horizon, range(args.seeds), POLICY_NAMES, policy_seed=1
        )
    store = RunStore(args.store) if args.store else None
    try:
        with _observer_session(args, args.flight, Console(), flight_header):
            result = replicate_policies(
                config,
                seeds=range(args.seeds),
                horizon=args.horizon,
                store=store,
                jobs=args.jobs,
                timeout=args.timeout,
                retries=args.retries,
                keep_going=args.keep_going,
                checkpoint_dir=ckpt_dir,
                checkpoint_every=ckpt_every or 1,
                resume=resuming,
            )
    finally:
        if store is not None:
            store.close()
    if result.failures:
        for seed, failure in sorted(result.failures.items()):
            print(
                f"seed {seed} FAILED ({failure.error_type}): "
                f"{failure.message}",
                file=sys.stderr,
            )
        print(
            f"{len(result.failures)} of {args.seeds} seeds failed; "
            "aggregates cover the surviving seeds only",
            file=sys.stderr,
        )
    rows = [
        [policy, f"{mean:.3f}", f"[{low:.3f}, {high:.3f}]",
         "-" if regret is None else f"{regret:.0f}"]
        for policy, mean, low, high, regret in result.summary_rows()
    ]
    print(
        format_table(
            ["policy", "accept_ratio", "95% CI", "mean regret"], rows
        )
    )
    ts_vs_random = result.dominates("TS", "Random")
    ucb_vs_ts = result.dominates("UCB", "TS")
    print(
        f"\nUCB > TS on every seed: {ucb_vs_ts}; "
        f"TS > Random on every seed: {ts_vs_random}"
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigurationError as error:
        print(f"fasea {args.command}: {error}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        print("\n".join(list_experiments()))
        return 0
    if args.command == "run":
        return _run_experiments(args)
    if args.command == "quickstart":
        return _quickstart(args)
    if args.command == "replicate":
        return _replicate(args)
    if args.command == "claims":
        return _claims(args)
    if args.command == "export-damai":
        return _export_damai(args)
    if args.command == "diff":
        return _diff(args)
    if args.command == "report":
        return _report(args)
    if args.command == "lint":
        return _lint(args)
    if args.command == "analyze":
        return _analyze(args)
    if args.command == "obs":
        return _obs(args)
    return 1


def _obs(args: argparse.Namespace) -> int:
    from repro.obs.cli import run_obs

    return run_obs(args)


def _lint(args: argparse.Namespace) -> int:
    from repro.devtools.lint.cli import run_lint

    return run_lint(args)


def _analyze(args: argparse.Namespace) -> int:
    from repro.devtools.analyze.cli import run_analyze

    return run_analyze(args)


def _report(args: argparse.Namespace) -> int:
    from repro.experiments.report_gen import grade_results, render_report

    findings = grade_results(args.results)
    text = render_report(findings, args.results)
    if args.out:
        Path(args.out).write_text(text)
        print(f"report written to {args.out}", file=sys.stderr)
    else:
        print(text, end="")
    return 0 if all(f.holds is not False for f in findings) else 1


def _diff(args: argparse.Namespace) -> int:
    from repro.experiments.diffcheck import compare_results_dirs, summarize_drift

    drifts, problems = compare_results_dirs(
        args.baseline, args.candidate, tolerance=args.tolerance
    )
    print(summarize_drift(drifts, problems), end="")
    return 1 if (drifts or problems) else 0


def _export_damai(args: argparse.Namespace) -> int:
    from repro.datasets.damai import load_damai
    from repro.datasets.export import export_damai

    dataset = load_damai(args.seed)
    paths = export_damai(dataset, args.out)
    for name, path in sorted(paths.items()):
        print(f"{name:<12} {path}")
    return 0


def _claims(args: argparse.Namespace) -> int:
    from repro.experiments.claims import run_claims

    results = run_claims(only=args.ids or None)
    failures = 0
    for result in results:
        verdict = "REPRODUCED" if result.holds else "NOT REPRODUCED"
        if not result.holds:
            failures += 1
        print(f"[{result.claim_id}] {verdict} ({result.seconds:.1f}s)")
        print(f"    claim:    {result.statement}")
        print(f"    evidence: {result.evidence}")
    print(f"\n{len(results) - failures}/{len(results)} claims reproduced")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
