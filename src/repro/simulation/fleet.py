"""The FASEA round loop: one policy or many, on one shared input stream.

The paper's Algorithms 1, 3 and 4 share one reveal → select → commit →
observe loop (lines 3-14).  It lives here once, in :func:`play_fleet`:
each round is read **once** from a :class:`RoundSource` — the user,
the context matrix and a per-event accept mask — and every policy
steps against it in lockstep, each with its own platform (capacities
evolve per policy, as they must).  Context generation (|V| x d
Gaussians per round) would otherwise dominate the wall clock of every
multi-policy experiment.

The paper's four settings are four sources: the generated
:class:`~repro.simulation.environment.RoundStream`, a recorded trace,
the Damai replay and the Remark 1 roster.  Remark 2's rotating event
sets are a policy wrapper, so the loop has no branch for them.

:func:`~repro.simulation.runner.run_policy` is a fleet of one;
:func:`run_policy_fleet` runs the replication, grid-sweep,
synthetic-figure and claim suites, whatever ``--jobs`` says (the
executor only decides where each cell's fleet runs).  Because every
policy reads the same common-random-numbers stream, a policy's history
in a fleet is *bit-for-bit identical* to its run on its own with the
same ``(world, run_seed)`` — ``tests/test_fleet.py`` asserts that, and
``tests/test_runner.py`` checks the loop against an independent
reference loop on :class:`~repro.simulation.environment.RoundStream`
and :class:`~repro.ebsn.platform.Platform`.  Each history's
``avg_round_time`` (select + observe) is the per-round time Tables 5-6
and claim C4 report.

Telemetry, the span profiler, streaming flushes, the flight recorder
and round checkpoints only observe: none touches an RNG stream, so
results are bit-identical with them on or off.
"""

from __future__ import annotations

import time
from typing import (
    TYPE_CHECKING, Dict, FrozenSet, List, Mapping, Optional, Protocol, Sequence, Tuple,
)

import numpy as np

from repro.bandits.base import Policy, RoundView
from repro.datasets.synthetic import SyntheticWorld
from repro.ebsn.events import EventStore
from repro.ebsn.ledger import LedgerEntry
from repro.ebsn.platform import Platform
from repro.ebsn.users import User
from repro.exceptions import ConfigurationError
from repro.metrics.kendall import kendall_tau
from repro.obs.core import InstrumentationLike, MetricsSnapshot, current
from repro.obs.flight import decision_record
from repro.obs.health import (
    CAPACITY_EXHAUSTED_METRIC,
    REWARD_METRIC,
    THETA_DRIFT_METRIC,
    record_fleet_health,
    series_marks,
)
from repro.simulation.environment import (
    ENV_ACCEPTED_EVENTS_METRIC,
    ENV_ARRANGED_EVENTS_METRIC,
    ENV_COMMITS_METRIC,
    ENV_ROUNDS_METRIC,
    RoundStream,
)
from repro.simulation.history import History, default_checkpoints

if TYPE_CHECKING:  # import cycle: repro.io.__init__ reaches back here
    from repro.io.checkpoint import CellCheckpointSpec

#: Per-policy emit-site metric names (FAS016: names are constants so
#: readers cannot silently miss a typo'd emit site).
SELECT_SECONDS_METRIC = "select_seconds"
OBSERVE_SECONDS_METRIC = "observe_seconds"
ROUNDS_METRIC = "rounds"


def _record_policy_round(
    obs: InstrumentationLike,
    policy: Policy,
    theta_true: Optional[np.ndarray],
    store: EventStore,
    entry: LedgerEntry,
    time_step: int,
    select_seconds: float,
    observe_seconds: float,
) -> None:
    """Fold one instrumented policy step into ``obs``.

    Counts the step in the ``env.*`` counters (one round, one commit,
    its arranged and accepted events), records per-policy
    select/observe timings, the per-round reward series, the estimate
    drift ``||theta^ - theta||`` (skipped without a model or a true theta),
    and — the paper's Section 6.2 diagnostic — a capacity-exhaustion
    event whenever an accepted registration drains an event's last
    seat.  Never touches any RNG stream.
    """
    obs.counter(ENV_ROUNDS_METRIC).inc()
    obs.counter(ENV_COMMITS_METRIC).inc()
    obs.counter(ENV_ARRANGED_EVENTS_METRIC).inc(len(entry.arranged))
    obs.counter(ENV_ACCEPTED_EVENTS_METRIC).inc(len(entry.accepted))
    obs.timer(policy.obs_name(SELECT_SECONDS_METRIC)).observe(select_seconds)
    obs.timer(policy.obs_name(OBSERVE_SECONDS_METRIC)).observe(observe_seconds)
    reward = float(entry.reward)
    obs.series(policy.obs_name(REWARD_METRIC)).append(time_step, reward)
    estimate = policy.theta_estimate() if theta_true is not None else None
    if estimate is not None:
        drift = float(np.linalg.norm(estimate - theta_true))
        obs.series(policy.obs_name(THETA_DRIFT_METRIC)).append(time_step, drift)
    label = policy._obs_label or policy.name
    for event_id in entry.accepted:
        if store.remaining(event_id) <= 0.0:
            obs.series(policy.obs_name(CAPACITY_EXHAUSTED_METRIC)).append(
                time_step, float(event_id)
            )
            obs.event(
                CAPACITY_EXHAUSTED_METRIC,
                policy=label,
                event_id=int(event_id),
                time_step=time_step,
            )


def open_run_checkpointer(
    spec: "CellCheckpointSpec",
    obs: InstrumentationLike,
    recording: bool,
    flight: Optional[object],
) -> object:
    """Build a cell's :class:`~repro.io.checkpoint.RunCheckpointer`.

    Rejects a disk-backed flight recorder: the resumed process would
    append to a log that already holds the pre-crash records.
    Checkpointing requires an in-memory buffer whose contents travel
    inside the checkpoint and are replayed exactly — which is what the
    executor's outcome path provides.
    """
    from repro.io.checkpoint import RunCheckpointer

    if recording and not hasattr(flight, "records"):
        raise ConfigurationError(
            "round checkpointing requires an in-memory flight buffer "
            f"(got {type(flight).__name__}); route the run through "
            "run_work_units, which records each cell into a FlightBuffer"
        )
    return RunCheckpointer(spec)


class RoundSource(Protocol):
    """What :func:`play_fleet` reads rounds from."""

    @property
    def theta(self) -> Optional[np.ndarray]:
        """The true preference vector of the drift telemetry (``None``: no drift)."""

    def make_platform(self) -> Platform:
        """A fresh platform for one policy."""

    def reveal(self, t: int) -> Tuple[User, np.ndarray, np.ndarray]:
        """Round ``t``'s user, ``|V| x d`` contexts and per-event accept mask."""


#: Figure 2's diagnostic: rounds to score, evaluation contexts, true scores.
KendallProbe = Tuple[FrozenSet[int], np.ndarray, np.ndarray]
_NO_KENDALL: KendallProbe = (frozenset(), np.zeros((0, 0)), np.zeros(0))


def kendall_probe(
    world: SyntheticWorld, horizon: int, track: bool,
    checkpoints: Optional[Sequence[int]], eval_contexts: Optional[np.ndarray],
) -> Optional[KendallProbe]:
    """The probe the runners' Kendall arguments ask for; ``None`` if untracked."""
    if not track:
        return None
    if eval_contexts is None:
        eval_contexts = world.evaluation_contexts()
    grid = default_checkpoints(horizon) if checkpoints is None else checkpoints
    return frozenset(grid), eval_contexts, world.expected_rewards(eval_contexts)


def run_policy_fleet(
    policies: Dict[str, Policy],
    world: SyntheticWorld,
    horizon: Optional[int] = None,
    run_seed: int = 0,
    track_kendall: bool = False,
    kendall_checkpoints: Optional[Sequence[int]] = None,
    eval_contexts: Optional[np.ndarray] = None,
    obs: Optional[InstrumentationLike] = None,
    checkpoint: Optional["CellCheckpointSpec"] = None,
) -> Dict[str, History]:
    """Play every policy on one shared stream; return histories by name.

    The dict keys become the ``policy_name`` of each returned history
    (useful when running several differently-parametrised instances of
    the same algorithm).  They also label the telemetry (``obs``
    defaults to :func:`repro.obs.core.current`): metrics appear as
    ``policy.<key>.*`` so two TS instances with different widths stay
    distinguishable.  Every other argument means what it means for
    :func:`~repro.simulation.runner.run_policy`, applied to each policy;
    see :func:`play_fleet` for how the loop treats them.
    """
    horizon = horizon if horizon is not None else world.config.horizon
    return play_fleet(
        policies, RoundStream(world, run_seed), horizon,
        kendall=kendall_probe(world, horizon, track_kendall, kendall_checkpoints, eval_contexts),
        obs=obs, checkpoint=checkpoint,
        span_name="run_policy_fleet",
        span_attrs={"policies": list(policies), "horizon": horizon, "run_seed": run_seed},
    )


def play_fleet(
    policies: Dict[str, Policy],
    source: RoundSource,
    horizon: int,
    *,
    span_name: str,
    span_attrs: Mapping[str, object],
    kendall: Optional[KendallProbe] = None,
    obs: Optional[InstrumentationLike] = None,
    checkpoint: Optional["CellCheckpointSpec"] = None,
) -> Dict[str, History]:
    """The round loop: play every policy for ``horizon`` rounds of ``source``.

    Each policy steps on its own ``source.make_platform()`` against the
    round ``source.reveal(t)``, read once.  The run sits in one span,
    ``span_name`` with ``span_attrs``.  ``kendall`` records each
    policy's tau at the probe's rounds the run reaches, in round order.
    Each policy is labelled by its dict key in what the observers on
    ``obs`` (default :func:`repro.obs.core.current`) record:

    * telemetry, when ``obs`` is enabled: per-policy metrics, and with
      ``obs.health`` one :func:`~repro.obs.health.record_fleet_health`
      pass over the series this call recorded once the last round ends;
    * ``obs.profile_config``, when enabled: on sampled rounds a
      ``round`` span holding a ``step:<key>`` span per policy, each
      with ``select``/``commit``/``observe`` phase spans;
    * ``obs.stream_sink``, when enabled: offered one ``maybe_flush``
      per round;
    * ``obs.flight_recorder``, even on a disabled registry: one
      ``decision`` record per policy step.

    Round checkpoints save the shared stream positions
    once and each policy's state under a per-policy prefix; they need a
    :class:`~repro.simulation.environment.RoundStream` source.

    Each history's ``avg_round_time`` is that policy's own select +
    observe seconds per round; the shared reveal and the platform
    commit are not part of it.
    """
    if not policies:
        raise ConfigurationError("need at least one policy")
    if horizon < 1:
        raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
    obs = obs if obs is not None else current()
    instrumented = obs.enabled
    profile = obs.profile_config
    stream = obs.stream_sink
    flight = obs.flight_recorder
    recording = flight is not None
    profiling = instrumented and profile is not None
    if instrumented or recording:
        # Recording needs the label too: the "policy" field of each
        # decision record is the fleet key, not the algorithm name.
        for name, policy in policies.items():
            policy.bind_obs(obs, label=name)
            if recording:
                policy.enable_decision_capture(True)

    platforms = {name: source.make_platform() for name in policies}
    rewards = {name: np.zeros(horizon) for name in policies}
    arranged_counts = {name: np.zeros(horizon) for name in policies}
    # Select + observe seconds per policy.
    elapsed = {name: 0.0 for name in policies}

    taus: Dict[str, List[float]] = {name: [] for name in policies}
    checkpoint_set, eval_contexts, true_scores = kendall or _NO_KENDALL

    # Taken before a resume restores the saved series, so the health
    # pass reads this call's rounds from round 1 either way.
    marks = series_marks(obs, list(policies)) if instrumented and obs.health else None
    start_round = 0
    checkpointer = None
    if checkpoint is not None:
        from repro.io import checkpoint as ckpt

        if not isinstance(source, RoundStream):
            raise ConfigurationError("round checkpoints cover the generated stream only")
        rounds = source
        checkpointer = open_run_checkpointer(checkpoint, obs, recording, flight)
        stored = checkpointer.load()
        if stored is not None:
            saved = ("obs" in stored, "flight" in stored)
            if saved != (instrumented, recording):
                raise ConfigurationError(
                    f"round checkpoint {checkpoint.key!r} in {checkpoint.directory} "
                    f"was saved with (telemetry, flight) = {saved}, but this run "
                    f"records {(instrumented, recording)}; resume under the "
                    "telemetry setting of the run that wrote it"
                )
            start_round = int(stored["t"][0])
            if start_round > horizon:
                raise ConfigurationError(
                    f"checkpoint is at round {start_round} but the run's "
                    f"horizon is only {horizon}"
                )
            rounds.restore_state(ckpt.unpack_state("stream.", stored))
            for name, policy in policies.items():
                state = ckpt.unpack_state(f"p.{name}.", stored)
                ckpt.restore_policy_state(policy, state)
                platforms[name].restore_state(ckpt.unpack_state(f"plat.{name}.", stored))
                rewards[name][:start_round] = state["rewards"]
                arranged_counts[name][:start_round] = state["arranged"]
                elapsed[name] = state["elapsed"]
                taus[name][:] = state["k_taus"]
            if instrumented:
                # Merging into the fresh registry reproduces the saved
                # snapshot exactly (counters add from zero, series
                # concatenate onto nothing) — the resume marker is a
                # trace event only, so metrics.json stays byte-
                # comparable to an uninterrupted run's.
                obs.merge_snapshot(
                    MetricsSnapshot.from_dict(ckpt.unpack_json(stored["obs"]))
                )
                obs.merge_trace(ckpt.unpack_json(stored["trace"]))
                obs.event(ckpt.CHECKPOINT_RESUMED_EVENT, round=start_round)
            if recording:
                flight.records[:] = ckpt.unpack_json(stored["flight"])

    def _save_checkpoint(round_index: int) -> None:
        """Capture shared streams + every policy's state at a boundary.

        The saves counter is incremented *before* the snapshot is
        captured, so the count rides inside its own checkpoint and a
        resumed run reports exactly what an uninterrupted one does.
        """
        if instrumented:
            obs.counter(ckpt.CHECKPOINT_SAVES_METRIC).inc()
        arrays = {"t": np.array([round_index], dtype=np.int64)}
        arrays.update(ckpt.pack_state("stream.", rounds.state_dict()))
        for name, policy in policies.items():
            run_state = {
                **ckpt.capture_policy_state(policy),
                "rewards": rewards[name][:round_index].copy(),
                "arranged": arranged_counts[name][:round_index].copy(),
                "elapsed": elapsed[name],
                "k_taus": taus[name],
            }
            arrays.update(ckpt.pack_state(f"p.{name}.", run_state))
            arrays.update(ckpt.pack_state(f"plat.{name}.", platforms[name].state_dict()))
        if instrumented:
            arrays["obs"] = ckpt.pack_json(obs.snapshot().to_dict())
            arrays["trace"] = ckpt.pack_json(obs.trace_records())
        if recording:
            arrays["flight"] = ckpt.pack_json(list(flight.records))
        checkpointer.save(arrays)
        if instrumented:
            obs.event(ckpt.CHECKPOINT_SAVED_EVENT, round=round_index)

    def _step(
        name: str, policy: Policy, t: int, user, contexts, accepts, sampled: bool
    ) -> None:
        """One policy's reveal-select-commit-observe against round ``t``."""
        platform = platforms[name]
        view = RoundView(
            time_step=t,
            user=user,
            contexts=contexts,
            remaining_capacities=platform.store.remaining_capacities,
            conflicts=platform.conflicts,
        )
        # The commit phase's feedback is a scalar lookup into the mask:
        # arrangements hold <= c_u events, so that beats fancy-indexing
        # round trips, and it builds no per-step list or dict (in the
        # tracemalloc runs of Tables 5-6 each one costs a line-table scan).
        select_start = time.perf_counter()
        if sampled:
            with obs.span("select"):
                arrangement = policy.select(view)
            select_end = time.perf_counter()
            with obs.span("commit"):
                entry = platform.commit(user, arrangement, feedback=accepts.__getitem__)
            reward_values = [1.0 if accepts[event_id] else 0.0 for event_id in arrangement]
            observe_start = time.perf_counter()
            with obs.span("observe"):
                policy.observe(view, arrangement, reward_values)
            observe_end = time.perf_counter()
        else:
            arrangement = policy.select(view)
            select_end = time.perf_counter()
            entry = platform.commit(user, arrangement, feedback=accepts.__getitem__)
            reward_values = [1.0 if accepts[event_id] else 0.0 for event_id in arrangement]
            observe_start = time.perf_counter()
            policy.observe(view, arrangement, reward_values)
            observe_end = time.perf_counter()
        elapsed[name] += (select_end - select_start) + (observe_end - observe_start)
        if recording:
            flight.record(
                decision_record(policy, view, arrangement, reward_values)
            )
        if instrumented:
            _record_policy_round(
                obs, policy, source.theta, platform.store, entry, t,
                select_end - select_start, observe_end - observe_start,
            )
        rewards[name][t - 1] = entry.reward
        arranged_counts[name][t - 1] = len(arrangement)
        if t in checkpoint_set:
            taus[name].append(
                kendall_tau(policy.ranking_scores(eval_contexts, t), true_scores)
            )

    # Built once: the round loop runs in this long frame, where (in the
    # tracemalloc runs of Tables 5-6) every allocation, such as a fresh
    # ``policies.items()`` view, pays a line-table scan.
    fleet = tuple(policies.items())
    with obs.span(span_name, **span_attrs):
        for t in range(start_round + 1, horizon + 1):
            user, contexts, accepts = source.reveal(t)
            if profiling and profile.samples(t):
                # Sampled round: same work, wrapped in profiler spans.
                # The grid is round-indexed (t % sample_every == 0), so
                # two runs of one seed sample identical stacks.
                with obs.span("round", t=t):
                    for name, policy in fleet:
                        with obs.span(f"step:{name}"):
                            _step(name, policy, t, user, contexts, accepts, True)
            else:
                for name, policy in fleet:
                    _step(name, policy, t, user, contexts, accepts, False)
            if instrumented and stream is not None:
                stream.maybe_flush(1)
            # Save strictly after every policy's step (including the
            # Kendall diagnostic, which for TS draws from the policy
            # RNG): the captured positions are the ones round t+1
            # actually starts from.
            if checkpointer is not None and t < horizon and checkpointer.due(t):
                _save_checkpoint(t)

    if checkpointer is not None:
        # The cell completed; the executor's unit cache takes over, so
        # the round slot would only invite a stale mid-run resume.
        checkpointer.clear()
    if marks is not None:
        num_events = len(next(iter(platforms.values())).store)
        record_fleet_health(obs, list(policies), marks, num_events)

    if recording:
        for policy in policies.values():
            policy.enable_decision_capture(False)
    if instrumented:
        for policy in policies.values():
            obs.counter(policy.obs_name(ROUNDS_METRIC)).inc(horizon)
    steps = np.asarray([t for t in range(1, horizon + 1) if t in checkpoint_set], dtype=int)
    return {
        name: History(
            policy_name=name,
            rewards=rewards[name],
            arranged=arranged_counts[name],
            avg_round_time=elapsed[name] / horizon,
            kendall_steps=steps if kendall is not None else None,
            kendall_taus=np.asarray(taus[name], dtype=float) if kendall is not None else None,
        )
        for name in policies
    }
