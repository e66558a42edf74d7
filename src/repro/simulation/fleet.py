"""Fleet runner: many policies, one shared input stream.

``run_policy`` replays the environment streams once *per policy*;
context generation (|V| x d Gaussians per round) would then dominate
the wall clock of every multi-policy experiment.  The fleet runner
draws each round's user, context matrix and acceptance thresholds
**once** and steps every policy against them in lockstep, each with
its own platform (capacities evolve per policy, as they must).  The
replication, grid-sweep, synthetic-figure and claim suites all run
through here, whatever ``--jobs`` says; the executor only decides
where each cell's fleet runs.

The streams are constructed exactly as
:class:`~repro.simulation.environment.FaseaEnvironment` constructs
them, so a fleet run is *bit-for-bit identical* to running each policy
individually with the same ``(world, run_seed)`` —
``tests/test_fleet.py`` asserts that equivalence.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.bandits.base import Policy, RoundView
from repro.datasets.synthetic import SyntheticWorld
from repro.ebsn.platform import Platform
from repro.exceptions import ConfigurationError
from repro.linalg.sampling import capture_rng_state, restore_rng_state
from repro.metrics.kendall import kendall_tau
from repro.obs.core import InstrumentationLike, MetricsSnapshot, current
from repro.obs.flight import decision_record
from repro.obs.profile import ProfileConfig
from repro.obs.stream import StreamingSink
from repro.simulation.history import History, default_checkpoints
from repro.simulation.runner import open_run_checkpointer, record_policy_round

if TYPE_CHECKING:  # import cycle: repro.io.__init__ reaches back here
    from repro.io.checkpoint import CellCheckpointSpec


def run_policy_fleet(
    policies: Dict[str, Policy],
    world: SyntheticWorld,
    horizon: Optional[int] = None,
    run_seed: int = 0,
    track_kendall: bool = False,
    kendall_checkpoints: Optional[Sequence[int]] = None,
    eval_contexts: Optional[np.ndarray] = None,
    obs: Optional[InstrumentationLike] = None,
    profile: Optional[ProfileConfig] = None,
    stream: Optional[StreamingSink] = None,
    flight: Optional[object] = None,
    checkpoint: Optional["CellCheckpointSpec"] = None,
) -> Dict[str, History]:
    """Play every policy on one shared stream; return histories by name.

    The dict keys become the ``policy_name`` of each returned history
    (useful when running several differently-parametrised instances of
    the same algorithm).  They also label the telemetry (``obs``
    defaults to :func:`repro.obs.core.current`): metrics appear as
    ``policy.<key>.*`` so two TS instances with different widths stay
    distinguishable.

    ``profile`` enables the deterministic round-sampling profiler: on
    sampled rounds every policy's step runs inside a ``step:<key>``
    span (nested under the round's ``round`` span), so folded stacks
    attribute self time per policy.  ``stream`` is offered one flush
    opportunity per round.  Both observe only — arrangements and
    rewards are bit-identical with them on or off.

    ``checkpoint`` enables round-granular crash recovery exactly as in
    :func:`~repro.simulation.runner.run_policy`, capturing the shared
    input streams once plus every policy's learned/RNG/platform state
    under per-policy prefixes.  A resumed fleet is bit-identical to an
    uninterrupted one.

    Each history's ``avg_round_time`` is that policy's own select +
    observe seconds per round, as in ``run_policy``; the shared draws
    and the platform commit are not part of it.
    """
    if not policies:
        raise ConfigurationError("need at least one policy")
    horizon = horizon if horizon is not None else world.config.horizon
    obs = obs if obs is not None else current()
    instrumented = obs.enabled
    if profile is None:
        profile = getattr(obs, "profile_config", None)
    if stream is None:
        stream = getattr(obs, "stream_sink", None)
    if flight is None:
        flight = getattr(obs, "flight_recorder", None)
    recording = flight is not None
    profiling = instrumented and profile is not None
    engine = getattr(obs, "alert_engine", None) if instrumented else None
    if instrumented or recording:
        # Recording needs the label too: the "policy" field of each
        # decision record is the fleet key, not the algorithm name.
        for name, policy in policies.items():
            policy.bind_obs(obs, label=name)
            if recording:
                policy.enable_decision_capture(True)

    # Mirror FaseaEnvironment's stream construction exactly.
    root = np.random.SeedSequence(entropy=run_seed, spawn_key=(world.config.seed,))
    arrival_seq, context_seq, feedback_seq = root.spawn(3)
    arrivals = world.make_arrivals(np.random.default_rng(arrival_seq))
    context_rng = np.random.default_rng(context_seq)
    feedback_rng = np.random.default_rng(feedback_seq)
    sampler = world.make_context_sampler()

    platforms = {name: Platform(world.make_store(), world.conflicts) for name in policies}
    rewards = {name: np.zeros(horizon) for name in policies}
    arranged_counts = {name: np.zeros(horizon) for name in policies}
    # Select + observe seconds per policy, as run_policy accumulates them.
    elapsed = {name: 0.0 for name in policies}

    checkpoints: List[int] = []
    checkpoint_set = frozenset()
    taus: Dict[str, List[float]] = {name: [] for name in policies}
    true_scores: Optional[np.ndarray] = None
    if track_kendall:
        checkpoints = (
            list(kendall_checkpoints)
            if kendall_checkpoints is not None
            else default_checkpoints(horizon)
        )
        checkpoint_set = frozenset(checkpoints)
        if eval_contexts is None:
            eval_contexts = world.evaluation_contexts()
        true_scores = world.expected_rewards(eval_contexts)

    num_events = len(world.capacities)

    start_round = 0
    checkpointer = None
    if checkpoint is not None:
        from repro.io.checkpoint import (
            CHECKPOINT_RESUMED_EVENT,
            CHECKPOINT_SAVED_EVENT,
            CHECKPOINT_SAVES_METRIC,
            capture_policy_state,
            pack_json,
            pack_state,
            restore_policy_state,
            unpack_json,
            unpack_state,
        )

        checkpointer = open_run_checkpointer(checkpoint, obs, recording, flight)
        stored = checkpointer.load()
        if stored is not None:
            start_round = int(stored["t"][0])
            if start_round > horizon:
                raise ConfigurationError(
                    f"checkpoint is at round {start_round} but the run's "
                    f"horizon is only {horizon}"
                )
            shared = unpack_state("stream.", stored)
            arrivals.restore_state(
                {
                    key[len("arrivals_") :]: value
                    for key, value in shared.items()
                    if key.startswith("arrivals_")
                }
            )
            restore_rng_state(context_rng, shared["context_rng"])
            restore_rng_state(feedback_rng, shared["feedback_rng"])
            for name, policy in policies.items():
                prefix = f"p.{name}."
                restore_policy_state(
                    policy,
                    {
                        key[len(prefix) :]: value
                        for key, value in stored.items()
                        if key.startswith(prefix)
                    },
                )
                platforms[name].restore_state(
                    unpack_state(f"plat.{name}.", stored)
                )
                rewards[name][:start_round] = stored[f"rewards.{name}"]
                arranged_counts[name][:start_round] = stored[f"arranged.{name}"]
                elapsed[name] = float(stored[f"elapsed.{name}"][0])
                taus[name][:] = [float(tau) for tau in stored[f"k_taus.{name}"]]
            if instrumented:
                # Merging into the fresh registry reproduces the saved
                # snapshot exactly; resume markers are trace events only
                # so metrics.json stays byte-comparable.
                obs.merge_snapshot(
                    MetricsSnapshot.from_dict(unpack_json(stored["obs"]))
                )
                obs.merge_trace(unpack_json(stored["trace"]))
                obs.event(CHECKPOINT_RESUMED_EVENT, round=start_round)
            if recording:
                flight.records[:] = unpack_json(stored["flight"])

    def _save_checkpoint(round_index: int) -> None:
        """Capture shared streams + every policy's state at a boundary."""
        if instrumented:
            obs.counter(CHECKPOINT_SAVES_METRIC).inc()
        arrays = {"t": np.array([round_index], dtype=np.int64)}
        shared = {
            f"arrivals_{key}": value
            for key, value in arrivals.state_dict().items()
        }
        shared["context_rng"] = capture_rng_state(context_rng)
        shared["feedback_rng"] = capture_rng_state(feedback_rng)
        arrays.update(pack_state("stream.", shared))
        for name, policy in policies.items():
            for key, value in capture_policy_state(policy).items():
                arrays[f"p.{name}.{key}"] = value
            arrays.update(
                pack_state(f"plat.{name}.", platforms[name].state_dict())
            )
            arrays[f"rewards.{name}"] = rewards[name][:round_index].copy()
            arrays[f"arranged.{name}"] = arranged_counts[name][:round_index].copy()
            arrays[f"elapsed.{name}"] = np.array([elapsed[name]], dtype=np.float64)
            arrays[f"k_taus.{name}"] = np.asarray(taus[name], dtype=np.float64)
        if instrumented:
            arrays["obs"] = pack_json(obs.snapshot().to_dict())
            arrays["trace"] = pack_json(obs.trace_records())
        if recording:
            arrays["flight"] = pack_json(list(flight.records))
        checkpointer.save(arrays)
        if instrumented:
            obs.event(CHECKPOINT_SAVED_EVENT, round=round_index)

    def _step(name: str, policy: Policy, t: int, user, contexts, accepts) -> None:
        """One policy's reveal-select-commit-observe against round ``t``."""
        platform = platforms[name]
        view = RoundView(
            time_step=t,
            user=user,
            contexts=contexts,
            remaining_capacities=platform.store.remaining_capacities,
            conflicts=platform.conflicts,
        )
        select_start = time.perf_counter()
        arrangement = policy.select(view)
        select_end = time.perf_counter()
        # Arrangements hold <= c_u events: scalar lookups beat
        # fancy-indexing round trips at that size.
        accepted_flags = [bool(accepts[event_id]) for event_id in arrangement]
        decisions = dict(zip(arrangement, accepted_flags))
        entry = platform.commit(
            user, arrangement, feedback=decisions.__getitem__
        )
        reward_values = [1.0 if flag else 0.0 for flag in accepted_flags]
        observe_start = time.perf_counter()
        policy.observe(view, arrangement, reward_values)
        observe_end = time.perf_counter()
        elapsed[name] += (select_end - select_start) + (observe_end - observe_start)
        if recording:
            flight.record(
                decision_record(policy, view, arrangement, reward_values)
            )
        if instrumented:
            record_policy_round(
                obs,
                policy,
                world.theta,
                platform.store,
                entry,
                t,
                select_end - select_start,
                observe_end - observe_start,
            )
        rewards[name][t - 1] = entry.reward
        arranged_counts[name][t - 1] = len(arrangement)
        if t in checkpoint_set and true_scores is not None:
            taus[name].append(
                kendall_tau(policy.ranking_scores(eval_contexts, t), true_scores)
            )

    with obs.span(
        "run_policy_fleet",
        policies=list(policies),
        horizon=horizon,
        run_seed=run_seed,
    ):
        for t in range(start_round + 1, horizon + 1):
            user = arrivals.next_user()
            contexts = sampler.sample(context_rng)
            thresholds = feedback_rng.uniform(size=num_events)
            probabilities = world.accept_probabilities(contexts)
            accepts = thresholds < probabilities
            if profiling and profile.samples(t):
                # Sampled round: per-policy steps run inside spans so
                # folded stacks attribute self time to each policy.
                with obs.span("round", t=t):
                    for name, policy in policies.items():
                        with obs.span(f"step:{name}"):
                            _step(name, policy, t, user, contexts, accepts)
            else:
                for name, policy in policies.items():
                    _step(name, policy, t, user, contexts, accepts)
            if engine is not None:
                # After every policy's step: one alert evaluation per
                # round keeps firings flush-cadence-independent.
                engine.evaluate_round(obs, t)
            if instrumented and stream is not None:
                stream.maybe_flush(1)
            # Save strictly after every policy's step (including the
            # Kendall diagnostic, which for TS draws from the policy
            # RNG): the captured positions are the ones round t+1
            # actually starts from.
            if checkpointer is not None and t < horizon and checkpointer.due(t):
                _save_checkpoint(t)

    if checkpointer is not None:
        # The cell completed; the executor's unit cache takes over.
        checkpointer.clear()

    if recording:
        for policy in policies.values():
            policy.enable_decision_capture(False)
    histories: Dict[str, History] = {}
    for name in policies:
        histories[name] = History(
            policy_name=name,
            rewards=rewards[name],
            arranged=arranged_counts[name],
            avg_round_time=elapsed[name] / horizon if horizon else 0.0,
            kendall_steps=np.asarray(checkpoints, dtype=int) if track_kendall else None,
            kendall_taus=np.asarray(taus[name]) if track_kendall else None,
        )
    return histories
