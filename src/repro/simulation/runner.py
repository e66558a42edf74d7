"""The round runner: play one policy on one generated stream.

``run_policy`` drives the standard FASEA loop (lines 3-14 of
Algorithms 1/3/4): reveal, select, commit, observe — for ``horizon``
rounds, timing each policy step (select + observe, the per-round time
of Tables 5-6) and optionally recording the Kendall rank correlation
of the policy's event ranking against the truth at the paper's
checkpoints (Figure 2).

It is a fleet of one: the loop, its telemetry, profiler spans,
streaming flushes, flight recording and round checkpoints are
:func:`~repro.simulation.fleet.play_fleet`'s, shared with every
multi-policy run, so a policy plays identically alone or in a fleet.
None of the observers touches an RNG stream; results are
bit-identical with them on or off.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.bandits.base import Policy
from repro.datasets.synthetic import SyntheticWorld
from repro.obs.core import InstrumentationLike
from repro.simulation.environment import RoundStream
from repro.simulation.fleet import kendall_probe, play_fleet
from repro.simulation.history import History

if TYPE_CHECKING:  # import cycle: repro.io.__init__ reaches back here
    from repro.io.checkpoint import CellCheckpointSpec


def run_policy(
    policy: Policy,
    world: SyntheticWorld,
    horizon: Optional[int] = None,
    run_seed: int = 0,
    track_kendall: bool = False,
    kendall_checkpoints: Optional[Sequence[int]] = None,
    eval_contexts: Optional[np.ndarray] = None,
    obs: Optional[InstrumentationLike] = None,
    checkpoint: Optional["CellCheckpointSpec"] = None,
) -> History:
    """Play ``policy`` for ``horizon`` rounds and return its history.

    Parameters
    ----------
    policy:
        The arrangement policy; it is *not* reset here (pass a fresh
        instance, or call ``policy.reset()`` yourself when reusing one).
    world:
        The static instance (theta, capacities, conflicts).
    horizon:
        Number of rounds; defaults to ``world.config.horizon``.
    run_seed:
        Seed of the dynamic streams.  Runs sharing ``(world, run_seed)``
        see identical users, contexts and feedback coin flips.
    track_kendall:
        Record Kendall-tau of the policy ranking vs the truth at each
        checkpoint (on a fixed evaluation context set).
    kendall_checkpoints:
        Steps at which to record tau; default is the paper's grid.
        Only steps the run reaches are recorded, in round order.
    eval_contexts:
        Context matrix for the ranking diagnostic; default is the
        world's deterministic evaluation set.
    obs:
        Instrumentation registry; defaults to the process-local one
        (:func:`repro.obs.core.current`).  When enabled the run records
        per-round theta-drift, select/observe timings, oracle telemetry
        and capacity-exhaustion events — none of which touch the RNG
        streams, so results are bit-identical either way.  The registry
        also carries the run's observers (``profile_config``,
        ``stream_sink``, ``flight_recorder``, ``health``); see
        :func:`~repro.simulation.fleet.play_fleet`.
    checkpoint:
        A :class:`~repro.io.checkpoint.CellCheckpointSpec`.  Every
        ``every``-th round boundary the runner atomically saves the
        exact dynamic state (policy learned state + RNG positions,
        input-stream positions, platform ledger/capacities, accumulated
        rewards, Kendall taus, telemetry snapshot, flight buffer); with
        ``resume=True`` an existing checkpoint is loaded and the run
        continues from its round — bit-identical to an uninterrupted
        run (``tests/test_checkpoint_resume`` proves it).  Saving
        never touches an RNG stream.
    """
    horizon = horizon if horizon is not None else world.config.horizon
    return play_fleet(
        {policy.name: policy}, RoundStream(world, run_seed), horizon,
        kendall=kendall_probe(world, horizon, track_kendall, kendall_checkpoints, eval_contexts),
        obs=obs, checkpoint=checkpoint,
        span_name="run_policy",
        span_attrs={"policy": policy.name, "horizon": horizon, "run_seed": run_seed},
    )[policy.name]
