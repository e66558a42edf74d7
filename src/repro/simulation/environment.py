"""The FASEA simulation input stream.

Each round the stream reveals what Definition 3 says is revealed
— the arriving user's capacity and one context vector per event —
together with the user's latent feedback, which the commit reads:
event ``v`` is accepted with probability ``clip(x_{t,v}^T theta, 0, 1)``.

Common random numbers: the per-round draws happen in a fixed order
(user capacity, context matrix, one acceptance threshold per event)
from dedicated sub-generators, so two runs with the same world and
``run_seed`` present *identical* users, contexts and latent coin flips
to different policies.  An event is accepted iff its pre-drawn
threshold falls below its acceptance probability, which depends only on
the context — not on which policy asked.

:class:`RoundStream` is the one place those streams are constructed
and drawn; the round loop, the trace recorder and off-policy
evaluation all read their rounds from it.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

import numpy as np

from repro.datasets.synthetic import SyntheticWorld
from repro.ebsn.platform import Platform
from repro.ebsn.users import User
from repro.linalg.sampling import capture_rng_state, restore_rng_state

#: Emit-site metric names (FAS016).
ENV_ROUNDS_METRIC = "env.rounds"
ENV_COMMITS_METRIC = "env.commits"
ENV_ARRANGED_EVENTS_METRIC = "env.arranged_events"
ENV_ACCEPTED_EVENTS_METRIC = "env.accepted_events"


class RoundStream:
    """The common-random-numbers input stream of one ``(world, run_seed)``.

    One :class:`~numpy.random.SeedSequence` keyed by the run seed and
    the world seed is spawned, in this order, into the arrival, context
    and feedback generators.  :meth:`draw` reveals one round: the user,
    then the ``|V| x d`` context matrix, then ``|V|`` acceptance
    thresholds.  Policy-independent by construction — capacities and
    the ledger live on the platforms, not here.  As the generated round
    source of :func:`~repro.simulation.fleet.play_fleet` it adds
    :meth:`make_platform` and :meth:`reveal`.
    """

    def __init__(self, world: SyntheticWorld, run_seed: int = 0) -> None:
        self.world = world
        self.theta = world.theta
        root = np.random.SeedSequence(entropy=run_seed, spawn_key=(world.config.seed,))
        arrival_seq, context_seq, feedback_seq = root.spawn(3)
        self.arrivals = world.make_arrivals(np.random.default_rng(arrival_seq))
        self.context_rng = np.random.default_rng(context_seq)
        self.feedback_rng = np.random.default_rng(feedback_seq)
        self.sampler = world.make_context_sampler()
        self.num_events = len(world.capacities)

    def draw(self) -> Tuple[User, np.ndarray, np.ndarray]:
        """The next round's ``(user, contexts, thresholds)``."""
        user = self.arrivals.next_user()
        contexts = self.sampler.sample(self.context_rng)
        thresholds = self.feedback_rng.uniform(size=self.num_events)
        return user, contexts, thresholds

    def make_platform(self) -> Platform:
        """A fresh platform over the world's capacities and conflicts."""
        return Platform(self.world.make_store(), self.world.conflicts)

    def reveal(self, t: int) -> Tuple[User, np.ndarray, np.ndarray]:
        """The next round's user, contexts and accept mask (``t`` is implied)."""
        user, contexts, thresholds = self.draw()
        # Held on the stream, the |V| thresholds and probabilities live
        # until the next draw; freed mid-round, glibc trims and
        # re-faults the heap every round (at |V| = 10^4: 4-65x the
        # minor page faults and 20-45% more wall time per fleet run).
        self._thresholds = thresholds
        self._probabilities = self.world.accept_probabilities(contexts)
        return user, contexts, thresholds < self._probabilities

    def state_dict(self) -> Dict[str, object]:
        """Exact stream positions: ``arrivals_*``, ``context_rng``, ``feedback_rng``."""
        state: Dict[str, object] = {
            f"arrivals_{key}": value for key, value in self.arrivals.state_dict().items()
        }
        state["context_rng"] = capture_rng_state(self.context_rng)
        state["feedback_rng"] = capture_rng_state(self.feedback_rng)
        return state

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot (bit-exact positions)."""
        self.arrivals.restore_state(
            {
                key[len("arrivals_") :]: value
                for key, value in state.items()
                if key.startswith("arrivals_")
            }
        )
        restore_rng_state(self.context_rng, state["context_rng"])  # type: ignore[arg-type]
        restore_rng_state(self.feedback_rng, state["feedback_rng"])  # type: ignore[arg-type]

