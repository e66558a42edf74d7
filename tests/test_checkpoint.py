"""repro.io.checkpoint: state capture primitives, caches, manifests.

Unit tests of the crash-safe checkpoint layer: exact RNG/ridge/
stream + platform round trips, the atomic-write contract, the executor's
unit-result cache and the checkpoint-directory manifest.  The
end-to-end kill-and-resume proofs live in
``tests/test_checkpoint_resume.py``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bandits import make_policy
from repro.bandits.disjoint import DisjointUcbPolicy
from repro.datasets.synthetic import SyntheticConfig, build_world
from repro.exceptions import ConfigurationError, LedgerError
from repro.io.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CellCheckpointSpec,
    ExecutorCheckpoint,
    RunCheckpointer,
    atomic_save_npz,
    atomic_write_bytes,
    capture_policy_state,
    check_manifest,
    executor_checkpoint_scope,
    load_manifest,
    load_unit_result,
    pack_state,
    restore_policy_state,
    save_unit_result,
    unit_digest,
    unpack_state,
    write_manifest,
)
from repro.linalg.ridge import RidgeState
from repro.linalg.sampling import capture_rng_state, restore_rng_state
from repro.parallel import PolicyRunCell, run_policy_run_cell
from repro.simulation.environment import RoundStream


def tiny_config(**overrides) -> SyntheticConfig:
    base = dict(
        num_events=12,
        horizon=100,
        dim=4,
        capacity_mean=8.0,
        capacity_std=3.0,
        conflict_ratio=0.25,
        seed=0,
    )
    base.update(overrides)
    return SyntheticConfig(**base)


# ----------------------------------------------------------------------
# RNG state capture
# ----------------------------------------------------------------------
def test_rng_state_round_trip_is_bit_exact():
    rng = np.random.default_rng(7)
    rng.standard_normal(13)  # advance off the seed boundary
    state = capture_rng_state(rng)
    ahead = rng.standard_normal(50)
    restore_rng_state(rng, state)
    np.testing.assert_array_equal(rng.standard_normal(50), ahead)


def test_rng_restore_rejects_wrong_bit_generator():
    rng = np.random.default_rng(0)
    state = capture_rng_state(rng)
    state["bit_generator"] = "MT19937"
    with pytest.raises(ConfigurationError, match="MT19937"):
        restore_rng_state(np.random.default_rng(0), state)


def test_rng_restore_rejects_malformed_state():
    rng = np.random.default_rng(0)
    state = capture_rng_state(rng)
    state["state"] = {"nonsense": True}
    with pytest.raises(ConfigurationError, match="invalid RNG state"):
        restore_rng_state(np.random.default_rng(0), state)


# ----------------------------------------------------------------------
# Ridge state: exact (inverse-preserving) checkpoints
# ----------------------------------------------------------------------
def _trained_ridge(dim: int = 4, rounds: int = 40) -> RidgeState:
    rng = np.random.default_rng(3)
    state = RidgeState(dim=dim)
    for _ in range(rounds):
        state.update(rng.standard_normal(dim), float(rng.uniform()))
    state.theta_hat()  # materialise the cached estimate + inverse
    return state


def test_ridge_checkpoint_round_trip_preserves_future_bits():
    """Resume must replay later updates bit-identically — including the
    maintained Sherman-Morrison inverse, which plain (Y, b) restore
    recomputes with different low-order bits."""
    state = _trained_ridge()
    snapshot = state.checkpoint_state()
    rng = np.random.default_rng(9)
    updates = [(rng.standard_normal(4), float(rng.uniform())) for _ in range(25)]
    for x, r in updates:
        state.update(x, r)
    expected = state.theta_hat().copy()

    resumed = RidgeState(dim=4)
    resumed.restore_checkpoint(snapshot)
    for x, r in updates:
        resumed.update(x, r)
    np.testing.assert_array_equal(resumed.theta_hat(), expected)
    np.testing.assert_array_equal(resumed.y_inv, state.y_inv)


def test_ridge_checkpoint_survives_npz(tmp_path):
    state = _trained_ridge()
    path = atomic_save_npz(tmp_path / "ridge.npz", state.checkpoint_state())
    with np.load(path) as archive:
        stored = {name: archive[name].copy() for name in archive.files}
    resumed = RidgeState(dim=4)
    resumed.restore_checkpoint(stored)
    np.testing.assert_array_equal(resumed.theta_hat(), state.theta_hat())


def test_ridge_restore_names_both_shapes_on_mismatch():
    snapshot = _trained_ridge(dim=5).checkpoint_state()
    with pytest.raises(ConfigurationError, match=r"\(5, 5\)") as excinfo:
        RidgeState(dim=3).restore_checkpoint(snapshot)
    assert "(3, 3)" in str(excinfo.value)


# ----------------------------------------------------------------------
# Stream + platform state round trip
# ----------------------------------------------------------------------
def _play_rounds(stream: RoundStream, platform, rounds: int):
    """Arrange the first available event each round; return observables."""
    trail = []
    for _ in range(rounds):
        user, contexts, accepts = stream.reveal(platform.time_step + 1)
        remaining = platform.store.remaining_capacities
        arranged = [int(event_id) for event_id in np.flatnonzero(remaining > 0)[:1]]
        rewards = tuple(1.0 if accepts[event_id] else 0.0 for event_id in arranged)
        entry = platform.commit(user, arranged, feedback=lambda v: bool(accepts[v]))
        trail.append((user.user_id, contexts.tobytes(), rewards, entry.reward))
    return trail


def _run_state(stream: RoundStream, platform):
    """What a round checkpoint saves of the run: stream, then platform."""
    state = pack_state("stream.", stream.state_dict())
    state.update(pack_state("plat.", platform.state_dict()))
    return state


def _restored(world, run_seed: int, state):
    stream = RoundStream(world, run_seed=run_seed)
    stream.restore_state(unpack_state("stream.", state))
    platform = stream.make_platform()
    platform.restore_state(unpack_state("plat.", state))
    return stream, platform


def test_environment_state_round_trip_is_bit_exact():
    world = build_world(tiny_config())
    stream = RoundStream(world, run_seed=5)
    platform = stream.make_platform()
    _play_rounds(stream, platform, 10)
    state = _run_state(stream, platform)
    expected = _play_rounds(stream, platform, 8)

    resumed_stream, resumed = _restored(world, 5, state)
    assert _play_rounds(resumed_stream, resumed, 8) == expected
    assert resumed.time_step == platform.time_step
    assert list(resumed.ledger) == list(platform.ledger)


def test_environment_state_survives_npz(tmp_path):
    world = build_world(tiny_config())
    stream = RoundStream(world, run_seed=5)
    platform = stream.make_platform()
    _play_rounds(stream, platform, 6)
    path = atomic_save_npz(tmp_path / "env.npz", _run_state(stream, platform))
    expected = _play_rounds(stream, platform, 5)
    with np.load(path) as archive:
        stored = {name: archive[name].copy() for name in archive.files}
    assert _play_rounds(*_restored(world, 5, stored), 5) == expected


def test_ledger_restore_rejects_corrupt_offsets():
    world = build_world(tiny_config())
    stream = RoundStream(world, run_seed=1)
    platform = stream.make_platform()
    _play_rounds(stream, platform, 4)
    bad = dict(platform.state_dict())
    offsets = np.asarray(bad["ledger_arranged_offsets"]).copy()
    offsets[-1] += 3  # points past the flat array
    bad["ledger_arranged_offsets"] = offsets
    with pytest.raises(LedgerError):
        stream.make_platform().restore_state(bad)


def test_event_store_restore_rejects_out_of_range_capacity():
    stream = RoundStream(build_world(tiny_config()), run_seed=1)
    state = dict(stream.make_platform().state_dict())
    remaining = np.asarray(state["remaining"]).copy()
    remaining[0] = remaining[0] + 1e9  # above initial capacity
    state["remaining"] = remaining
    with pytest.raises(ConfigurationError):
        stream.make_platform().restore_state(state)


# ----------------------------------------------------------------------
# Policy state capture (exact layout, incl. RNG)
# ----------------------------------------------------------------------
def test_policy_capture_round_trip_ts():
    policy = make_policy("TS", dim=4, seed=11)
    rng = np.random.default_rng(2)
    for _ in range(30):
        policy.model.state.update(rng.standard_normal(4), float(rng.uniform()))
    arrays = capture_policy_state(policy)
    ahead = policy._rng.standard_normal(20)

    clone = make_policy("TS", dim=4, seed=11)
    restore_policy_state(clone, arrays)
    np.testing.assert_array_equal(clone._rng.standard_normal(20), ahead)
    np.testing.assert_array_equal(
        clone.model.state.theta_hat(), policy.model.state.theta_hat()
    )


def test_policy_capture_round_trip_disjoint():
    policy = DisjointUcbPolicy(num_events=3, dim=3)
    rng = np.random.default_rng(4)
    for index in range(3):
        for _ in range(10):
            policy.model_for(index).state.update(
                rng.standard_normal(3), float(rng.uniform())
            )
    arrays = capture_policy_state(policy)
    clone = DisjointUcbPolicy(num_events=3, dim=3)
    restore_policy_state(clone, arrays)
    for index in range(3):
        np.testing.assert_array_equal(
            clone.model_for(index).state.y, policy.model_for(index).state.y
        )


def test_policy_restore_rejects_structural_mismatches():
    trained = make_policy("UCB", dim=4)
    arrays = capture_policy_state(trained)
    with pytest.raises(ConfigurationError, match="no state for disjoint model"):
        restore_policy_state(DisjointUcbPolicy(num_events=2, dim=4), arrays)
    with pytest.raises(ConfigurationError, match="has no model"):
        restore_policy_state(make_policy("Random", seed=0, dim=4), arrays)
    with pytest.raises(ConfigurationError, match="no model state"):
        restore_policy_state(make_policy("UCB", dim=4), {})
    with pytest.raises(ConfigurationError, match="no RNG state"):
        restore_policy_state(
            make_policy("TS", dim=4, seed=1),
            capture_policy_state(make_policy("Exploit", dim=4)),
        )


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------
def test_atomic_write_bytes_leaves_no_temp_file(tmp_path):
    path = atomic_write_bytes(tmp_path / "blob.bin", b"payload")
    assert path.read_bytes() == b"payload"
    assert [p.name for p in tmp_path.iterdir()] == ["blob.bin"]


def test_atomic_save_npz_replaces_previous_slot(tmp_path):
    target = tmp_path / "slot.npz"
    atomic_save_npz(target, {"x": np.arange(3)})
    atomic_save_npz(target, {"x": np.arange(5)})
    with np.load(target) as archive:
        assert archive["x"].shape == (5,)
    assert [p.name for p in tmp_path.iterdir()] == ["slot.npz"]


# ----------------------------------------------------------------------
# Cell checkpoint slots
# ----------------------------------------------------------------------
def test_cell_spec_validates_cadence_and_key(tmp_path):
    with pytest.raises(ConfigurationError, match="cadence"):
        CellCheckpointSpec(directory=str(tmp_path), key="a", every=0)
    with pytest.raises(ConfigurationError, match="flat name"):
        CellCheckpointSpec(directory=str(tmp_path), key="a/b")
    with pytest.raises(ConfigurationError, match="flat name"):
        CellCheckpointSpec(directory=str(tmp_path), key="")


def test_run_checkpointer_save_load_clear(tmp_path):
    spec = CellCheckpointSpec(directory=str(tmp_path), key="cell", every=10)
    saver = RunCheckpointer(spec)
    assert saver.due(10) and saver.due(20) and not saver.due(15)
    saver.save({"t": np.array([10])})
    # Not resuming: load() is None even though the slot exists.
    assert saver.load() is None
    resume = RunCheckpointer(
        CellCheckpointSpec(directory=str(tmp_path), key="cell", every=10, resume=True)
    )
    stored = resume.load()
    assert int(stored["t"][0]) == 10
    assert int(stored["checkpoint_version"][0]) == CHECKPOINT_SCHEMA_VERSION
    resume.clear()
    assert resume.load() is None
    resume.clear()  # idempotent


def test_run_checkpointer_rejects_foreign_slots(tmp_path):
    RunCheckpointer(
        CellCheckpointSpec(directory=str(tmp_path), key="mine", every=5)
    ).save({"t": np.array([5])})
    stolen = tmp_path / "theirs.ckpt.npz"
    (tmp_path / "mine.ckpt.npz").rename(stolen)
    with pytest.raises(ConfigurationError, match="belongs to cell 'mine'"):
        RunCheckpointer(
            CellCheckpointSpec(
                directory=str(tmp_path), key="theirs", every=5, resume=True
            )
        ).load()


def test_run_checkpointer_rejects_non_checkpoint_archives(tmp_path):
    np.savez(tmp_path / "cell.ckpt.npz", junk=np.ones(2))
    with pytest.raises(ConfigurationError, match="not a run checkpoint"):
        RunCheckpointer(
            CellCheckpointSpec(directory=str(tmp_path), key="cell", resume=True)
        ).load()


# ----------------------------------------------------------------------
# Unit-result cache
# ----------------------------------------------------------------------
def test_unit_cache_round_trip(tmp_path):
    digest = unit_digest(run_policy_run_cell, "unit")
    assert load_unit_result(str(tmp_path), 0, digest) is None  # miss
    save_unit_result(str(tmp_path), 0, digest, {"value": None})
    hit = load_unit_result(str(tmp_path), 0, digest)
    assert hit == ({"value": None},)  # 1-tuple keeps None distinguishable


def test_unit_cache_rejects_digest_mismatch(tmp_path):
    save_unit_result(str(tmp_path), 0, unit_digest(len, "a"), 1)
    with pytest.raises(ConfigurationError, match="digest mismatch"):
        load_unit_result(str(tmp_path), 0, unit_digest(len, "b"))


def test_unit_digest_ignores_checkpoint_wiring(tmp_path):
    base = PolicyRunCell(
        config=tiny_config(),
        policy_name="UCB",
        horizon=50,
        run_seed=0,
        policy_seed=7,
    )
    wired = PolicyRunCell(
        config=tiny_config(),
        policy_name="UCB",
        horizon=50,
        run_seed=0,
        policy_seed=7,
        checkpoint=CellCheckpointSpec(
            directory=str(tmp_path), key="UCB", every=10, resume=True
        ),
    )
    other = PolicyRunCell(
        config=tiny_config(),
        policy_name="TS",
        horizon=50,
        run_seed=0,
        policy_seed=7,
    )
    fn = run_policy_run_cell
    assert unit_digest(fn, base) == unit_digest(fn, wired)
    assert unit_digest(fn, base) != unit_digest(fn, other)


def test_executor_checkpoint_allocates_distinct_call_scopes(tmp_path):
    checkpoint = ExecutorCheckpoint(tmp_path)
    first = checkpoint.call_scope()
    second = checkpoint.call_scope()
    assert first.directory != second.directory
    assert first.directory.is_dir() and second.directory.is_dir()


# ----------------------------------------------------------------------
# Manifests
# ----------------------------------------------------------------------
def test_manifest_round_trip_and_validation(tmp_path):
    payload = {"command": "quickstart", "horizon": 2000, "every": 200}
    write_manifest(tmp_path, payload)
    stored = load_manifest(tmp_path)
    assert stored["horizon"] == 2000
    assert check_manifest(tmp_path, {"command": "quickstart"})["every"] == 200


def test_manifest_mismatches_are_reported_together(tmp_path):
    write_manifest(tmp_path, {"command": "quickstart", "horizon": 2000})
    with pytest.raises(ConfigurationError) as excinfo:
        check_manifest(tmp_path, {"command": "replicate", "horizon": 100})
    message = str(excinfo.value)
    assert "command" in message and "horizon" in message


def test_manifest_missing_and_corrupt(tmp_path):
    with pytest.raises(ConfigurationError, match="no checkpoint manifest"):
        load_manifest(tmp_path)
    (tmp_path / "manifest.json").write_text("{not json")
    with pytest.raises(ConfigurationError, match="unreadable"):
        load_manifest(tmp_path)
    (tmp_path / "manifest.json").write_text(json.dumps({"version": 99}))
    with pytest.raises(ConfigurationError, match="manifest version"):
        load_manifest(tmp_path)


def test_serial_sweep_caches_cells_under_ambient_checkpoint(tmp_path):
    """An ambient executor checkpoint routes even a serial grid sweep
    through the unit cache: same results as the inline loop, and a
    resumed sweep replays every cell from disk."""
    from repro.experiments.grid import sweep

    base = tiny_config()
    axes = {"dim": [2, 3]}
    plain = sweep(base, axes, horizon=40)

    with executor_checkpoint_scope(ExecutorCheckpoint(tmp_path)):
        cached = sweep(base, axes, horizon=40)
    assert cached == plain
    assert list(tmp_path.glob("call-*/unit-*.pkl"))

    with executor_checkpoint_scope(ExecutorCheckpoint(tmp_path, resume=True)):
        replayed = sweep(base, axes, horizon=40)
    assert replayed == plain
