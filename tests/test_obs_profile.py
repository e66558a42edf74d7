"""Deterministic sampling profiler: aggregation math, formats, wiring.

The profiler samples on a *round-indexed* grid (``t % N == 0``), never
on a wall-clock timer, so the set of sampled stacks is a pure function
of the seed — and arrangements/rewards are bit-identical with
``--profile`` on or off.  These tests pin the self/cumulative-time
arithmetic on synthetic traces, the folded/JSON serialisations, the
runner + fleet span shapes, and the worker-merge equivalence.
"""

import json

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, SchemaError
from repro.obs.core import Instrumentation
from repro.obs.profile import (
    DEFAULT_SAMPLE_EVERY,
    PROFILE_SCHEMA_VERSION,
    Profile,
    ProfileConfig,
    StackStat,
    load_profile,
    write_profile,
)


def _span(span_id, name, duration_ns, parent_id=None):
    record = {
        "kind": "span",
        "span_id": span_id,
        "name": name,
        "duration_ns": duration_ns,
    }
    if parent_id is not None:
        record["parent_id"] = parent_id
    return record


#: root(1000ns) -> a(600ns) -> b(250ns); a second leaf c(100ns) under root.
SYNTHETIC = [
    _span(1, "root", 1000),
    _span(2, "a", 600, parent_id=1),
    _span(3, "b", 250, parent_id=2),
    _span(4, "c", 100, parent_id=1),
    {"kind": "event", "name": "noise"},  # events are ignored
]


# ----------------------------------------------------------------------
# Sampling grid
# ----------------------------------------------------------------------
def test_profile_config_grid_and_validation():
    config = ProfileConfig(sample_every=4)
    assert [t for t in range(12) if config.samples(t)] == [0, 4, 8]
    assert ProfileConfig().sample_every == DEFAULT_SAMPLE_EVERY
    with pytest.raises(ConfigurationError, match="sample_every"):
        ProfileConfig(sample_every=0)


# ----------------------------------------------------------------------
# Aggregation arithmetic
# ----------------------------------------------------------------------
def test_self_time_is_duration_minus_direct_children():
    profile = Profile.from_trace_records(SYNTHETIC)
    assert profile.stacks[("root",)].self_ns == 1000 - 600 - 100
    assert profile.stacks[("root", "a")].self_ns == 600 - 250
    assert profile.stacks[("root", "a", "b")].self_ns == 250
    assert profile.stacks[("root", "c")].self_ns == 100
    assert profile.stacks[("root",)].cumulative_ns == 1000
    # Total self time == the root's wall time: nothing counted twice.
    assert profile.total_ns == 1000


def test_self_time_clamps_against_clock_jitter():
    # A child measured *longer* than its parent (clock jitter) must not
    # produce negative self time.
    records = [_span(1, "p", 100), _span(2, "q", 130, parent_id=1)]
    profile = Profile.from_trace_records(records)
    assert profile.stacks[("p",)].self_ns == 0
    assert profile.stacks[("p", "q")].self_ns == 130


def test_orphan_spans_root_their_own_stack():
    # A parent_id missing from the record set (worker root, truncated
    # stream prefix) degrades to a top-level frame, not a crash.
    records = [_span(7, "lost_child", 50, parent_id=999)]
    profile = Profile.from_trace_records(records)
    assert profile.stacks == {("lost_child",): StackStat(1, 50, 50)}


def test_repeated_stacks_aggregate_counts_and_times():
    records = [
        _span(1, "r", 100),
        _span(2, "x", 40, parent_id=1),
        _span(3, "x", 60, parent_id=1),
    ]
    profile = Profile.from_trace_records(records)
    stat = profile.stacks[("r", "x")]
    assert (stat.count, stat.cumulative_ns, stat.self_ns) == (2, 100, 100)


# ----------------------------------------------------------------------
# Views
# ----------------------------------------------------------------------
def test_folded_lines_are_flamegraph_compatible():
    profile = Profile.from_trace_records(SYNTHETIC)
    lines = profile.folded_lines()
    assert "root;a;b 0" not in lines  # sub-microsecond stacks dropped
    # 250ns floors to 0µs, so scale up for the format check.
    big = Profile()
    big.stacks[("r", "with;semicolon")] = StackStat(1, 5_000_000, 5_000_000)
    big.stacks[("r",)] = StackStat(1, 9_000_000, 4_000_000)
    lines = big.folded_lines()
    assert lines == ["r 4000", "r;with,semicolon 5000"]


def test_table_rows_order_hottest_first():
    profile = Profile()
    profile.stacks[("cold",)] = StackStat(1, 1_000_000, 1_000_000)
    profile.stacks[("hot",)] = StackStat(2, 9_000_000, 9_000_000)
    rows = profile.table_rows()
    assert [row[0] for row in rows] == ["hot", "cold"]
    assert rows[0][1] == "2"  # calls
    assert rows[0][4] == "90.0%"


def test_merge_is_stackwise_addition():
    left = Profile.from_trace_records(SYNTHETIC)
    right = Profile.from_trace_records(SYNTHETIC)
    merged = left.merge(right)
    assert merged is left
    assert merged.stacks[("root",)].count == 2
    assert merged.stacks[("root",)].cumulative_ns == 2000


# ----------------------------------------------------------------------
# Serialisation + artefact IO
# ----------------------------------------------------------------------
def test_json_roundtrip_preserves_every_stack():
    profile = Profile.from_trace_records(SYNTHETIC)
    text = profile.to_json()
    assert text.endswith("\n")
    payload = json.loads(text)
    assert payload["version"] == PROFILE_SCHEMA_VERSION
    assert payload["total_self_ns"] == 1000
    assert Profile.from_json(text).stacks == profile.stacks


def test_unknown_schema_versions_raise():
    with pytest.raises(SchemaError, match="version 2"):
        Profile.from_dict({"version": 2, "stacks": []})
    with pytest.raises(SchemaError, match="not an integer"):
        Profile.from_dict({"version": "fancy", "stacks": []})


def test_write_profile_emits_json_and_folded(tmp_path):
    profile = Profile()
    profile.stacks[("run", "select")] = StackStat(3, 2_000_000, 2_000_000)
    paths = write_profile(tmp_path, profile)
    assert paths["profile"].name == "profile.json"
    assert paths["folded"].read_text() == "run;select 2000\n"
    assert load_profile(tmp_path).stacks == profile.stacks


def test_load_profile_rebuilds_from_a_bare_trace(tmp_path):
    from repro.obs.trace import write_trace_jsonl

    write_trace_jsonl(SYNTHETIC, tmp_path / "trace.jsonl")
    profile = load_profile(tmp_path)  # no profile.json in the directory
    assert profile.stacks[("root", "a", "b")].self_ns == 250
    with pytest.raises(ConfigurationError, match="no profile or trace"):
        load_profile(tmp_path / "elsewhere")


# ----------------------------------------------------------------------
# Runner + fleet wiring
# ----------------------------------------------------------------------
def _profiled_run(world, sample_every=8, run_seed=4):
    from repro.bandits import UcbPolicy

    from repro.simulation.runner import run_policy

    obs = Instrumentation()
    obs.profile_config = ProfileConfig(sample_every=sample_every)
    history = run_policy(
        UcbPolicy(dim=world.config.dim),
        world,
        run_seed=run_seed,
        obs=obs,
    )
    return history, obs


def test_profiled_rewards_are_bit_identical(small_world):
    from repro.bandits import UcbPolicy
    from repro.simulation.runner import run_policy

    plain = run_policy(
        UcbPolicy(dim=small_world.config.dim), small_world, run_seed=4
    )
    profiled, _ = _profiled_run(small_world)
    np.testing.assert_array_equal(plain.rewards, profiled.rewards)
    np.testing.assert_array_equal(plain.arranged, profiled.arranged)


def test_round_spans_land_exactly_on_the_sampling_grid(small_world):
    history, obs = _profiled_run(small_world, sample_every=8)
    rounds = [
        r
        for r in obs.trace_records()
        if r.get("kind") == "span" and r.get("name") == "round"
    ]
    expected = [t for t in range(1, history.horizon + 1) if t % 8 == 0]
    assert [r["attrs"]["t"] for r in rounds] == expected


def test_runner_profile_has_the_documented_phase_stacks(small_world):
    _, obs = _profiled_run(small_world)
    profile = Profile.from_trace_records(obs.trace_records())
    stacks = set(profile.stacks)
    for phase in ("select", "commit", "observe"):
        assert ("run_policy", "round", "step:UCB", phase) in stacks


def test_fleet_profile_attributes_phases_per_policy(small_world):
    from repro.bandits import RandomPolicy, UcbPolicy
    from repro.simulation.fleet import run_policy_fleet

    obs = Instrumentation()
    obs.profile_config = ProfileConfig(sample_every=16)
    dim = small_world.config.dim
    run_policy_fleet(
        {"UCB": UcbPolicy(dim=dim), "Random": RandomPolicy(seed=0)},
        small_world,
        run_seed=1,
        obs=obs,
    )
    stacks = set(Profile.from_trace_records(obs.trace_records()).stacks)
    step_leaves = {stack[-1] for stack in stacks if stack[-1].startswith("step:")}
    assert step_leaves == {"step:UCB", "step:Random"}


def test_merged_worker_traces_equal_merged_profiles(small_world):
    # Profile(merge_trace(w1, w2)) == Profile(w1).merge(Profile(w2)):
    # the span-id remapping in merge_trace preserves every stack.
    parent = Instrumentation()
    workers = []
    for seed in (1, 2):
        worker = Instrumentation()
        _ = _profiled_run(small_world, run_seed=seed)[1]  # warm check only
        with worker.span("worker", seed=seed):
            with worker.span("select"):
                pass
        workers.append(worker)
        parent.merge_trace(worker.trace_records())
    combined = Profile.from_trace_records(parent.trace_records())
    stepwise = Profile()
    for worker in workers:
        stepwise.merge(Profile.from_trace_records(worker.trace_records()))
    assert set(combined.stacks) == set(stepwise.stacks)
    for stack, stat in combined.stacks.items():
        assert stat.count == stepwise.stacks[stack].count


def _executor_step_counts(config, jobs, keep_going=False):
    """Stack counts below the executor's span, for two cells it runs."""
    from repro.obs.core import use
    from repro.parallel import ReplicationCell, run_replication_cell, run_work_units

    cells = [
        ReplicationCell(
            config=config,
            seed=seed,
            horizon=24,
            policy_names=("UCB", "Random"),
            policy_seed=1,
        )
        for seed in (1, 2)
    ]
    obs = Instrumentation()
    obs.profile_config = ProfileConfig(sample_every=8)
    with use(obs):
        run_work_units(run_replication_cell, cells, jobs=jobs, keep_going=keep_going)
    # Every unit's spans nest under the parent's ``run_work_units`` span;
    # compare the stacks from the fleet span down.
    return {
        stack[stack.index("run_policy_fleet") :]: stat.count
        for stack, stat in Profile.from_trace_records(obs.trace_records()).stacks.items()
        if "run_policy_fleet" in stack
    }


@pytest.mark.parametrize(
    "jobs, keep_going", [(2, False), (1, True)], ids=["pool", "serial-isolated"]
)
def test_worker_units_sample_the_parents_profile_grid(small_config, jobs, keep_going):
    # Pool workers and the serial keep-going path run each unit under a
    # fresh registry; it must carry the parent's sampling config, or the
    # profile loses every round and step span.
    inline = _executor_step_counts(small_config, jobs=1)
    assert inline[("run_policy_fleet", "round", "step:UCB", "select")] == 6
    assert _executor_step_counts(small_config, jobs, keep_going) == inline


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
@pytest.fixture()
def profiled_dir(tmp_path, small_world):
    _, obs = _profiled_run(small_world)
    write_profile(tmp_path, Profile.from_trace_records(obs.trace_records()))
    return tmp_path


def test_cli_obs_profile_table(profiled_dir, capsys):
    from repro.cli import main as cli_main

    assert cli_main(["obs", "profile", str(profiled_dir)]) == 0
    out = capsys.readouterr().out
    assert "stack" in out and "self_ms" in out
    assert "run_policy" in out


def test_cli_obs_profile_folded(profiled_dir, capsys):
    from repro.cli import main as cli_main

    assert cli_main(["obs", "profile", str(profiled_dir), "--folded"]) == 0
    out = capsys.readouterr().out
    for line in filter(None, out.splitlines()):
        frames, weight = line.rsplit(" ", 1)
        assert frames and int(weight) > 0


def test_cli_quickstart_profile_writes_artifacts(tmp_path, capsys):
    from repro.cli import main as cli_main

    code = cli_main(
        ["quickstart", "--quiet", "--out", str(tmp_path), "--profile", "8"]
    )
    assert code == 0
    capsys.readouterr()
    assert (tmp_path / "profile.json").is_file()
    assert (tmp_path / "profile.folded").is_file()
    profile = load_profile(tmp_path)
    assert any("round" in stack for stack in profile.stacks)
