"""run_work_units: ``jobs``, telemetry, the unit cache and ``keep_going``
change where units run, never what the caller gets back.

Every combination of ``jobs`` in {1, 2}, telemetry off/on and a plain
run, a kill-free cache resume or a ``keep_going`` run with one raising
unit must return the same results and :class:`UnitFailure` fields, and
(telemetry on) the same metrics once wall-clock metrics and the worker
gauge are scrubbed, with every unit's spans nested under the
executor's ``run_work_units`` span.  A resume under another telemetry
setting than the checkpointed run is refused, from the unit cache and
from a round checkpoint alike; a round slot resumes under ``--health``
to the events of an uninterrupted run.
"""

from __future__ import annotations

import pytest

from repro.analysis.replication import replicate_policies
from repro.datasets.synthetic import SyntheticConfig
from repro.exceptions import ConfigurationError
from repro.io.checkpoint import ExecutorCheckpoint, RunCheckpointer
from repro.obs.core import Instrumentation, current, use
from repro.obs.flight import FlightBuffer
from repro.obs.health import ALERT_EVENT_NAME, HEALTH_EVENT_NAME
from repro.obs.profile import Profile
from repro.parallel import UnitFailure, run_work_units
from repro.parallel.executor import UNIT_CACHED_EVENT


def _recorded_unit(value: int) -> int:
    obs = current()
    with obs.span("unit", value=value):
        obs.counter("test.units").inc()
        obs.series("test.squares").append(value, value * value)
        obs.event("test.seen", value=value)
    if value == 3:
        raise ConfigurationError("boom")
    return value * value


def _scrubbed(obs: Instrumentation) -> dict:
    document = obs.snapshot().to_dict()
    return {
        section: (
            {
                name: value
                for name, value in content.items()
                if "seconds" not in name and name != "parallel.workers"
            }
            if isinstance(content, dict)
            else content
        )
        for section, content in document.items()
    }


def _execute(tmp_path, jobs: int, telemetry: bool, mode: str):
    """One run_work_units call in ``mode``; returns (results, obs or None)."""
    units = [1, 2, 3, 4] if mode == "keep_going" else [1, 2, 4, 5]
    kwargs: dict = {"keep_going": mode == "keep_going"}
    if mode == "resume":
        directory = tmp_path / f"cache-{jobs}"
        with use(Instrumentation() if telemetry else current()):
            run_work_units(
                _recorded_unit, units, jobs=jobs,
                checkpoint=ExecutorCheckpoint(directory),
            )
        kwargs["checkpoint"] = ExecutorCheckpoint(directory, resume=True)
    if not telemetry:
        return run_work_units(_recorded_unit, units, jobs=jobs, **kwargs), None
    obs = Instrumentation()
    with use(obs):
        results = run_work_units(_recorded_unit, units, jobs=jobs, **kwargs)
    return results, obs


@pytest.mark.parametrize("mode", ["plain", "resume", "keep_going"])
@pytest.mark.parametrize("telemetry", [False, True], ids=["obs-off", "obs-on"])
def test_jobs_cache_and_keep_going_do_not_change_the_outcome(
    tmp_path, telemetry, mode
):
    serial, serial_obs = _execute(tmp_path, 1, telemetry, mode)
    pooled, pooled_obs = _execute(tmp_path, 2, telemetry, mode)
    if mode == "keep_going":
        expected = [1, 4, UnitFailure(2, "ConfigurationError", "boom", 0), 16]
    else:
        expected = [1, 4, 16, 25]
    assert serial == pooled == expected
    if not telemetry:
        return
    reference_results, reference = _execute(tmp_path, 1, True, "plain")
    assert reference_results == [1, 4, 16, 25]
    for obs in (serial_obs, pooled_obs):
        scrubbed = _scrubbed(obs)
        if mode == "keep_going":
            # The raising unit's own telemetry is lost with its registry.
            assert scrubbed["counters"]["parallel.unit_failures"] == 1
            assert scrubbed["counters"]["test.units"] == 3
        else:
            assert scrubbed == _scrubbed(reference)
        stacks = set(Profile.from_trace_records(obs.trace_records()).stacks)
        assert stacks == {("run_work_units",), ("run_work_units", "unit")}
        cached = [
            record for record in obs.trace_records()
            if record.get("name") == UNIT_CACHED_EVENT
        ]
        assert len(cached) == (4 if mode == "resume" else 0)
    assert _scrubbed(serial_obs) == _scrubbed(pooled_obs)


def _replicate(checkpoint_dir, resume: bool):
    config = SyntheticConfig(
        num_events=10, horizon=30, dim=3, capacity_mean=6.0,
        capacity_std=2.0, conflict_ratio=0.2, seed=0,
    )
    return replicate_policies(
        config, (0,), policy_names=("UCB",),
        checkpoint_dir=checkpoint_dir, checkpoint_every=10, resume=resume,
    )


def _telemetry(setting: str):
    if setting == "off":
        return current()
    obs = Instrumentation()
    if setting == "obs+flight":
        obs.flight_recorder = FlightBuffer()
    return obs


@pytest.mark.parametrize("killed", [False, True], ids=["finished", "killed-mid-cell"])
@pytest.mark.parametrize(
    "first, second",
    [("off", "obs"), ("obs", "off"), ("obs+flight", "obs")],
    ids=["off-then-obs", "obs-then-off", "flight-then-obs"],
)
def test_resume_under_another_telemetry_setting_is_refused(
    tmp_path, monkeypatch, first, second, killed
):
    """A finished run resumes from its unit cache, a killed one from its
    round checkpoint; either holds what its telemetry setting recorded."""
    if killed:
        save = RunCheckpointer.save

        def crash_after_saving(self, arrays):
            save(self, arrays)
            raise RuntimeError("killed")

        monkeypatch.setattr(RunCheckpointer, "save", crash_after_saving)
    with use(_telemetry(first)):
        if killed:
            with pytest.raises(RuntimeError, match="killed"):
                _replicate(tmp_path, resume=False)
            monkeypatch.undo()
        else:
            _replicate(tmp_path, resume=False)
    with use(_telemetry(second)):
        with pytest.raises(ConfigurationError, match="telemetry setting"):
            _replicate(tmp_path, resume=True)
    with use(_telemetry(first)):
        replayed = _replicate(tmp_path, resume=True)
    assert replayed.seeds == (0,) and not replayed.failures


def _health_records(obs) -> list:
    return [
        record["fields"] for record in obs.trace_records()
        if record.get("name") in (HEALTH_EVENT_NAME, ALERT_EVENT_NAME)
    ]


def test_round_slot_resumes_under_health_to_the_same_events(tmp_path, monkeypatch):
    """A round slot holds the cell's series, so a resumed cell logs the
    health events and alerts of an uninterrupted one."""
    registries = [_telemetry("obs") for _ in range(3)]
    for obs in registries:
        obs.health = True
    golden, victim, resumed = registries
    with use(golden):
        _replicate(tmp_path / "golden", resume=False)
    save = RunCheckpointer.save

    def crash_after_saving(self, arrays):
        save(self, arrays)
        raise RuntimeError("killed")

    monkeypatch.setattr(RunCheckpointer, "save", crash_after_saving)
    with use(victim):
        with pytest.raises(RuntimeError, match="killed"):
            _replicate(tmp_path / "victim", resume=False)
    monkeypatch.undo()
    with use(resumed):
        _replicate(tmp_path / "victim", resume=True)
    assert _health_records(golden)
    assert _health_records(resumed) == _health_records(golden)


def test_profile_stacks_do_not_depend_on_jobs_or_checkpointing(tmp_path, capsys, monkeypatch):
    from repro import cli

    # The stack names appear from the first sampled round; a horizon
    # past 200 still lets ``--checkpoint 200`` save once.
    monkeypatch.setattr(cli, "_QUICKSTART_HORIZON", 250)
    names = {}
    for label, extra in (
        ("serial", []),
        ("jobs2", ["--jobs", "2"]),
        ("checkpointed", ["--checkpoint", "200"]),
    ):
        out = tmp_path / label
        code = cli.main(["quickstart", "--quiet", "--profile", "--out", str(out), *extra])
        assert code == 0
        lines = (out / "profile.folded").read_text(encoding="utf-8").splitlines()
        names[label] = [line.rsplit(" ", 1)[0] for line in lines]
    capsys.readouterr()
    assert "run_work_units;run_policy;round" in names["serial"]
    assert names["jobs2"] == names["serial"]
    assert names["checkpointed"] == names["serial"]
