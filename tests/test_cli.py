"""The fasea CLI."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main


def test_list_prints_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "fig1" in out
    assert "tab7" in out
    assert "mab" in out
    assert len(out) == 18


def test_run_writes_reports(tmp_path, capsys):
    code = main(
        ["run", "fig2", "--out", str(tmp_path), "--horizon", "150", "--quiet"]
    )
    assert code == 0
    assert (tmp_path / "fig2" / "report.txt").exists()
    assert (tmp_path / "fig2" / "curve_kendall_tau.csv").exists()


def test_run_prints_report_unless_quiet(tmp_path, capsys):
    main(["run", "fig2", "--out", str(tmp_path), "--horizon", "150"])
    out = capsys.readouterr().out
    assert "kendall_tau" in out


def test_run_rejects_unknown_experiment(tmp_path, capsys):
    assert main(["run", "fig99", "--out", str(tmp_path)]) == 2
    assert "fasea run: unknown experiment 'fig99'" in capsys.readouterr().err


def test_quickstart_runs(capsys):
    assert main(["quickstart"]) == 0
    out = capsys.readouterr().out
    assert "UCB" in out
    assert "Random" in out


def test_parser_rejects_bad_scale():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "fig1", "--scale", "huge"])


def test_export_damai_writes_the_bundle(tmp_path, capsys):
    assert main(["export-damai", "--out", str(tmp_path / "damai")]) == 0
    out = capsys.readouterr().out
    assert "events" in out
    assert (tmp_path / "damai" / "events.csv").exists()
    assert (tmp_path / "damai" / "manifest.json").exists()


def test_replicate_prints_ci_table(capsys):
    assert main(["replicate", "--seeds", "2", "--horizon", "200"]) == 0
    out = capsys.readouterr().out
    assert "accept_ratio" in out
    assert "UCB > TS on every seed" in out


def test_checkpoint_with_health_resumes_to_the_same_logs(tmp_path, monkeypatch, capsys):
    """A cell killed after its 2nd save (round 100) resumes from the
    slot's series, so its cliff onset at round 60 is logged again."""
    from repro import cli
    from repro.io.checkpoint import RunCheckpointer

    monkeypatch.setattr(cli, "_QUICKSTART_HORIZON", 250)
    flags = ["quickstart", "--quiet", "--health", "--checkpoint", "50"]
    assert main([*flags, "--out", str(tmp_path / "golden")]) == 0
    save = RunCheckpointer.save
    saves = []

    def crash_on_second_save(self, arrays):
        save(self, arrays)
        saves.append(self)
        if len(saves) == 2:
            raise RuntimeError("killed")

    monkeypatch.setattr(RunCheckpointer, "save", crash_on_second_save)
    with pytest.raises(RuntimeError, match="killed"):
        main([*flags, "--out", str(tmp_path / "victim")])
    monkeypatch.setattr(RunCheckpointer, "save", save)
    resume = ["--resume", str(tmp_path / "victim" / "checkpoints")]
    assert main([*flags[:3], "--out", str(tmp_path / "victim"), *resume]) == 0
    for log in ("health.json", "alerts.jsonl"):
        golden = (tmp_path / "golden" / log).read_bytes()
        assert (tmp_path / "victim" / log).read_bytes() == golden, log
    assert b'"round": 60' in (tmp_path / "golden" / "alerts.jsonl").read_bytes()


def test_checkpoint_rejects_bad_cadence(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["replicate", "--seeds", "1", "--horizon", "60", "--checkpoint", "0"])
    assert code == 2
    assert "cadence must be >= 1" in capsys.readouterr().err


def test_resume_requires_a_manifest(tmp_path, capsys):
    code = main(
        ["replicate", "--seeds", "1", "--horizon", "60",
         "--resume", str(tmp_path / "nope")]
    )
    assert code == 2
    assert "no checkpoint manifest" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["replicate", "--seeds", "0"], "need at least one seed"),
        (["replicate", "--seeds", "1", "--horizon", "0"], "horizon must be >= 1"),
        (["replicate", "--seeds", "1", "--horizon", "10", "--retries", "-1"],
         "retries must be >= 0"),
        (["replicate", "--seeds", "1", "--horizon", "10", "--timeout", "nan"],
         "timeout must be a finite number"),
        (["quickstart", "--quiet", "--jobs", "-1"], "jobs must be >= 0"),
        (["replicate", "--health"], "--health requires --flight DIR"),
    ],
    ids=["seeds", "horizon", "retries", "timeout", "jobs", "health-without-flight"],
)
def test_usage_errors_exit_2_with_one_line(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"fasea {argv[0]}: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_replicate_checkpoint_then_resume(tmp_path, monkeypatch, capsys):
    """A checkpointed replicate leaves a manifest; --resume validates it
    (rejecting changed flags) and replays a finished run from the cache."""
    monkeypatch.chdir(tmp_path)
    assert main(
        ["replicate", "--seeds", "2", "--horizon", "120", "--checkpoint", "60"]
    ) == 0
    first = capsys.readouterr().out
    assert "accept_ratio" in first
    ckpt = Path("results/replicate/checkpoints")
    assert (ckpt / "manifest.json").exists()

    code = main(
        ["replicate", "--seeds", "2", "--horizon", "80", "--resume", str(ckpt)]
    )
    assert code == 2
    assert "horizon" in capsys.readouterr().err

    assert main(
        ["replicate", "--seeds", "2", "--horizon", "120", "--resume", str(ckpt)]
    ) == 0
    assert "accept_ratio" in capsys.readouterr().out
