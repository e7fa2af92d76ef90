"""Tests for the CLI surface (argument handling; no heavy experiments)."""

import dataclasses

import pytest

from repro.experiments.cli import EXPERIMENTS, _run, main


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["nope"])


def test_known_names_listed():
    assert "fig02" in EXPERIMENTS
    assert "table06" in EXPERIMENTS


def test_run_rejects_bad_name():
    with pytest.raises(ValueError):
        _run("bogus", None, None)


def test_table05_branch_returns_five_values(monkeypatch):
    # main() reads the five fields of the ExperimentOutput that _run
    # returns; stub out the heavy experiment and pin the table05 branch.
    import repro.experiments.table05_exploration as t05

    class _Table:
        def render(self):
            return "rendered"

    monkeypatch.setattr(
        t05, "run_table05", lambda jobs=None, on_complete=None: _Table()
    )
    monkeypatch.setattr(t05, "experiment_meta", lambda table: {"seed": 1})
    out = _run("table05", None, None)
    assert out.text == "rendered"
    assert out.meta == {"seed": 1}
    assert out.trace_sources == {}
    assert out.report is None
    assert out.html is None
    with pytest.raises(dataclasses.FrozenInstanceError):
        out.text = "mutated"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "fig02" in out
    assert "--jobs" in out


def test_jobs_flag_validated():
    with pytest.raises(SystemExit):
        main(["fig13", "--jobs", "0"])
    with pytest.raises(SystemExit):
        main(["fig13", "--jobs", "not-a-number"])


def test_save_rejected_for_summary():
    # ``summary`` aggregates other results and has no provenance of its
    # own to persist.
    with pytest.raises(SystemExit):
        main(["summary", "--save"])


def test_fleet_flags_validated():
    # --cells/--smoke only make sense for the fleet experiment.
    with pytest.raises(SystemExit):
        main(["fig13", "--cells", "4"])
    with pytest.raises(SystemExit):
        main(["fig13", "--smoke"])
    with pytest.raises(SystemExit):
        main(["fleet", "--cells", "0"])


def test_dump_traces_flag_validated():
    # Only tracing-capable experiments accept --dump-traces, and N >= 1.
    with pytest.raises(SystemExit):
        main(["fig13", "--dump-traces", "3"])
    with pytest.raises(SystemExit):
        main(["fig09", "--dump-traces", "0"])
    with pytest.raises(SystemExit):
        main(["fig09", "--dump-traces", "not-a-number"])
