"""Tests of the end-to-end benchmark's own logic (fast; no workload runs).

Run:  PYTHONPATH=src python -m pytest benchmarks/perf/e2e -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import attribution
import prepare
import run
import workloads

from repro.sim.engine import Environment


class TinyWorkload:
    """A few simulated processes: enough for a real profile, in milliseconds."""

    name = "tiny"
    jobs = 1

    def setup(self, seed):
        return 0.001, {"artifact_load_s": 0.001}

    def run(self, seed):
        env = Environment()

        def ticker(env):
            for _ in range(50):
                yield env.timeout(1.0)

        for _ in range(seed):
            env.process(ticker(env))
        env.run()
        return workloads.RunRecord(
            wall_s=0.01, sim_s=env.now, outputs={"now": env.now, "processes": seed},
            result=env.now,
        )

    def close(self):
        pass


def declared(section):
    return {m["name"]: m["unit"] for m in run.benchmark_metrics(section)}


def test_end_to_end_names_match_benchmark_json():
    attempts = run.Attempts(reference=None)
    metrics = run.run_untraced(TinyWorkload(), 3, 0.0, attempts, import_s=0.5)
    assert set(metrics) == set(declared("end_to_end"))
    line = json.loads(run.result_line(metrics, declared("end_to_end"), 1, 0))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_per_layer_names_match_and_shares_sum_to_one():
    attempts = run.Attempts(reference=None)
    metrics = run.run_traced(TinyWorkload(), 3, attempts, calib_s=0.1)
    assert set(metrics) == set(declared("per_layer"))
    shares = [metrics[f"{layer}.share"] for layer in attribution.LAYERS]
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)
    assert metrics["sim.envs"] == 1
    assert metrics["sim.timeouts"] == 150
    assert attempts.failed == 0 and attempts.attempted == 2


def test_result_line_rejects_undeclared_metrics():
    with pytest.raises(ValueError):
        run.result_line({"wall_s": 1.0, "extra": 2.0}, {"wall_s": "s"}, 1, 0)


def test_wrong_reference_counts_as_failure():
    attempts = run.Attempts(reference={"now": 49.0})
    attempts.run("run 1", lambda: TinyWorkload().run(1))
    assert (attempts.attempted, attempts.failed) == (1, 1)
    assert not json.loads(run.result_line({}, {}, 1, 1))["correct"]


def test_disagreeing_runs_and_raises_count_as_failures():
    attempts = run.Attempts(reference=None)
    attempts.run("run 1", lambda: TinyWorkload().run(1))
    attempts.run("run 2", lambda: TinyWorkload().run(2))

    def boom():
        raise RuntimeError("worker crashed")

    attempts.run("run 3", boom)
    assert (attempts.attempted, attempts.failed) == (3, 2)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pinned_references_load(name):
    reference = workloads.WORKLOADS[name]().reference(run.ROOT)
    assert reference
    assert workloads.compare_outputs(dict(reference), reference) == []
    wrong = dict(reference)
    key = sorted(wrong)[0]
    wrong[key] = "not-the-pinned-value"
    assert workloads.compare_outputs(wrong, reference) == [key]


def test_fixtures_match_pinned_exploration_digests():
    prepare._check_pinned(run.ROOT)


def test_layer_of_groups_by_package():
    src = str(run.ROOT / "src" / "repro")
    assert attribution.layer_of((f"{src}/sim/engine.py", 1, "run")) == "sim"
    assert attribution.layer_of((f"{src}/api.py", 1, "simulate")) == "other"
    assert attribution.layer_of(("~", 0, "<built-in method builtins.len>")) == "interp"
    lock = "<method 'acquire' of '_thread.lock' objects>"
    assert attribution.layer_of(("~", 0, lock)) == "wait"


def test_exits_nonzero_without_the_program(tmp_path):
    for rel in json.loads((run.ROOT / "BENCHMARK.json").read_text())["paths"]:
        shutil.copytree(run.ROOT / rel, tmp_path / rel)
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/e2e/run.py", "--workload", "cell-social",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
