"""The end-to-end workloads: what each one runs and what it must output.

Every workload is a batch job run to completion in this process (the
fleet fans its cells out over the repository's fork pool).  Load inside
the simulation is open-loop Poisson at the fixed per-app rates of
``repro.experiments.runner.DEFAULT_RPS``; the benchmark's ``--seed n``
selects the workload seed ``default_seed + n``, so ``n = 0`` is the
seed the sidecars under ``results/`` were pinned with and its outputs
must equal them.

Each workload exposes:

* ``setup(seed)`` -- the work a user pays before the first simulated
  event (artifact load, app and cluster build, manager attach with its
  MIP solve, pool spin-up); returns its wall seconds and per-phase
  diagnostics.
* ``run(seed)`` -- one complete run; returns a :class:`RunRecord` whose
  ``outputs`` are deterministic for a given seed.
* ``reference(root)`` -- the outputs pinned under ``results/`` for the
  default seed.
"""

from __future__ import annotations

import json
import os

# Wall-clock timing is the purpose of this harness (benchmarks/perf lint
# profile, repro.analysis.policy).
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.api import (
    DeploymentResult,
    RunOptions,
    SLOOptions,
    default_fleet,
    scale_profile,
    simulate,
    simulate_fleet,
)
from repro.core.exploration import ExplorationController
from repro.experiments import artifacts
from repro.experiments.parallel import RunPlan, run_many, shutdown_pool
from repro.fleet.spec import FLEET_APPS, FLEET_SEED
from repro.sim.random import RandomStreams
from repro.sim.trace import RunDigest
from repro.workload.defaults import default_mix_for

__all__ = ["RunRecord", "WORKLOADS", "compare_outputs"]


@dataclass
class RunRecord:
    """One complete run of a workload."""

    #: Host seconds of the whole run, as a user would time it.
    wall_s: float
    #: Simulated seconds the run advanced, summed over every environment.
    sim_s: float
    #: Deterministic outputs: equal for equal seeds, traced or not.
    outputs: dict[str, Any]
    #: Every deployment the run executed (empty for exploration).
    deployments: list[DeploymentResult] = field(default_factory=list)
    #: The run's top-level result object (its pickle is ``result_bytes``).
    result: Any = None


def compare_outputs(outputs: dict[str, Any], reference: dict[str, Any]) -> list[str]:
    """Keys whose value differs from ``reference`` (missing keys differ)."""
    return sorted(k for k, v in reference.items() if outputs.get(k) != v)


def _meta(root: Path, relpath: str) -> dict[str, Any]:
    with (root / "results" / relpath).open() as fh:
        return json.load(fh)


class CellSocial:
    """The workhorse cell: social-network / constant / Ursa, quick scale."""

    name = "cell-social"
    app = "social-network"
    #: Grid seed pinned for this cell in fig11_12_performance.meta.json.
    default_seed = 252444990
    jobs = 1
    #: A run this long stops right after the manager attaches: the
    #: warm-up before attach is 10 simulated seconds and the generator
    #: never fires, so the run is set-up alone.
    setup_only_s = 10.0

    def setup(self, seed: int) -> tuple[float, dict[str, float]]:
        start = time.perf_counter()
        artifacts.app_spec(self.app)
        artifacts.exploration_result(self.app)
        loaded = time.perf_counter()
        simulate(
            self.app,
            "constant",
            "ursa",
            RunOptions(seed=seed, duration_s=self.setup_only_s, measure_from_s=0.0),
        )
        end = time.perf_counter()
        # The short run loads the artifacts again itself, so it alone is
        # the set-up a user of simulate() pays.
        return end - loaded, {"artifact_load_s": loaded - start}

    def run(self, seed: int) -> RunRecord:
        start = time.perf_counter()
        result = simulate(self.app, "constant", "ursa", RunOptions(seed=seed))
        wall = time.perf_counter() - start
        return RunRecord(
            wall_s=wall,
            sim_s=result.metrics.duration_s,
            outputs={
                "completed_requests": float(result.completed_requests),
                "mean_cpus": round(result.mean_cpu_allocation, 9),
                "violation_rate": round(result.windowed_violation_rate, 9),
            },
            deployments=[result],
            result=result,
        )

    def reference(self, root: Path) -> dict[str, Any]:
        meta = _meta(root, "fig11_12_performance.meta.json")
        if meta["seeds"][f"{self.app}/constant"] != self.default_seed:
            raise ValueError("fig11_12 sidecar pins another seed for the cell")
        return dict(meta["summaries"][f"{self.app}/constant/ursa"])

    def close(self) -> None:
        pass


class FleetSmoke:
    """What ``python -m repro fleet --smoke`` runs: 4 cells, 12 cell runs."""

    name = "fleet-smoke"
    default_seed = FLEET_SEED
    jobs = 2
    cells = 4

    @staticmethod
    def options() -> RunOptions:
        # The CLI's --smoke options (repro.experiments.cli).
        return RunOptions(
            digest=True,
            scale="fleet",
            slo=SLOOptions(),
            duration_s=160.0,
            measure_from_s=40.0,
        )

    def setup(self, seed: int) -> tuple[float, dict[str, float]]:
        shutdown_pool()
        start = time.perf_counter()
        for app in FLEET_APPS:
            artifacts.app_spec(app)
            artifacts.exploration_result(app)
        loaded = time.perf_counter()
        # One trivial plan per worker forks the whole pool, as the first
        # grid of a CLI invocation would.
        run_many([RunPlan(os.getpid)] * self.jobs, jobs=self.jobs)
        end = time.perf_counter()
        return end - start, {
            "artifact_load_s": loaded - start,
            "pool_start_s": end - loaded,
        }

    def run(self, seed: int) -> RunRecord:
        spec = default_fleet(self.cells, seed=seed)
        start = time.perf_counter()
        result = simulate_fleet(spec, options=self.options(), jobs=self.jobs)
        wall = time.perf_counter() - start
        deployments = [result.probe[name] for name in sorted(result.probe)]
        for allocator in sorted(result.outcomes):
            outcome = result.outcomes[allocator]
            deployments += [outcome.results[n] for n in sorted(outcome.results)]
        greedy = result.outcomes["greedy"]
        outputs: dict[str, Any] = {
            "fleet_digest": result.fleet_digest(),
            "violation_rate": greedy.fleet_violation_rate(),
            "mean_cpus": greedy.mean_cpus(),
            "completed_requests": float(greedy.completed_requests()),
        }
        outputs.update(
            {f"digest:{label}": d for label, d in result.digests().items()}
        )
        return RunRecord(
            wall_s=wall,
            sim_s=sum(d.metrics.duration_s for d in deployments),
            outputs=outputs,
            deployments=deployments,
            result=result,
        )

    def reference(self, root: Path) -> dict[str, Any]:
        meta = _meta(root, "fleet/fleet_smoke.meta.json")
        ref: dict[str, Any] = {
            "fleet_digest": meta["extra"]["fleet_digest"],
            "violation_rate": meta["extra"]["fleet_violation_rate"]["greedy"],
        }
        ref.update({f"digest:{k}": v for k, v in meta["digests"].items()})
        return ref

    def close(self) -> None:
        shutdown_pool()


class ExploreVideo:
    """A cold Algorithm-1 exploration of video-pipeline (Table V's cost).

    One short-lived environment per service (three), on the
    per-candidate arrival path: per-environment set-up weighs far more
    here than in a deployment.  (media-service's exploration is the
    same mechanism at 35x the cost: 40 s untraced and 160 s under the
    profiler on a 2-CPU host, too long for one benchmark run.)
    """

    name = "explore-video"
    app = "video-pipeline"
    #: The exploration seed of repro.experiments.artifacts, which built
    #: the run pinned in table05_exploration.meta.json.
    default_seed = 202
    jobs = 1

    def setup(self, seed: int) -> tuple[float, dict[str, float]]:
        start = time.perf_counter()
        self._inputs = (
            artifacts.app_spec(self.app),
            default_mix_for(self.app),
            artifacts.app_rps(self.app),
            artifacts.backpressure_thresholds(self.app),
        )
        wall = time.perf_counter() - start
        return wall, {"artifact_load_s": wall}

    def run(self, seed: int) -> RunRecord:
        spec, mix, rps, thresholds = self._inputs
        profile = scale_profile()
        start = time.perf_counter()
        controller = ExplorationController(
            RandomStreams(seed),
            window_s=profile.exploration_window_s,
            samples_per_step=profile.exploration_samples_per_step,
            warmup_s=profile.exploration_warmup_s,
            settle_s=profile.exploration_settle_s,
        )
        result = controller.explore_app(spec, mix, rps, thresholds, trace=RunDigest())
        wall = time.perf_counter() - start
        return RunRecord(
            wall_s=wall,
            sim_s=sum(p.profiling_time_s for p in result.profiles.values()),
            outputs={
                "trace_digest": result.trace_digest,
                "ursa_samples": float(result.total_samples),
                "ursa_time_h": round(result.exploration_time_s / 3600.0, 6),
            },
            result=result,
        )

    def reference(self, root: Path) -> dict[str, Any]:
        meta = _meta(root, "table05_exploration.meta.json")
        ref = dict(meta["summaries"][self.app])
        ref["trace_digest"] = meta["digests"][self.app]
        return ref

    def close(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (CellSocial, FleetSmoke, ExploreVideo)}
