#!/usr/bin/env python3
"""End-to-end benchmark of the simulator, with per-layer attribution.

Run from the repository root:

    python3 benchmarks/perf/e2e/run.py --workload cell-social --seed 0 \\
        --seconds 40 --trace 0

``--trace 0`` times untraced runs and reports the end-to-end metrics;
``--trace 1`` runs the workload once untraced and once under cProfile
and reports the per-layer metrics.  Either way every run's outputs are
checked: runs at one seed must agree with each other (traced or not),
and at ``--seed 0`` -- the seed pinned under ``results/`` -- with the
pinned sidecars.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--prepare-cold`` rebuilds the cached artifacts from scratch and
reports their one-off cost; ``--write-fixtures`` refreshes the shipped
artifacts from the cache (see prepare.py and README.md).
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import pickle
import platform
import resource
import statistics
import sys
import tempfile

# Wall-clock timing is the purpose of this benchmark (benchmarks/perf
# lint profile, repro.analysis.policy).
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3
#: Iterations of the fixed pure-Python calibration loop.
CALIB_ITERATIONS = 1_000_000

def calibrate(rounds: int = 3) -> float:
    """Median seconds of a fixed pure-Python loop: the host's speed."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 0
        for i in range(CALIB_ITERATIONS):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def peak_rss_mb(jobs: int) -> float:
    """Peak RSS of this process plus ``jobs`` times the largest reaped
    child's: an upper bound on the pool's combined peak (no children,
    no addend)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + jobs * child) / 1024.0


def problems(record, first, reference: dict | None) -> list[str]:
    """Why ``record`` is wrong: differs from the seed's first run or
    from the pinned reference."""
    from workloads import compare_outputs

    found = []
    if first is not None and record.outputs != first.outputs:
        found.append(
            "differs from the first run at this seed: "
            + ", ".join(compare_outputs(record.outputs, first.outputs))
        )
    if reference is not None:
        keys = compare_outputs(record.outputs, reference)
        if keys:
            found.append("differs from the pinned sidecar: " + ", ".join(keys))
    return found


def benchmark_metrics(section: str) -> list[dict[str, str]]:
    with BENCHMARK_JSON.open() as fh:
        return json.load(fh)[section]


def result_line(
    metrics: dict[str, float], units: dict[str, str], attempted: int, failed: int
) -> str:
    """The final JSON line; ``metrics`` must be exactly the declared set."""
    if set(metrics) != set(units):
        raise ValueError(
            f"measured metrics {sorted(set(metrics) ^ set(units))} "
            "do not match the declared set"
        )
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()
            },
        }
    )


class Attempts:
    """Runs of one seed: counts raises and wrong outputs as failures."""

    def __init__(self, reference: dict | None) -> None:
        self.reference = reference
        self.records: list = []
        self.attempted = 0
        self.failed = 0

    def run(self, label: str, fn):
        self.attempted += 1
        try:
            record = fn()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        first = self.records[0] if self.records else None
        found = problems(record, first, self.reference)
        for problem in found:
            print(f"FAIL {label}: {problem}")
        self.failed += bool(found)
        self.records.append(record)
        return record


def run_untraced(workload, seed: int, seconds: float, attempts: Attempts,
                 import_s: float) -> dict[str, float]:
    setups = [workload.setup(seed)[0] for _ in range(SETUP_REPEATS)]
    start = time.perf_counter()
    elapsed = 0.0
    # Start another run only while it should end within ``seconds``.
    while attempts.attempted == 0 or elapsed * (1 + 1 / attempts.attempted) <= seconds:
        attempts.run(f"run {attempts.attempted + 1}", lambda: workload.run(seed))
        elapsed = time.perf_counter() - start
    workload.close()
    records = attempts.records
    if not records:
        raise RuntimeError("every run raised")
    return {
        "wall_s": statistics.median(r.wall_s for r in records),
        "sim_s_per_wall_s": statistics.median(r.sim_s / r.wall_s for r in records),
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(workload.jobs),
    }


def run_traced(workload, seed: int, attempts: Attempts, calib_s: float) -> dict[str, float]:
    from attribution import (
        LAYERS,
        WorkerProfiles,
        boundary_functions,
        calls,
        entered_time,
        layer_times,
        load_stats,
        module_files,
    )

    workload.setup(seed)
    untraced = attempts.run("untraced run", lambda: workload.run(seed))
    workload.close()
    with tempfile.TemporaryDirectory(prefix=".e2e-trace-", dir=ROOT) as tmp:
        workers = WorkerProfiles(Path(tmp)) if workload.jobs > 1 else None
        _setup_s, phases = workload.setup(seed)
        profiler = cProfile.Profile()

        def profiled():
            profiler.enable()
            try:
                return workload.run(seed)
            finally:
                profiler.disable()

        traced = attempts.run("traced run", profiled)
        # Shutting the pool down makes every worker write its profile.
        workload.close()
        dumps = workers.dumps() if workers is not None else []
        stats = load_stats(profiler, dumps)
    if untraced is None or traced is None:
        raise RuntimeError("a run raised; no per-layer metrics")

    self_s, wait_s = layer_times(stats)
    total = sum(self_s.values())
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.share"] = self_s[layer] / total
    for name, functions in boundary_functions().items():
        metrics[name] = calls(stats, functions)
    metrics["sim.resumes_per_hop"] = metrics["sim.resumes"] / max(
        1, metrics["services.hops"]
    )
    for name, path in module_files().items():
        metrics[name] = entered_time(stats, path)
    deployments = untraced.deployments
    metrics["cluster.capped_scale_ups"] = sum(d.capped_scale_ups for d in deployments)
    metrics["experiments.artifact_load_s"] = phases.get("artifact_load_s", 0.0)
    metrics["experiments.pool_start_s"] = phases.get("pool_start_s", 0.0)
    metrics["experiments.pool_busy_frac"] = sum(
        d.wall_seconds for d in deployments
    ) / (workload.jobs * untraced.wall_s)
    metrics["experiments.result_bytes"] = len(pickle.dumps(untraced.result))
    for key in ("violation_rate", "mean_cpus", "completed_requests", "ursa_samples"):
        metrics[f"out.{key}"] = float(untraced.outputs.get(key, 0.0))
    metrics["trace.overhead"] = traced.wall_s / untraced.wall_s
    metrics["trace.wait_s"] = wait_s
    metrics["host.calib_s"] = calib_s
    return metrics


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0,
                        help="offset from the workload's pinned seed (0 = pinned)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="start untraced runs while the next should end within this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare-cold", action="store_true")
    parser.add_argument("--write-fixtures", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not (args.prepare_cold or args.write_fixtures):
        parser.error("--workload is required")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Artifacts are cached and pinned at the quick scale.
    os.environ["REPRO_SCALE"] = "quick"
    start = time.perf_counter()
    import prepare
    import workloads

    import_s = time.perf_counter() - start

    if args.prepare_cold or args.write_fixtures:
        if args.prepare_cold:
            print(json.dumps({"cold_prepare": prepare.prepare_cold()}, indent=2))
        if args.write_fixtures:
            prepare.write_fixtures()
        return 0
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    actions = prepare.prepare(ROOT)
    prepare_s = time.perf_counter() - start
    calib_s = calibrate()
    workload = workloads.WORKLOADS[args.workload]()
    seed = workload.default_seed + args.seed
    header = {
        "workload": workload.name,
        "seed": seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(ROOT),
        "src_sha256": _source_digest(ROOT),
        "host.calib_s": round(calib_s, 4),
        "prepare_s": round(prepare_s, 3),
        "prepare_seeded": sorted(k for k, v in actions.items() if v == "seeded"),
    }
    print("# header " + json.dumps(header, sort_keys=True))
    attempts = Attempts(workload.reference(ROOT) if args.seed == 0 else None)

    section = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        metrics = run_traced(workload, seed, attempts, calib_s)
    else:
        metrics = run_untraced(workload, seed, args.seconds, attempts, import_s)
    units = {m["name"]: m["unit"] for m in benchmark_metrics(section)}
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units.get(name, '?')}")
    for key, value in attempts.records[0].outputs.items():
        print(f"output {key:25s} {value}")
    print("run wall_s " + " ".join(f"{r.wall_s:.3f}" for r in attempts.records))
    print(f"runs {attempts.attempted}, failed {attempts.failed}, "
          f"failed_frac {attempts.failed / attempts.attempted:.3f}")
    print(result_line(metrics, units, attempts.attempted, attempts.failed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
