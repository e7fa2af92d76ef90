#!/usr/bin/env python3
"""Compare fresh BENCH_*.json results against a recorded snapshot.

The perf trend gate: CI (``.github/workflows/bench.yml``) and ``make
perf-check`` snapshot the committed ``BENCH_engine.json`` /
``BENCH_runner.json``, re-run ``make perf`` (which overwrites them), and
then call this script to compare fresh numbers against the snapshot.  A
throughput metric that drops -- or a duration metric that grows -- by
more than the threshold (default 20 %) fails the check.

The tolerance is deliberately loose: shared CI runners jitter by several
percent run to run; the gate exists to catch step-change regressions
(an accidentally de-optimized hot path), not single-digit noise.

Usage::

    python benchmarks/perf/check_regression.py --baseline-dir /tmp/bench-baseline
    python benchmarks/perf/check_regression.py --threshold 0.3 ...
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

#: (file, JSON path, direction) for every gated metric.  Direction
#: ``higher`` = throughput (regression is a drop), ``lower`` = duration
#: (regression is growth).
METRICS = [
    ("BENCH_engine.json", ("current", "timeout_churn", "events_per_sec"), "higher"),
    ("BENCH_engine.json", ("current", "event_pingpong", "events_per_sec"), "higher"),
    (
        "BENCH_engine.json",
        ("current", "resource_contention", "events_per_sec"),
        "higher",
    ),
    ("BENCH_engine.json", ("current", "store_handoff", "events_per_sec"), "higher"),
    ("BENCH_engine.json", ("current", "composite", "events_per_sec"), "higher"),
    ("BENCH_engine.json", ("traced", "composite", "events_per_sec"), "higher"),
    (
        "BENCH_runner.json",
        ("deployment", "sim_seconds_per_wall_second"),
        "higher",
    ),
    ("BENCH_runner.json", ("grid", "sequential_seconds"), "lower"),
    ("BENCH_runner.json", ("grid", "speedup"), "higher"),
    ("BENCH_runner.json", ("grid", "pool_amortized_speedup"), "higher"),
]

#: Absolute floors checked against the *fresh* numbers only (no
#: snapshot needed): (file, metric path, floor, precondition).  The
#: precondition is ``None`` or ``(path, minimum)`` -- e.g. the 2x
#: parallel-grid floor only applies when the benchmark machine actually
#: has >= 4 CPUs; on a 1-CPU container parallelism is structurally pure
#: overhead (measured 0.83x cold / 0.92x warm under load), so the
#: unconditional floors only assert that the overhead stays bounded.
FLOORS = [
    ("BENCH_runner.json", ("grid", "speedup"), 0.70, None),
    ("BENCH_runner.json", ("grid", "speedup"), 2.0, (("cpus",), 4)),
    ("BENCH_runner.json", ("grid", "pool_amortized_speedup"), 0.75, None),
    ("BENCH_runner.json", ("grid", "pool_amortized_speedup"), 2.0, (("cpus",), 4)),
]

#: Absolute ceilings, same shape as FLOORS but lower-is-better: checked
#: against the fresh numbers, failing when the metric *exceeds* the
#: bound.  These gate allocator pressure in the event core
#: (docs/performance.md): the tracemalloc live peak per event (catches
#: leaked queue entries or events kept alive after processing) and GC
#: collections per run.
CEILINGS = [
    (
        "BENCH_engine.json",
        ("allocations", "timeout_churn", "bytes_per_event"),
        2.0,
        None,
    ),
    (
        "BENCH_engine.json",
        ("allocations", "timeout_churn", "gc_collections"),
        8,
        None,
    ),
]


def _lookup(payload: dict, path: tuple[str, ...]) -> float | None:
    node = payload
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return float(node) if isinstance(node, (int, float)) else None


def _load(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None


def check(
    baseline_dir: Path,
    current_dir: Path,
    threshold: float,
) -> tuple[list[str], list[str], list[str]]:
    """Returns (report lines, failure lines, skipped-gate lines).

    Skipped gates are reported separately so a run where e.g. the 2x
    parallel-grid floor was disarmed (a <4-CPU container) cannot be
    mistaken for one where it passed -- ``main`` prints them in a
    dedicated summary block.
    """
    lines: list[str] = []
    failures: list[str] = []
    skipped: list[str] = []

    def skip(line: str) -> None:
        lines.append(line)
        skipped.append(line)

    cache: dict[Path, dict | None] = {}
    for filename, path, direction in METRICS:
        base_payload = cache.setdefault(
            baseline_dir / filename, _load(baseline_dir / filename)
        )
        cur_payload = cache.setdefault(
            current_dir / filename, _load(current_dir / filename)
        )
        name = f"{filename}:{'.'.join(path)}"
        if base_payload is None or cur_payload is None:
            skip(f"SKIP  {name}  (missing file)")
            continue
        base = _lookup(base_payload, path)
        cur = _lookup(cur_payload, path)
        if base is None or cur is None or base <= 0:
            skip(f"SKIP  {name}  (missing metric)")
            continue
        change = cur / base - 1.0
        regressed = (
            change < -threshold if direction == "higher" else change > threshold
        )
        status = "FAIL" if regressed else "ok"
        lines.append(
            f"{status:4s}  {name}  baseline={base:.1f}  current={cur:.1f}  "
            f"({change:+.1%}, {direction} is better)"
        )
        if regressed:
            failures.append(lines[-1])
    for bounds, kind in ((FLOORS, "floor"), (CEILINGS, "ceiling")):
        for filename, path, bound, precondition in bounds:
            cur_payload = cache.setdefault(
                current_dir / filename, _load(current_dir / filename)
            )
            name = f"{filename}:{'.'.join(path)}"
            if cur_payload is None:
                skip(f"SKIP  {name} {kind} {bound}  (missing file)")
                continue
            cur = _lookup(cur_payload, path)
            if cur is None:
                skip(f"SKIP  {name} {kind} {bound}  (missing metric)")
                continue
            if precondition is not None:
                gate_path, minimum = precondition
                gate_value = _lookup(cur_payload, gate_path)
                if gate_value is None or gate_value < minimum:
                    gate_name = ".".join(gate_path)
                    skip(
                        f"SKIP  {name} {kind} {bound}  "
                        f"(requires {gate_name} >= {minimum}, have {gate_value})"
                    )
                    continue
            failed = cur < bound if kind == "floor" else cur > bound
            status = "FAIL" if failed else "ok"
            lines.append(f"{status:4s}  {name}  current={cur:.3f}  {kind}={bound}")
            if failed:
                failures.append(lines[-1])
    return lines, failures, skipped


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        required=True,
        help="directory holding the snapshot BENCH_*.json files",
    )
    parser.add_argument(
        "--current-dir",
        type=Path,
        default=REPO_ROOT,
        help="directory holding the fresh BENCH_*.json files (default: repo root)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="allowed fractional regression before failing (default 0.20)",
    )
    args = parser.parse_args(argv)
    if not 0 < args.threshold < 1:
        parser.error(f"--threshold must be in (0, 1), got {args.threshold}")
    lines, failures, skipped = check(
        args.baseline_dir, args.current_dir, args.threshold
    )
    print("\n".join(lines))
    if skipped:
        # Disarmed gates are not passes; say so explicitly (a silent skip
        # of e.g. the 2x multicore floor used to read as "passed").
        print(f"\n{len(skipped)} gate(s) skipped, NOT checked:")
        for line in skipped:
            print(f"  {line.removeprefix('SKIP').strip()}")
    if failures:
        print(
            f"\n{len(failures)} metric(s) regressed more than "
            f"{args.threshold:.0%} vs the recorded baseline",
            file=sys.stderr,
        )
        return 1
    checked = len(lines) - len(skipped)
    print(
        f"\nall {checked} checked metric(s) within {args.threshold:.0%} of "
        "the recorded baseline / inside their absolute bounds"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
