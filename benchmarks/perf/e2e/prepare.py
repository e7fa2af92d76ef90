"""The prepare step: cached artifacts every workload needs, outside timing.

The Ursa cells and the fleet read the cached backpressure thresholds and
Algorithm-1 explorations of the four benchmark apps from
``.repro_cache/``.  Building them cold takes minutes per app, so the
benchmark ships them under ``fixtures/`` as the cache's own pickles and
:func:`prepare` copies them into the cache before any timed run.  The
copies are byte for byte: the order of the dicts inside an exploration
steers the simulation, so a re-serialised artifact that compares equal
can still change every run digest.  The fixtures are checked against the
pinned Table V digests here, and end to end by the default-seed outputs
of every workload.

``python3 benchmarks/perf/e2e/run.py --prepare-cold`` rebuilds every
artifact from scratch, reports the one-off cold cost per app, and says
whether the rebuilt artifacts still equal the fixtures;
``--write-fixtures`` then refreshes the fixtures from the cache (needed
only when a change to the code legitimately changes the artifacts and
the sidecars under ``results/`` are re-pinned with it).
"""

from __future__ import annotations

import json
import os
import pickle

# Wall-clock timing of the cold build (benchmarks/perf lint profile).
import time
from pathlib import Path
from typing import Any

from repro.api import scale_profile
from repro.experiments import artifacts
from repro.fleet.spec import FLEET_APPS

__all__ = ["FIXTURES", "prepare", "prepare_cold", "write_fixtures"]

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _keys(app: str) -> tuple[str, str]:
    """Cache keys of one app's thresholds and exploration."""
    return f"bp-{app}", f"exploration-{app}-default"


def _cache_path(key: str) -> Path:
    # The naming of repro.experiments.artifacts._cached.
    return artifacts.cache_dir() / f"{key}-{scale_profile().name}.pkl"


def _fixture(key: str) -> Path:
    return FIXTURES / f"{key}.pkl"


def _check_pinned(root: Path) -> None:
    with (root / "results" / "table05_exploration.meta.json").open() as fh:
        pinned = json.load(fh)["digests"]
    for app in sorted(pinned):
        # The fixtures ship with this benchmark; unpickling them is safe.
        with _fixture(_keys(app)[1]).open("rb") as fh:
            digest = pickle.load(fh).trace_digest
        if digest != pinned[app]:
            raise RuntimeError(
                f"fixture exploration of {app} has digest {digest}, results/ "
                f"pins {pinned[app]}; rebuild with --prepare-cold and refresh "
                "with --write-fixtures"
            )


def prepare(root: Path) -> dict[str, str]:
    """Seed or verify every cached artifact; returns key -> action."""
    _check_pinned(root)
    actions = {}
    for app in FLEET_APPS:
        for key in _keys(app):
            data = _fixture(key).read_bytes()
            path = _cache_path(key)
            if path.is_file() and path.read_bytes() == data:
                actions[key] = "verified"
                continue
            tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
            tmp.write_bytes(data)
            os.replace(tmp, path)
            actions[key] = "seeded"
    return actions


def prepare_cold() -> dict[str, dict[str, Any]]:
    """Rebuild every artifact from scratch; cold seconds per app."""
    report = {}
    for app in FLEET_APPS:
        for key in _keys(app):
            _cache_path(key).unlink(missing_ok=True)
        start = time.perf_counter()
        artifacts.backpressure_thresholds(app)
        built = time.perf_counter()
        artifacts.exploration_result(app)
        end = time.perf_counter()
        report[app] = {
            "backpressure_s": round(built - start, 1),
            "exploration_s": round(end - built, 1),
            "equals_fixtures": all(
                _cache_path(k).read_bytes() == _fixture(k).read_bytes()
                for k in _keys(app)
            ),
        }
    return report


def write_fixtures() -> None:
    """Copy the cached artifacts into the fixtures (building what is missing)."""
    FIXTURES.mkdir(exist_ok=True)
    for app in FLEET_APPS:
        artifacts.backpressure_thresholds(app)
        artifacts.exploration_result(app)
        for key in _keys(app):
            _fixture(key).write_bytes(_cache_path(key).read_bytes())
