"""No perf gate is silently disarmed.

``benchmarks/perf/check_regression.py`` prints ``SKIP`` and passes when
a gated metric is missing from a ``BENCH_*.json`` file, so a renamed or
deleted benchmark key would quietly switch its gate off.  These tests
pin every gated path -- and every precondition path -- to a numeric
value in the committed BENCH files.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "check_regression", REPO_ROOT / "benchmarks" / "perf" / "check_regression.py"
)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)


def _gated_paths() -> list[tuple[str, tuple[str, ...]]]:
    paths = [(filename, path) for filename, path, _ in check_regression.METRICS]
    for filename, path, _bound, precondition in (
        check_regression.FLOORS + check_regression.CEILINGS
    ):
        paths.append((filename, path))
        if precondition is not None:
            paths.append((filename, precondition[0]))
    return sorted(set(paths))


@pytest.mark.parametrize(
    ("filename", "path"),
    _gated_paths(),
    ids=lambda value: value if isinstance(value, str) else ".".join(value),
)
def test_gated_path_resolves_in_committed_bench(filename, path):
    payload = json.loads((REPO_ROOT / filename).read_text(encoding="utf-8"))
    assert check_regression._lookup(payload, path) is not None, (
        f"{filename}:{'.'.join(path)} is gated but missing from the committed file"
    )


def test_committed_bench_checks_against_itself_without_missing_skips():
    _lines, failures, skipped = check_regression.check(REPO_ROOT, REPO_ROOT, 0.20)
    assert failures == []
    # Only precondition skips (e.g. the >= 4-CPU floors) may remain.
    assert [line for line in skipped if "missing" in line] == []
