"""Fleet determinism: jobs-invariance, order-invariance, allocator purity.

Uses a deliberately tiny, uncontended two-cell fleet (media + video, the
two cheapest apps) so three full fleet runs stay test-suite friendly;
the allocator-behaviour cases live in ``test_allocator.py`` as pure
unit tests, and the run-sharing bookkeeping in ``test_shared_runs.py``.
"""

import pytest

from repro.api import RunOptions, SLOOptions, simulate_fleet
from repro.fleet import (
    CellSpec,
    FleetSpec,
    experiment_meta,
    fleet_report,
    plan_fleet,
    static_equal,
)

CELLS = (
    CellSpec("a-media", "media-service", "constant", seed=101),
    CellSpec("b-video", "video-pipeline", "constant", seed=202),
)

OPTIONS = RunOptions(
    digest=True,
    scale="fleet",
    duration_s=120.0,
    measure_from_s=30.0,
    slo=SLOOptions(),
)


def _spec(cells=CELLS):
    return FleetSpec(
        cells=cells,
        seed=7,
        total_nodes=6,
        node_cpus=8,
        node_memory_gb=32.0,
        min_nodes_per_cell=2,
    )


@pytest.fixture(scope="module")
def completions():
    """Labels of the baseline's executed runs, in completion order."""
    return []


@pytest.fixture(scope="module")
def baseline(completions):
    return simulate_fleet(
        _spec(),
        options=OPTIONS,
        jobs=1,
        on_complete=lambda plan, _result: completions.append(plan.label),
    )


def test_plan_lowering(baseline):
    plan = plan_fleet(_spec(), OPTIONS)
    budgets = static_equal(_spec())
    probes = plan.probe_plans(budgets)
    assert [p.label for p in probes] == [
        "fleet:probe:a-media",
        "fleet:probe:b-video",
    ]
    probe_options = probes[0].kwargs["options"]
    assert probe_options.cluster.nodes == 3
    assert probe_options.cluster.node_cpus == 8
    assert probe_options.cluster.cap_on_full is True
    assert probe_options.duration_s == 50.0  # 5/12 of the main epoch
    assert probe_options.seed == 101
    mains = plan.main_plans({"greedy": budgets, "static": budgets})
    assert [p.label for p in mains] == [
        "fleet:greedy:a-media",
        "fleet:greedy:b-video",
        "fleet:static:a-media",
        "fleet:static:b-video",
    ]
    assert mains[0].kwargs["options"].duration_s == 120.0


def test_fleet_is_jobs_invariant(baseline):
    """jobs=2 merges to byte-identical digests and dashboard text."""
    parallel = simulate_fleet(_spec(), options=OPTIONS, jobs=2)
    assert parallel.digests() == baseline.digests()
    assert parallel.fleet_digest() == baseline.fleet_digest()
    assert fleet_report(parallel)[0] == fleet_report(baseline)[0]


def test_fleet_is_cell_order_invariant(baseline):
    """Submitting cells in a different order changes nothing."""
    shuffled = simulate_fleet(
        _spec(cells=tuple(reversed(CELLS))), options=OPTIONS, jobs=1
    )
    assert shuffled.digests() == baseline.digests()
    assert shuffled.fleet_digest() == baseline.fleet_digest()
    assert fleet_report(shuffled)[0] == fleet_report(baseline)[0]


def test_main_epoch_runs_each_distinct_plan_once(baseline, completions):
    """Agreeing budgets share one main-epoch run per cell: 2 probes + 2
    shared main runs, each labelled with every allocator it serves."""
    assert completions == [
        "fleet:probe:a-media",
        "fleet:probe:b-video",
        "fleet:greedy+static:a-media",
        "fleet:greedy+static:b-video",
    ]
    static = baseline.outcomes["static"]
    greedy = baseline.outcomes["greedy"]
    for name in static.results:
        assert static.results[name] is greedy.results[name]


def test_allocator_purity(baseline):
    """A plan duplicated across allocators, executed on its own, runs
    byte-identically to the shared result -- the property that makes
    sharing sound."""
    static = baseline.outcomes["static"]
    greedy = baseline.outcomes["greedy"]
    # An uncontended fleet never rebalances...
    assert greedy.budgets == static.budgets
    # ...and equal budgets mean byte-identical runs, per cell: run the
    # static allocator's plans separately, outside the shared epoch.
    plans = plan_fleet(_spec(), OPTIONS).main_plans({"static": static.budgets})
    for name, plan in zip(sorted(static.results), plans, strict=True):
        assert plan.label == f"fleet:static:{name}"
        rerun = plan()
        assert rerun.run_digest is not None
        assert rerun.run_digest == greedy.results[name].run_digest


def test_fleet_meta_routes_to_fleet_scale(baseline):
    meta = experiment_meta(baseline)
    assert meta.experiment == "fleet"
    assert meta.scale == "fleet"
    assert meta.extra["fleet_digest"] == baseline.fleet_digest()
    assert set(meta.seeds) == {"a-media", "b-video"}
    assert set(meta.extra["budgets"]) == {"greedy", "static"}
    # Every main-epoch run is digested and summarised.
    assert set(meta.summaries) == {
        f"{alloc}/{cell}"
        for alloc in ("greedy", "static")
        for cell in ("a-media", "b-video")
    }
