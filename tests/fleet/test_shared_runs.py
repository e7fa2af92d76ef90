"""Main-epoch run sharing, without simulation.

``_run_fleet_cell`` and the allocator table are stubbed so the test sees
exactly which plans ``run_fleet`` executes: a cell whose budget differs
across allocators runs once per allocator, a cell whose budget agrees
runs once and its result serves both.
"""

from types import SimpleNamespace

import repro.fleet.runner as runner
from repro.api import RunOptions, SLOOptions
from repro.fleet import ALLOCATORS, CellSpec, FleetSpec, static_equal

SPEC = FleetSpec(
    cells=(
        CellSpec("a-media", "media-service", "constant", seed=101),
        CellSpec("b-video", "video-pipeline", "constant", seed=202),
    ),
    seed=7,
    total_nodes=6,
    node_cpus=8,
    node_memory_gb=32.0,
    min_nodes_per_cell=2,
)


def _tilted(spec, signals):
    """Static-equal, plus one node for ``a-media`` only."""
    budgets = static_equal(spec)
    budgets["a-media"] += 1
    return budgets


def test_only_identical_plans_share_a_run(monkeypatch):
    executed = []

    def fake_cell(app_name, load_kind, options):
        executed.append((app_name, options.cluster.nodes, options.duration_s))
        return SimpleNamespace(
            app_name=app_name,
            nodes=options.cluster.nodes,
            slo=None,
            windowed_violation_rate=0.0,
            mean_cpu_allocation=1.0,
            capped_scale_ups=0,
            completed_requests=1,
            run_digest=None,
        )

    monkeypatch.setattr(runner, "_run_fleet_cell", fake_cell)
    monkeypatch.setattr(
        runner, "ALLOCATORS", {"greedy": _tilted, "static": ALLOCATORS["static"]}
    )
    labels = []
    result = runner.run_fleet(
        SPEC,
        options=RunOptions(scale="fleet", duration_s=120.0, slo=SLOOptions()),
        jobs=1,
        on_complete=lambda plan, _result: labels.append(plan.label),
    )

    # Two probes, then three main runs: a-media once per allocator
    # (3 vs 4 nodes), b-video once for both (3 nodes each).
    assert executed == [
        ("media-service", 3, 50.0),
        ("video-pipeline", 3, 50.0),
        ("media-service", 4, 120.0),
        ("video-pipeline", 3, 120.0),
        ("media-service", 3, 120.0),
    ]
    assert labels == [
        "fleet:probe:a-media",
        "fleet:probe:b-video",
        "fleet:greedy:a-media",
        "fleet:greedy+static:b-video",
        "fleet:static:a-media",
    ]
    greedy = result.outcomes["greedy"].results
    static = result.outcomes["static"].results
    assert greedy["a-media"] is not static["a-media"]
    assert (greedy["a-media"].nodes, static["a-media"].nodes) == (4, 3)
    assert greedy["b-video"] is static["b-video"]
    assert result.outcomes["greedy"].budgets == {"a-media": 4, "b-video": 3}
    assert result.outcomes["static"].budgets == {"a-media": 3, "b-video": 3}
