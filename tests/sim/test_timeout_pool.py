"""Timeout churn: long runs of timeouts keep their values and checks.

Every :class:`Timeout` is a fresh object pushed onto the engine's heap.
These tests pin that heavy timeout churn changes neither the input
checking nor the values and times a process observes.
"""

import pytest

from repro.sim.engine import Environment, SimulationError


def _spin(env: Environment, rounds: int) -> None:
    def looper(env):
        for _ in range(rounds):
            yield env.timeout(0.1)

    env.process(looper(env))
    env.run()


def test_negative_delay_rejected_on_both_paths():
    """Both constructors reject a time before now, before and after churn."""
    env = Environment()
    with pytest.raises(SimulationError, match="negative timeout delay"):
        env.timeout(-1.0)
    _spin(env, rounds=10)
    with pytest.raises(SimulationError, match="negative timeout delay"):
        env.timeout(-1.0)
    with pytest.raises(SimulationError, match="in the past"):
        env.timeout_at(env.now - 1.0)


def test_recycled_runs_match_fresh_runs():
    """Values and times survive a long timeout chain unchanged."""
    env = Environment()
    observed: list[tuple[float, object]] = []

    def worker(env):
        for i in range(30):
            value = yield env.timeout(0.25, value=i)
            observed.append((env.now, value))

    env.process(worker(env))
    env.run()
    assert observed == [(0.25 * (i + 1), i) for i in range(30)]
