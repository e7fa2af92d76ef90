"""Unit and property tests for random streams and distributions."""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.random import (
    Constant,
    Exponential,
    Hyperexponential,
    LogNormal,
    Pareto,
    RandomStreams,
    Uniform,
)


def test_same_seed_same_stream():
    a = RandomStreams(seed=7).stream("svc")
    b = RandomStreams(seed=7).stream("svc")
    assert a.random() == b.random()


def test_different_names_independent():
    streams = RandomStreams(seed=7)
    a = streams.stream("svc-a").random(10)
    b = streams.stream("svc-b").random(10)
    assert not np.allclose(a, b)


def test_stream_is_cached():
    streams = RandomStreams(seed=0)
    assert streams.stream("x") is streams.stream("x")


def test_fork_changes_streams():
    base = RandomStreams(seed=3)
    fork = base.fork(1)
    assert base.stream("s").random() != fork.stream("s").random()


@pytest.mark.parametrize(
    "dist",
    [
        Constant(2.0),
        Exponential(2.0),
        LogNormal(2.0, cv=0.5),
        Pareto(2.0, alpha=2.5),
        Uniform(1.0, 3.0),
        Hyperexponential(1.0, 11.0, p_slow=0.1),
    ],
)
def test_distribution_mean_close(dist):
    rng = np.random.default_rng(0)
    samples = np.array([dist.sample(rng) for _ in range(20000)])
    assert samples.min() >= 0
    assert samples.mean() == pytest.approx(dist.mean, rel=0.15)


@pytest.mark.parametrize(
    "dist",
    [
        Constant(2.0),
        Exponential(2.0),
        LogNormal(2.0),
        Pareto(2.0),
        Uniform(1.0, 3.0),
        Hyperexponential(1.0, 11.0),
    ],
)
def test_scaled_scales_mean(dist):
    assert dist.scaled(0.5).mean == pytest.approx(dist.mean * 0.5)


def test_lognormal_cv():
    dist = LogNormal(10.0, cv=1.0)
    rng = np.random.default_rng(1)
    samples = np.array([dist.sample(rng) for _ in range(50000)])
    cv = samples.std() / samples.mean()
    assert cv == pytest.approx(1.0, rel=0.1)


@pytest.mark.parametrize(
    "bad",
    [
        lambda: Exponential(0),
        lambda: Exponential(-1),
        lambda: LogNormal(1.0, cv=0),
        lambda: LogNormal(-1.0),
        lambda: Pareto(1.0, alpha=1.0),
        lambda: Uniform(3.0, 1.0),
        lambda: Hyperexponential(1.0, 2.0, p_slow=1.5),
        lambda: Constant(-0.1),
    ],
)
def test_invalid_parameters_rejected(bad):
    with pytest.raises(ValueError):
        bad()


@given(mean=st.floats(0.01, 1e4), cv=st.floats(0.05, 3.0))
@settings(max_examples=50)
def test_lognormal_samples_positive(mean, cv):
    dist = LogNormal(mean, cv=cv)
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert dist.sample(rng) > 0


@given(seed=st.integers(0, 2**31), name=st.text(min_size=1, max_size=20))
@settings(max_examples=30)
def test_streams_reproducible_property(seed, name):
    a = RandomStreams(seed=seed).stream(name).random(5)
    b = RandomStreams(seed=seed).stream(name).random(5)
    assert np.array_equal(a, b)


def _uncached_lognormal_draw(dist: LogNormal, rng: np.random.Generator) -> float:
    """The per-sample parameter formula the cached (mu, sigma) replaced."""
    sigma2 = math.log(1.0 + dist.cv**2)
    mu = math.log(dist.mean) - sigma2 / 2.0
    return float(rng.lognormal(mu, math.sqrt(sigma2)))


@pytest.mark.parametrize("mean, cv", [(0.005, 0.5), (0.3, 0.25), (12.0, 1.7)])
def test_lognormal_cached_params_draw_bit_identically(mean, cv):
    dist = LogNormal(mean, cv)
    cached_rng = np.random.default_rng(2024)
    reference_rng = np.random.default_rng(2024)
    cached = [dist.sample(cached_rng) for _ in range(500)]
    reference = [_uncached_lognormal_draw(dist, reference_rng) for _ in range(500)]
    assert cached == reference


def test_lognormal_params_survive_pickle_and_replace():
    dist = LogNormal(0.02, 0.6)
    clone = pickle.loads(pickle.dumps(dist))
    assert clone == dist
    assert (clone.mu, clone.sigma) == (dist.mu, dist.sigma)
    replaced = dataclasses.replace(dist, cv=1.2)
    assert (replaced.mu, replaced.sigma) == (
        LogNormal(0.02, 1.2).mu,
        LogNormal(0.02, 1.2).sigma,
    )
    assert (replaced.mu, replaced.sigma) != (dist.mu, dist.sigma)
    # The derived parameters stay out of equality and the repr.
    assert "mu" not in repr(dist)
