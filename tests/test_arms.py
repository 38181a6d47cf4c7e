"""Sampling determinism and moment checks for the reward/context models."""

import math

import numpy as np
import pytest

from varalloc.arms import (
    ArmSpec,
    CanonicalEnv,
    ContextSpec,
    ContextualEnv,
    Family,
    NoiseRegime,
    Regime,
    gaussian_arm,
    rademacher_arm,
    sample_context,
    sample_reward,
    symmetric_beta_arm,
)
from varalloc.errors import ConfigurationError


def test_zero_variance_rejected():
    with pytest.raises(ConfigurationError):
        gaussian_arm(0.0, 0.0)


@pytest.mark.parametrize("variance", [math.nan, math.inf])
def test_non_finite_variance_rejected(variance):
    with pytest.raises(ConfigurationError):
        gaussian_arm(0.0, variance)


def test_bad_beta_shape_rejected():
    with pytest.raises(ConfigurationError):
        symmetric_beta_arm(0.0, -1.0)


def test_rademacher_support():
    arm = rademacher_arm(0.0)
    draws = sample_reward(arm, np.random.default_rng(0), 1000)
    assert set(np.unique(draws)) == {-1.0, 1.0}


def test_rademacher_variance_pinned():
    with pytest.raises(ConfigurationError):
        ArmSpec(Family.RADEMACHER, 0.0, 2.0)


def test_gaussian_monte_carlo_moments():
    arm = gaussian_arm(0.0, 2.0)
    draws = sample_reward(arm, np.random.default_rng(7), 10**6)
    assert abs(draws.mean()) < 0.01
    assert abs(draws.var(ddof=1) - 2.0) < 0.02


def test_seeded_determinism():
    arm = gaussian_arm(0.3, 1.5)
    a = sample_reward(arm, np.random.default_rng(123), 50)
    b = sample_reward(arm, np.random.default_rng(123), 50)
    np.testing.assert_array_equal(a, b)


def test_arm_substreams_invariant_to_pull_order():
    arms = [gaussian_arm(0, 1), gaussian_arm(0, 4)]
    env_a = CanonicalEnv(arms, 42)
    env_b = CanonicalEnv(arms, 42)
    first_a = env_a.pull(0, 5)
    env_b.pull(1, 3)  # interleave the other arm first
    first_b = env_b.pull(0, 5)
    np.testing.assert_array_equal(first_a, first_b)


@pytest.mark.parametrize(
    "arm",
    [
        gaussian_arm(0.4, 2.0),
        rademacher_arm(-0.2),
        symmetric_beta_arm(0.1, 0.2),
        symmetric_beta_arm(-0.6, 4.5),
    ],
)
def test_moment_consistency(arm):
    n = 10**6
    draws = sample_reward(arm, np.random.default_rng(11), n)
    se_mean = math.sqrt(arm.variance / n)
    assert abs(draws.mean() - arm.mean) < 4 * se_mean
    # variance of the sample variance, bounded via the fourth moment; the
    # extra 5/n covers families where mu4 equals the squared variance exactly
    centered = draws - arm.mean
    fourth = np.mean(centered**4)
    se_var = math.sqrt(max(fourth - arm.variance**2, 0.0) / n)
    assert abs(draws.var(ddof=1) - arm.variance) < 4 * se_var + 5.0 / n


@pytest.mark.parametrize(
    "arm",
    [gaussian_arm(0.0, 3.0), rademacher_arm(0.0), symmetric_beta_arm(0.0, 1.0)],
)
def test_fourth_moment_strictly_subgaussian(arm):
    draws = sample_reward(arm, np.random.default_rng(5), 10**6)
    centered = draws - arm.mean
    fourth = float(np.mean(centered**4))
    tolerance = 5.0 * np.std(centered**4) / 1000.0
    assert fourth <= 3.0 * arm.variance**2 + tolerance


def test_symmetric_beta_variance_formula():
    for shape in (0.2, 1.0, 2.0, 4.5):
        arm = symmetric_beta_arm(0.0, shape)
        assert arm.variance == pytest.approx(1.0 / (2.0 * shape + 1.0))
        draws = sample_reward(arm, np.random.default_rng(3), 10**6)
        assert draws.var(ddof=1) == pytest.approx(arm.variance, rel=0.02)


def test_custom_arm_replays_table():
    table = (1.0, 2.0, 3.0, 4.0)
    arm = ArmSpec(Family.CUSTOM, 2.5, 1.25, table)
    draws = sample_reward(arm, np.random.default_rng(0), 1000)
    assert set(np.unique(draws)) <= set(table)


def test_hypercube_contexts_bounded():
    spec = ContextSpec(dimension=4)
    draws = sample_context(spec, np.random.default_rng(1), 10_000)
    assert draws.shape == (10_000, 4)
    assert np.all(np.abs(draws) <= math.sqrt(3.0))
    assert np.all(np.linalg.norm(draws, axis=1) <= math.sqrt(3.0 * 4) + 1e-12)


def test_hypercube_unit_second_moment():
    spec = ContextSpec(dimension=1)
    draws = sample_context(spec, np.random.default_rng(2), 10**6)
    assert float(np.mean(draws**2)) == pytest.approx(1.0, abs=0.01)


def test_context_determinism():
    spec = ContextSpec(dimension=3)
    a = sample_context(spec, np.random.default_rng(9), 20)
    b = sample_context(spec, np.random.default_rng(9), 20)
    np.testing.assert_array_equal(a, b)


def test_contextual_env_inner_product():
    betas = np.array([[1.0, 2.0]])
    env = ContextualEnv(betas, ContextSpec(dimension=2), [None], 0, contexts=[[3.0, 1.0]])
    _, rewards = env.pull(0, 1)
    assert rewards.tolist() == [5.0]


def test_contextual_env_rejects_dimension_mismatch():
    with pytest.raises(ConfigurationError):
        ContextualEnv(np.ones((1, 2)), ContextSpec(dimension=1), [None], 0)


def test_contextual_env_noise_moments():
    env = ContextualEnv(np.zeros((1, 3)), ContextSpec(dimension=3), [gaussian_arm(0.0, 1.0)], 4)
    _, draws = env.pull(0, 20_000)
    assert abs(draws.mean()) < 0.03
    assert draws.var(ddof=1) == pytest.approx(1.0, rel=0.05)


def test_contextual_env_linear_rewards():
    betas = np.array([[1.0, -1.0]])
    env = ContextualEnv(betas, ContextSpec(dimension=2), [None], 0)
    ctx, rewards = env.pull(0, 100)
    np.testing.assert_allclose(rewards, ctx @ betas[0])
    assert env.true_variances is None


def test_contextual_env_rejects_biased_noise():
    with pytest.raises(ConfigurationError):
        ContextualEnv(np.ones((1, 1)), ContextSpec(dimension=1), [gaussian_arm(0.5, 1.0)], 0)


def test_gsg_regime_requires_proxy():
    with pytest.raises(ConfigurationError):
        NoiseRegime(Regime.GSG, None)
