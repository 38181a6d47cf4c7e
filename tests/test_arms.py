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
from varalloc.estimation import RidgeState, RunningMoments


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


def test_pulls_draw_from_one_stream_in_pull_order():
    # an env seeded with 42 draws what default_rng(42) draws, one pull after another
    arms = [symmetric_beta_arm(0.0, 1.0), symmetric_beta_arm(0.5, 2.0)]
    env, rng = CanonicalEnv(arms, 42), np.random.default_rng(42)
    for k, m in [(0, 5), (1, 3)]:
        assert env.pull(k, m) == RunningMoments.of(sample_reward(arms[k], rng, m))


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
    arm = gaussian_arm(0.0, 1.0)
    env = ContextualEnv(betas, ContextSpec(dimension=2), [arm], 0, contexts=[[3.0, 1.0]])
    state = env.pull(0, 1)
    noise = np.random.default_rng(0)  # scripted contexts leave the env's stream to the noise
    reward = 5.0 + float(sample_reward(arm, noise, 1)[0])  # the inner product 5 plus noise
    assert state.xty.tolist() == [3.0 * reward, reward]  # the context times its reward


def test_contextual_env_rejects_dimension_mismatch():
    with pytest.raises(ConfigurationError):
        ContextualEnv(np.ones((1, 2)), ContextSpec(dimension=1), [gaussian_arm(0.0, 1.0)], 0)


@pytest.mark.parametrize("contexts", [np.ones(2), np.ones((3, 1)), np.ones((3, 2, 1))])
def test_contextual_env_rejects_misshapen_scripted_contexts(contexts):
    with pytest.raises(ConfigurationError):
        ContextualEnv(np.ones((1, 2)), ContextSpec(dimension=2), [gaussian_arm(0.0, 1.0)], 0,
                      contexts=contexts)


def test_contextual_env_noise_moments():
    # with contexts all 1 and beta = 0, X'y / n is the mean of the noise draws
    # and the residual variance at beta = 0 their sample variance
    n = 20_000
    env = ContextualEnv(
        np.zeros((1, 1)), ContextSpec(dimension=1), [gaussian_arm(0.0, 1.0)], 4,
        contexts=np.ones((n, 1)),
    )
    state = env.pull(0, n)
    assert abs(state.xty[0] / state.n) < 0.03
    assert state.residual_variance(np.zeros(1)) == pytest.approx(1.0, rel=0.05)


def test_contextual_env_linear_rewards():
    betas = np.array([[1.0, -1.0]])
    arm = gaussian_arm(0.0, 1.0)
    env = ContextualEnv(betas, ContextSpec(dimension=2), [arm], 0)
    state = env.pull(0, 100)
    rng = np.random.default_rng(0)  # one stream: a pull's contexts, then its noise
    contexts = sample_context(ContextSpec(dimension=2), rng, 100)
    noise = sample_reward(arm, rng, 100)
    # X'y = X'X beta + X'e
    np.testing.assert_allclose(state.xty, state.gram @ betas[0] + contexts.T @ noise)


def test_contextual_pull_summarizes_its_rows():
    betas = np.array([[1.0, -2.0, 0.5], [0.0, 1.0, 1.0]])
    spec = ContextSpec(dimension=3, lambda_min=0.5)
    contexts = np.random.default_rng(1).uniform(-1.0, 1.0, (12, 3))
    arm, other = gaussian_arm(0.0, 2.0), gaussian_arm(0.0, 0.5)
    env = ContextualEnv(betas, spec, [arm, other], 7, contexts=contexts)
    got = [env.pull(0, 5), env.pull(1, 4), env.pull(0, 3)]
    noise = np.random.default_rng(7)  # every arm's noise, in pull order
    rows = [
        (contexts[:5], contexts[:5] @ betas[0] + sample_reward(arm, noise, 5)),
        (contexts[5:9], contexts[5:9] @ betas[1] + sample_reward(other, noise, 4)),
        (contexts[9:], contexts[9:] @ betas[0] + sample_reward(arm, noise, 3)),
    ]
    for state, (ctx, rewards) in zip(got, rows):
        want = RidgeState.of(ctx, rewards, 0.5)
        assert (state.dim, state.lambda_min, state.n) == (3, 0.5, len(ctx))
        np.testing.assert_array_equal(state.gram, want.gram)
        np.testing.assert_array_equal(state.xty, want.xty)
        assert state.residual_variance(np.zeros(3)) == want.residual_variance(np.zeros(3))


def test_contextual_env_rejects_biased_noise():
    with pytest.raises(ConfigurationError):
        ContextualEnv(np.ones((1, 1)), ContextSpec(dimension=1), [gaussian_arm(0.5, 1.0)], 0)


def test_gsg_regime_requires_proxy():
    with pytest.raises(ConfigurationError):
        NoiseRegime(Regime.GSG, None)


def _spread(values):
    """Mean and variance of a sample, each with its standard error."""
    values = np.asarray(values, dtype=float)
    reps = len(values)
    sq = (values - values.mean()) ** 2
    return (values.mean(), values.std(ddof=1) / math.sqrt(reps)), (
        sq.mean(), sq.std(ddof=1) / math.sqrt(reps)
    )


def _agree(a, b):
    (est_a, se_a), (est_b, se_b) = a, b
    return abs(est_a - est_b) <= 4.0 * math.hypot(se_a, se_b)


@pytest.mark.parametrize(
    "arm, m",
    [(gaussian_arm(0.3, 2.0), m) for m in (1, 2, 50)]
    + [(rademacher_arm(-0.4), m) for m in (2, 7, 1000)],
)
def test_pull_summary_matches_raw_draws(arm, m):
    reps = 2000
    env = CanonicalEnv([arm], 31)
    summaries = [env.pull(0, m) for _ in range(reps)]
    assert all(s.n == m for s in summaries)
    raw = sample_reward(arm, np.random.default_rng(32), reps * m).reshape(reps, m)
    raw_means = raw.mean(axis=1)
    for a, b in zip(_spread([s.mean for s in summaries]), _spread(raw_means)):
        assert _agree(a, b)
    if m == 1:
        assert all(s.m2 == 0.0 for s in summaries)
        return
    raw_vars = ((raw - raw_means[:, None]) ** 2).sum(axis=1) / (m - 1)
    for a, b in zip(_spread([s.m2 / (m - 1) for s in summaries]), _spread(raw_vars)):
        assert _agree(a, b)


class _FixedBinomial:
    """Generator stand-in whose binomial draw is fixed."""

    def __init__(self, b):
        self.b = b

    def binomial(self, m, prob):
        return self.b


@pytest.mark.parametrize("m", [1, 2, 7, 1000])
def test_rademacher_summary_formula_matches_two_pass(m):
    arm = rademacher_arm(0.25)
    draws = sample_reward(arm, np.random.default_rng(m), m)
    env = CanonicalEnv([arm], 0)
    env._rng = _FixedBinomial(int((draws > arm.mean).sum()))
    got, want = env.pull(0, m), RunningMoments.of(draws)
    assert got.n == want.n
    assert got.mean == pytest.approx(want.mean, rel=1e-12, abs=1e-12)
    assert got.m2 == pytest.approx(want.m2, rel=1e-12, abs=1e-9)


def test_beta_pull_summarizes_raw_draws():
    arm = symmetric_beta_arm(0.2, 1.5)
    got = CanonicalEnv([arm], 8).pull(0, 40)
    assert got == RunningMoments.of(sample_reward(arm, np.random.default_rng(8), 40))
