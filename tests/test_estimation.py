"""Streaming moments, ridge regression, and the closed-form conditional MSE."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varalloc.estimation import (
    RidgeState,
    RunningMoments,
    conditional_mse,
    gamma_schedule,
)
from varalloc.errors import (
    ContractViolation,
    InsufficientDataError,
    SingularSystemError,
)


class TestRunningMoments:
    def test_single_update(self):
        m = RunningMoments().update(5.0)
        assert (m.n, m.mean, m.m2) == (1, 5.0, 0.0)

    def test_two_symmetric_values(self):
        m = RunningMoments()
        m.update(1.0).update(-1.0)
        assert (m.n, m.mean, m.m2) == (2, 0.0, 2.0)
        assert m.sample_variance() == 2.0

    def test_batch_formula_value(self):
        m = RunningMoments()
        for x in [0.0, 1.0, 2.0, 3.0]:
            m.update(x)
        assert m.m2 == pytest.approx(5.0)
        assert m.sample_variance() == pytest.approx(5.0 / 3.0)

    def test_constant_stream_zero_variance(self):
        m = RunningMoments()
        m.update_many(np.array([3.0, 3.0, 3.0]))
        assert m.sample_variance() == 0.0

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            RunningMoments().update(1.0).sample_variance()

    @given(
        st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=2, max_size=60),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_streaming_matches_batch(self, values, chunk):
        stream = RunningMoments()
        for i in range(0, len(values), chunk):
            stream.update_many(np.asarray(values[i : i + chunk]))
        batch = float(np.var(values, ddof=1))
        scale = max(batch, 1e-9 * (1.0 + max(abs(v) for v in values) ** 2))
        assert abs(stream.sample_variance() - batch) <= 1e-10 * scale + 1e-12

    def test_unbiased_over_replications(self):
        rng = np.random.default_rng(17)
        sigma_sq, n, reps = 2.5, 5, 10**5
        draws = rng.normal(0.0, math.sqrt(sigma_sq), (reps, n))
        variances = draws.var(axis=1, ddof=1)
        se = variances.std(ddof=1) / math.sqrt(reps)
        assert abs(variances.mean() - sigma_sq) < 3 * se


class TestRidge:
    def test_accumulates_sums(self):
        s = RidgeState(1)
        s.update([1.0], 1.0)
        s.update([1.0], 3.0)
        assert s.gram[0, 0] == 2.0 and s.xty[0] == 4.0

    def test_empty_state_zero(self):
        s = RidgeState(3)
        np.testing.assert_array_equal(s.gram, np.zeros((3, 3)))

    def test_two_dim_single_update(self):
        s = RidgeState(2).update([1.0, 1.0], 2.0)
        np.testing.assert_array_equal(s.gram, np.ones((2, 2)))
        np.testing.assert_array_equal(s.xty, [2.0, 2.0])

    def test_estimate_matches_least_squares(self):
        s = RidgeState(1)
        s.update([1.0], 1.0).update([1.0], 3.0)
        assert s.estimate(0.0)[0] == pytest.approx(2.0)
        assert s.estimate(2.0)[0] == pytest.approx(1.0)

    def test_zero_rewards_zero_estimate(self):
        s = RidgeState(2)
        rng = np.random.default_rng(0)
        s.update_many(rng.normal(size=(5, 2)), np.zeros(5))
        np.testing.assert_allclose(s.estimate(0.5), np.zeros(2))

    def test_singular_at_gamma_zero(self):
        s = RidgeState(2).update([1.0, 0.0], 1.0)
        with pytest.raises(SingularSystemError):
            s.estimate(0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            RidgeState(2).update([1.0], 1.0)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_shrinkage_in_gamma(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        n = d + int(rng.integers(2, 8))
        s = RidgeState(d)
        s.update_many(rng.normal(size=(n, d)), rng.normal(size=n))
        gammas = sorted(rng.uniform(0.0, 5.0, 2))
        lo = np.linalg.norm(s.estimate(gammas[1]))
        hi = np.linalg.norm(s.estimate(gammas[0]))
        assert lo <= hi + 1e-9


def test_gamma_schedule_values():
    assert gamma_schedule(1.0, 2) == 0.5
    assert gamma_schedule(4.0, 8) == 0.5
    values = [gamma_schedule(1.0, n) for n in range(1, 200)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 0.006


class TestResidualVariance:
    def test_exact_fit_zero(self):
        rng = np.random.default_rng(3)
        beta = np.array([1.0, -2.0])
        contexts = rng.normal(size=(30, 2))
        s = RidgeState(2).update_many(contexts, contexts @ beta)
        assert s.residual_variance(beta) == pytest.approx(0.0, abs=1e-20)

    def test_reduces_to_sample_variance(self):
        s = RidgeState(1)
        s.update([1.0], 1.0).update([1.0], -1.0)
        assert s.residual_variance(np.zeros(1)) == pytest.approx(2.0)

    def test_monte_carlo_noise_variance(self):
        rng = np.random.default_rng(8)
        n, beta = 10**4, np.array([0.7, -1.3])
        contexts = rng.uniform(-math.sqrt(3), math.sqrt(3), (n, 2))
        rewards = contexts @ beta + rng.normal(0.0, math.sqrt(2.0), n)
        s = RidgeState(2).update_many(contexts, rewards)
        beta_hat = s.estimate(gamma_schedule(1.0, n))
        assert s.residual_variance(beta_hat) == pytest.approx(2.0, abs=0.15)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            RidgeState(1).update([1.0], 1.0).residual_variance(np.zeros(1))


class TestConditionalMse:
    def test_reduces_to_variance_over_n(self):
        n = 25
        assert conditional_mse(np.array([[float(n)]]), [0.3], 1.7, 0.0) == pytest.approx(
            1.7 / n
        )

    def test_hand_value(self):
        assert conditional_mse(np.array([[1.0]]), [1.0], 1.0, 1.0) == pytest.approx(0.5)

    def test_singular_system(self):
        with pytest.raises(SingularSystemError):
            conditional_mse(np.zeros((2, 2)), [1.0, 1.0], 1.0, 0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_monte_carlo_oracle(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        n = int(rng.integers(d + 1, 15))
        contexts = rng.normal(size=(n, d))
        beta = rng.uniform(-2, 2, d)
        sigma_sq = float(rng.uniform(0.5, 3.0))
        gamma = float(rng.choice([0.0, 1.0 / n]))
        gram = contexts.T @ contexts
        if gamma == 0.0 and np.linalg.eigvalsh(gram).min() < 1e-8:
            gamma = 1.0 / n
        closed = conditional_mse(gram, beta, sigma_sq, gamma)

        # independent brute-force oracle: redraw the noise many times
        reps = 10**5
        v = gamma * np.eye(d) + gram
        noise = rng.normal(0.0, math.sqrt(sigma_sq), (reps, n))
        errors = np.linalg.solve(v, contexts.T @ noise.T + (gram @ beta)[:, None]).T - beta
        sq = (errors**2).sum(axis=1)
        se = sq.std(ddof=1) / math.sqrt(reps)
        assert abs(sq.mean() - closed) <= 3 * se
