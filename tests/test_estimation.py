"""Streaming moments, ridge regression, and the closed-form conditional MSE."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from varalloc import estimation
from varalloc.estimation import (
    RidgeState,
    RunningMoments,
    _solve_spd,
    conditional_mse,
)
from varalloc.errors import (
    ContractViolation,
    SingularSystemError,
)


class TestRunningMoments:
    def test_single_update(self):
        m = RunningMoments().update_many(RunningMoments(1, 5.0))
        assert (m.n, m.mean, m.m2) == (1, 5.0, 0.0)

    def test_two_symmetric_values(self):
        m = RunningMoments()
        m.update_many(RunningMoments(1, 1.0)).update_many(RunningMoments(1, -1.0))
        assert (m.n, m.mean, m.m2) == (2, 0.0, 2.0)
        assert m.variance() == 2.0

    def test_batch_formula_value(self):
        m = RunningMoments()
        for x in [0.0, 1.0, 2.0, 3.0]:
            m.update_many(RunningMoments(1, x))
        assert m.m2 == pytest.approx(5.0)
        assert m.variance() == pytest.approx(5.0 / 3.0)

    def test_constant_stream_zero_variance(self):
        m = RunningMoments()
        m.update_many(RunningMoments.of(np.array([3.0, 3.0, 3.0])))
        assert m.variance() == 0.0

    def test_insufficient_data(self):
        with pytest.raises(ContractViolation):
            RunningMoments().update_many(RunningMoments(1, 1.0)).variance()

    @given(
        st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=2, max_size=60),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_streaming_matches_batch(self, values, chunk):
        stream = RunningMoments()
        for i in range(0, len(values), chunk):
            stream.update_many(RunningMoments.of(np.asarray(values[i : i + chunk])))
        batch = float(np.var(values, ddof=1))
        scale = max(batch, 1e-9 * (1.0 + max(abs(v) for v in values) ** 2))
        assert abs(stream.variance() - batch) <= 1e-10 * scale + 1e-12

    def test_of_is_two_pass(self):
        xs = np.array([2.0, 4.0, 9.0])
        m = RunningMoments.of(xs)
        assert (m.n, m.mean, m.m2) == (3, 5.0, 26.0)

    def test_merge_with_empty_is_identity(self):
        m = RunningMoments(4, 1.5, 3.0)
        assert m.update_many(RunningMoments()) == RunningMoments(4, 1.5, 3.0)
        assert RunningMoments().update_many(m) == m

    def test_merge_into_empty_keeps_a_large_mean(self):
        # the merge's delta^2 * (0 * nb / n) is inf * 0 = nan past |mean| ~ 1.3e154
        m = RunningMoments(4, -1e300, 3.0)
        assert RunningMoments().update_many(m) == m

    def test_merge_cancellation_at_large_offset(self):
        # a naive sum-of-squares merge loses every digit of the variance here
        rng = np.random.default_rng(41)
        xs = 1e8 + rng.normal(0.0, 1.0, 20_000)
        cuts = np.sort(rng.choice(np.arange(1, xs.size), 40, replace=False))
        merged = RunningMoments()
        for chunk in np.split(xs, cuts):
            merged.update_many(RunningMoments.of(chunk))
        for x in xs[:3]:
            merged.update_many(RunningMoments(1, float(x)))
        ref = np.concatenate([xs, xs[:3]])
        assert merged.n == ref.size
        assert merged.variance() == pytest.approx(np.var(ref, ddof=1), rel=1e-9)

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
        s.update_many(RidgeState.of([[1.0]], [1.0], 1.0))
        s.update_many(RidgeState.of([[1.0]], [3.0], 1.0))
        assert s.gram[0, 0] == 2.0 and s.xty[0] == 4.0

    def test_empty_state_zero(self):
        s = RidgeState(3)
        np.testing.assert_array_equal(s.gram, np.zeros((3, 3)))

    def test_two_dim_single_update(self):
        s = RidgeState(2).update_many(RidgeState.of([[1.0, 1.0]], [2.0], 1.0))
        np.testing.assert_array_equal(s.gram, np.ones((2, 2)))
        np.testing.assert_array_equal(s.xty, [2.0, 2.0])

    def test_estimate_matches_least_squares(self):
        s = RidgeState.of([[1.0], [1.0]], [1.0, 3.0], 1.0)
        assert s.estimate(0.0)[0] == pytest.approx(2.0)
        assert s.estimate(2.0)[0] == pytest.approx(1.0)

    def test_zero_rewards_zero_estimate(self):
        s = RidgeState(2)
        rng = np.random.default_rng(0)
        s.update_many(RidgeState.of(rng.normal(size=(5, 2)), np.zeros(5), 1.0))
        np.testing.assert_allclose(s.estimate(0.5), np.zeros(2))

    def test_singular_at_gamma_zero(self):
        s = RidgeState.of([[1.0, 0.0]], [1.0], 1.0)
        with pytest.raises(SingularSystemError):
            s.estimate(0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            RidgeState(2).update_many(RidgeState.of([[1.0]], [1.0], 1.0))

    def test_of_rejects_rewards_that_are_not_one_dimensional(self):
        # a column of rewards used to build a (d, 1) X'y and a broadcast residual
        with pytest.raises(ContractViolation):
            RidgeState.of(np.ones((3, 2)), np.ones((3, 1)), 1.0)

    def test_chunked_merge_equals_one_shot(self):
        # integer data keeps every Gram and X'y sum exact, whatever the order
        rng = np.random.default_rng(12)
        contexts = rng.integers(-5, 6, (40, 3)).astype(float)
        rewards = rng.integers(-9, 10, 40).astype(float)
        chunked = RidgeState(3, 0.5)
        for lo, hi in [(0, 1), (1, 1), (1, 14), (14, 15), (15, 40)]:
            chunked.update_many(RidgeState.of(contexts[lo:hi], rewards[lo:hi], 0.5))
        whole = RidgeState.of(contexts, rewards, 0.5)
        assert chunked.n == whole.n == 40
        np.testing.assert_array_equal(chunked.gram, whole.gram)
        np.testing.assert_array_equal(chunked.xty, whole.xty)
        beta = whole.estimate(0.1)
        assert chunked.residual_variance(beta) == whole.residual_variance(beta)

    def test_point_floors_a_singular_penalty(self):
        s = RidgeState.of([[1.0, 0.0]], [1.0], 1e-12)
        assert not s.floored
        assert s.point() == pytest.approx((1.0, 0.0), abs=1e-6)
        assert s.floored

    def test_variance_is_residual_variance_at_point(self):
        rng = np.random.default_rng(4)
        s = RidgeState(2, 2.0)
        s.update_many(RidgeState.of(rng.normal(size=(6, 2)), rng.normal(size=6), 2.0))
        assert s.variance() == s.residual_variance(s.point())
        s.update_many(RidgeState.of([[0.5, -1.0]], [3.0], 2.0))  # a new count recomputes
        assert s.variance() == s.residual_variance(s.point())

    def test_point_solved_once_per_count(self, monkeypatch):
        rng = np.random.default_rng(6)
        s = RidgeState.of(rng.normal(size=(6, 2)), rng.normal(size=6), 1.0)
        solves = []
        estimate = RidgeState.estimate
        monkeypatch.setattr(
            RidgeState, "estimate", lambda self, gamma: solves.append(gamma) or estimate(self, gamma)
        )
        first = s.point()
        assert s.point() == first and s.variance() == s.residual_variance(first)
        assert solves == [1.0 / 6]
        s.update_many(RidgeState.of([[0.5, -1.0]], [3.0], 1.0))  # a new count solves again
        assert s.point() != first and solves == [1.0 / 6, 1.0 / 7]

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_shrinkage_in_gamma(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        n = d + int(rng.integers(2, 8))
        s = RidgeState(d)
        s.update_many(RidgeState.of(rng.normal(size=(n, d)), rng.normal(size=n), 1.0))
        gammas = sorted(rng.uniform(0.0, 5.0, 2))
        lo = np.linalg.norm(s.estimate(gammas[1]))
        hi = np.linalg.norm(s.estimate(gammas[0]))
        assert lo <= hi + 1e-9


def test_point_penalty_is_lambda_min_over_n():
    rng = np.random.default_rng(5)
    for lambda_min, n in [(1.0, 2), (4.0, 8), (1.0, 199)]:
        s = RidgeState.of(rng.normal(size=(n, 2)), rng.normal(size=n), lambda_min)
        assert s.point() == tuple(s.estimate(lambda_min / n).tolist())
    assert RidgeState(2, 3.0).point() == (0.0, 0.0)  # penalty lambda_min at n = 0
    with pytest.raises(ContractViolation):
        RidgeState(2, 0.0)


class TestResidualVariance:
    def test_exact_fit_zero(self):
        rng = np.random.default_rng(3)
        beta = np.array([1.0, -2.0])
        contexts = rng.normal(size=(30, 2))
        s = RidgeState(2).update_many(RidgeState.of(contexts, contexts @ beta, 1.0))
        assert s.residual_variance(beta) == pytest.approx(0.0, abs=1e-20)

    def test_reduces_to_sample_variance(self):
        s = RidgeState.of([[1.0], [1.0]], [1.0, -1.0], 1.0)
        assert s.residual_variance(np.zeros(1)) == pytest.approx(2.0)

    def test_monte_carlo_noise_variance(self):
        rng = np.random.default_rng(8)
        n, beta = 10**4, np.array([0.7, -1.3])
        contexts = rng.uniform(-math.sqrt(3), math.sqrt(3), (n, 2))
        rewards = contexts @ beta + rng.normal(0.0, math.sqrt(2.0), n)
        s = RidgeState(2).update_many(RidgeState.of(contexts, rewards, 1.0))
        beta_hat = s.estimate(1.0 / n)
        assert s.residual_variance(beta_hat) == pytest.approx(2.0, abs=0.15)

    def test_insufficient_data(self):
        with pytest.raises(ContractViolation):
            RidgeState.of([[1.0]], [1.0], 1.0).residual_variance(np.zeros(1))

    def test_buffered_history_equals_one_shot(self):
        # many small pulls, each followed by a scan, so the buffer doubles
        # several times; one merge brings a state that holds buffered rows
        rng = np.random.default_rng(21)
        contexts, rewards = rng.normal(size=(300, 3)), rng.normal(size=300)
        beta = np.array([0.3, -1.1, 2.0])
        grown, capacities = RidgeState(3), set()
        cuts = [0, 1, 2, 5, 6, 13, 30, 31, 64, 100, 101, 170, 200]
        for lo, hi in zip(cuts, cuts[1:]):
            grown.update_many(RidgeState.of(contexts[lo:hi], rewards[lo:hi], 1.0))
            if hi >= 2:
                prefix = RidgeState.of(contexts[:hi], rewards[:hi], 1.0)
                assert grown.residual_variance(beta) == prefix.residual_variance(beta)
                capacities.add(len(grown._contexts))
        assert len(capacities) >= 4
        side = RidgeState(3)
        for lo, hi in [(200, 230), (230, 240)]:  # buffers 40 rows at capacity 60
            side.update_many(RidgeState.of(contexts[lo:hi], rewards[lo:hi], 1.0))
            side.residual_variance(beta)
        side.update_many(RidgeState.of(contexts[240:250], rewards[240:250], 1.0))
        grown.update_many(side).update_many(RidgeState.of(contexts[250:], rewards[250:], 1.0))
        buffer = side._contexts
        side.update_many(RidgeState.of(contexts[:5], rewards[:5], 1.0))
        side.residual_variance(beta)
        assert side._contexts is buffer  # it grew in place, past the rows merged above
        whole = RidgeState.of(contexts, rewards, 1.0)
        assert grown.n == whole.n == 300
        assert grown.residual_variance(beta) == whole.residual_variance(beta)

    def test_large_offset_matches_two_pass_reference(self):
        # rewards near 1e8: a sum-of-squares form of the residual variance
        # would cancel every digit
        rng = np.random.default_rng(9)
        n, beta = 5000, np.array([0.5, -1.0])
        contexts = rng.uniform(-math.sqrt(3), math.sqrt(3), (n, 2))
        rewards = 1e8 + contexts @ beta + rng.normal(0.0, 1.0, n)
        s = RidgeState(2)
        for rows in np.array_split(np.arange(n), 37):
            s.update_many(RidgeState.of(contexts[rows], rewards[rows], 1.0))
        r = [math.fsum([y, -c[0] * beta[0], -c[1] * beta[1]]) for c, y in zip(contexts, rewards)]
        mean = math.fsum(r) / n
        want = math.fsum((x - mean) ** 2 for x in r) / (n - 1)
        assert s.residual_variance(beta) == pytest.approx(want, rel=1e-9)


def _ridge_system(seed, n, d, rank, log_gamma, log_scale):
    """A ridge state over n rows whose contexts have the given rank, plus a
    tiny full-rank perturbation, times 10**log_scale; the penalty is
    10**log_gamma times n times the squared scale."""
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    contexts = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, d))
    contexts = (contexts + 1e-9 * rng.normal(size=(n, d))) * scale
    s = RidgeState(d)
    for rows in np.array_split(np.arange(n), int(rng.integers(1, 5))):
        s.update_many(RidgeState.of(contexts[rows], rng.normal(size=len(rows)) * scale, 1.0))
    return s, 10.0**log_gamma * n * scale * scale


def _estimate_and_checks(s, gamma):
    """`s.estimate(gamma)` and how many eigenvalue checks it ran."""
    checks = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            estimation, "_solve_spd", lambda v, b: checks.append(v) or _solve_spd(v, b)
        )
        return s.estimate(gamma), len(checks)


class TestEigenvalueCertificate:
    @given(
        st.integers(0, 2**32 - 1), st.integers(1, 80), st.integers(1, 6), st.integers(1, 6),
        st.floats(-20.0, 1.0), st.floats(-60.0, 60.0),
    )
    @example(0, 40, 4, 4, -3.0, 0.0)  # well posed at unit scale: skipped
    @example(1, 40, 4, 1, -18.0, 0.0)  # near-singular, past the certificate: the check raises
    @settings(max_examples=300, deadline=None)
    def test_a_skipped_check_would_have_passed(self, seed, n, d, rank, log_gamma, log_scale):
        s, gamma = _ridge_system(seed, n, d, min(rank, d), log_gamma, log_scale)
        try:
            beta, checks = _estimate_and_checks(s, gamma)
        except SingularSystemError:
            return  # only the check itself raises
        if checks == 0:
            want = _solve_spd(gamma * np.eye(d) + s.gram, s.xty)  # raises nothing
            assert beta.tobytes() == want.tobytes()

    def test_the_policy_penalty_is_certified(self):
        # uniform contexts as `arms.sample_context` draws them: the point solve skips eigvalsh
        rng = np.random.default_rng(2)
        for n in (4, 100, 20_000):
            contexts = rng.uniform(-math.sqrt(3), math.sqrt(3), (n, 4))
            s = RidgeState.of(contexts, rng.normal(size=n), 1.0)
            assert _estimate_and_checks(s, 1.0 / n)[1] == 0

    def test_eigenvalue_check_runs_past_the_certificate(self):
        rng = np.random.default_rng(3)
        s = RidgeState.of(rng.normal(size=(50, 3)), rng.normal(size=50), 1.0)
        gamma = 1e-14 * float(np.trace(s.gram))  # well posed, but below the certificate
        beta, checks = _estimate_and_checks(s, gamma)
        assert checks == 1
        assert beta.tobytes() == _solve_spd(gamma * np.eye(3) + s.gram, s.xty).tobytes()
        singular = RidgeState.of([[1.0, 0.0], [2.0, 0.0]], [1.0, 2.0], 1.0)
        with pytest.raises(SingularSystemError):
            singular.estimate(1e-20)


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
