"""Allocation math: optimality, rounding, weights, and their invariants."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varalloc.allocation import (
    AllocationPlan,
    VarianceProfile,
    adaptive_weight,
    objective_rp,
    optimal_allocation,
    optimal_objective,
    plugin_weights,
    q_of_p,
    round_allocation,
    tau_nonadaptive,
)
from varalloc.errors import (
    ConfigurationError,
    ContractViolation,
    DegenerateInputError,
)
from varalloc.harness import oracle_best_allocation

INF = math.inf


def test_q_of_p_values():
    assert q_of_p(INF) == 2.0
    assert q_of_p(1.0) == 1.0
    assert q_of_p(3.0) == 1.5
    for p in (1e308, sys.float_info.max):  # 2p overflows past about 9e307
        assert 1.0 < q_of_p(p) <= 2.0


def test_norm_order_restricted():
    with pytest.raises(ConfigurationError):
        q_of_p(0.5)


class TestOptimalAllocation:
    def test_symmetric_profile_uniform(self):
        plan = optimal_allocation(VarianceProfile((1.0,) * 4), INF, 100)
        assert plan.counts == (25, 25, 25, 25)

    def test_two_arm_infinity(self):
        plan = optimal_allocation(VarianceProfile((1.0, 4.0)), INF, 10)
        assert plan.fractions == pytest.approx((0.2, 0.8))
        assert plan.counts == (2, 8)
        assert plan.counts == oracle_best_allocation((1.0, 4.0), INF, 10)

    def test_two_arm_p1(self):
        plan = optimal_allocation(VarianceProfile((1.0, 4.0)), 1.0, 9)
        assert plan.fractions == pytest.approx((1 / 3, 2 / 3))
        assert plan.counts == (3, 6)
        assert plan.counts == oracle_best_allocation((1.0, 4.0), 1.0, 9)

    @given(
        st.lists(st.floats(min_value=0.25, max_value=8.0), min_size=2, max_size=4),
        st.floats(min_value=0.25, max_value=4.0),
        st.sampled_from([1.0, 2.0, INF]),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_equivariance(self, variances, scale, p):
        base = optimal_allocation(VarianceProfile(tuple(variances)), p, 1000)
        scaled = optimal_allocation(
            VarianceProfile(tuple(v * scale for v in variances)), p, 1000
        )
        assert base.fractions == pytest.approx(scaled.fractions, rel=1e-9)


class TestObjectiveAndRegret:
    def test_infinity_matches_closed_form(self):
        assert objective_rp((2, 8), (1.0, 4.0), INF) == pytest.approx(0.5)
        assert optimal_objective(VarianceProfile((1.0, 4.0)), INF, 10) == pytest.approx(0.5)

    def test_p1_matches_closed_form(self):
        assert objective_rp((3, 6), (1.0, 4.0), 1.0) == pytest.approx(1.0)
        assert optimal_objective(VarianceProfile((1.0, 4.0)), 1.0, 9) == pytest.approx(1.0)

    def test_single_group(self):
        for p in (1.0, 2.0, INF):
            assert objective_rp((10,), (3.0,), p) == pytest.approx(0.3)

    def test_zero_count_rejected(self):
        with pytest.raises(ContractViolation):
            objective_rp((0, 10), (1.0, 1.0), 1.0)

    def test_regret_zero_at_exact_optimum(self):
        optimal = optimal_objective(VarianceProfile((1.0, 4.0)), INF, 10)
        assert objective_rp((2, 8), (1.0, 4.0), INF) - optimal == pytest.approx(0.0)

    def test_regret_hand_value(self):
        optimal = optimal_objective(VarianceProfile((1.0, 4.0)), INF, 10)
        assert objective_rp((5, 5), (1.0, 4.0), INF) - optimal == pytest.approx(0.3)

    def test_regret_dominates_best_integer(self):
        profile = VarianceProfile((1.0, 2.0, 4.0))
        for p in (1.0, 2.0, INF):
            best = oracle_best_allocation(profile.variances, p, 30)
            best_value = objective_rp(best, profile.variances, p)
            rng = np.random.default_rng(0)
            for _ in range(50):
                counts = rng.multinomial(30 - 3, [1 / 3] * 3) + 1
                assert objective_rp(counts, profile.variances, p) >= best_value - 1e-12

    @given(
        st.lists(st.floats(min_value=0.25, max_value=8.0), min_size=2, max_size=4),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([1.0, 2.0, INF]),
    )
    @settings(max_examples=100, deadline=None)
    def test_regret_nonnegative(self, variances, seed, p):
        profile = VarianceProfile(tuple(variances))
        k = len(variances)
        horizon = 12 * k
        rng = np.random.default_rng(seed)
        counts = rng.multinomial(horizon - k, [1 / k] * k) + 1
        plan = AllocationPlan((1.0 / k,) * k, tuple(int(c) for c in counts), horizon)
        regret = objective_rp(plan.counts, profile.variances, p) - optimal_objective(
            profile, p, horizon
        )
        assert regret >= -1e-12

    @pytest.mark.parametrize("p", [200.0, 1000.0])
    def test_large_finite_p_does_not_underflow(self, p):
        profile = VarianceProfile((1.0, 2.0))
        plan = AllocationPlan((0.5, 0.5), (500_000, 500_000), 1_000_000)
        errors = np.asarray(profile.variances) / np.asarray(plan.counts)
        assert objective_rp(plan.counts, profile.variances, p) >= errors.max()
        optimal = optimal_objective(profile, p, plan.horizon)
        regret = objective_rp(plan.counts, profile.variances, p) - optimal
        assert regret >= -1e-12 * optimal


class TestWeights:
    def test_plugin_values(self):
        np.testing.assert_allclose(plugin_weights((1.0, 4.0), 2.0), (0.2, 0.8))
        np.testing.assert_allclose(plugin_weights((1.0, 4.0), 1.0), (1 / 3, 2 / 3))
        np.testing.assert_allclose(plugin_weights((2.0, 2.0, 2.0), 1.7), (1 / 3,) * 3)

    def test_plugin_degenerate(self):
        with pytest.raises(DegenerateInputError):
            plugin_weights((0.0, 0.0), 2.0)

    def test_adaptive_weight_values(self):
        assert adaptive_weight(1.0, [4.0], 2.0) == pytest.approx(0.2)
        assert adaptive_weight(0.0, [1.0, 2.0], 2.0) == 0.0
        assert adaptive_weight(3.0, [3.0, 3.0], 1.3) == pytest.approx(1 / 3)
        assert adaptive_weight(2.0, [], 2.0) == 1.0
        assert math.isnan(adaptive_weight(0.0, [], 2.0))  # 0/0 for a lone arm

    def test_adaptive_weight_matches_numpy_reference(self):
        # numpy's vectorized pow may differ from the C library's in the last
        # place, so the shares agree to a few ulps, not bit for bit
        rng = np.random.default_rng(3)
        for _ in range(2000):
            q = q_of_p(float(rng.choice([1.0, 2.0, 3.5, math.inf])))
            lcb, others = float(rng.uniform(0.0, 5.0)), rng.uniform(0.01, 5.0, rng.integers(1, 8))
            own = lcb ** (q / 2.0)
            want = float(own / (own + (others ** (q / 2.0)).sum()))
            got = adaptive_weight(lcb, others, q)
            assert got == pytest.approx(want, rel=64 * np.finfo(float).eps, abs=0.0)

    def test_plugin_weights_are_python_float_powers(self):
        # v**(q/2) / total on Python floats summed left to right, as in
        # `adaptive_weight`: numpy's vectorized pow may differ from the C
        # library's in the last place, and would make counts depend on it
        rng = np.random.default_rng(5)
        q = q_of_p(2.0)  # q/2 = 2/3
        for _ in range(2000):
            variances = [float(v) for v in np.exp(rng.uniform(-30.0, 30.0, rng.integers(1, 9)))]
            powers = [v ** (q / 2.0) for v in variances]
            total = 0.0
            for x in powers:
                total += x
            want = [x / total for x in powers]
            assert plugin_weights(variances, q).tolist() == want
            plan = optimal_allocation(VarianceProfile(tuple(variances)), 2.0, 100)
            assert list(plan.fractions) == want

    def test_plugin_weights_values(self):
        np.testing.assert_allclose(plugin_weights((2.0, 8.0), 2.0), (0.2, 0.8))
        np.testing.assert_allclose(plugin_weights((5.0, 5.0), 1.0), (0.5, 0.5))
        np.testing.assert_allclose(plugin_weights((2.0 + 0.7, 2.0 + 0.7), 2.0), (0.5, 0.5))

    @given(
        st.lists(st.floats(min_value=0.2, max_value=5.0), min_size=2, max_size=5),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([1.0, 1.5, 2.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_pessimism_under_valid_bounds(self, variances, seed, q):
        rng = np.random.default_rng(seed)
        variances = np.asarray(variances)
        lcbs = variances * rng.uniform(0.2, 1.0, len(variances))
        ucbs = variances * rng.uniform(1.0, 2.5, len(variances))
        truth = plugin_weights(variances, q)
        for k in range(len(variances)):
            share = adaptive_weight(float(lcbs[k]), np.delete(ucbs, k), q)
            assert share <= truth[k] + 1e-12

    @given(
        st.floats(min_value=0.0, max_value=4.0),
        st.floats(min_value=0.1, max_value=4.0),
        st.floats(min_value=1.01, max_value=2.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotonicity(self, lcb, ucb, bump):
        others = [ucb, 2.0 * ucb]
        base = adaptive_weight(lcb, others, 2.0)
        assert adaptive_weight(lcb * bump + 1e-6, others, 2.0) >= base
        assert adaptive_weight(lcb, [o * bump for o in others], 2.0) <= base


class TestTau:
    def test_hand_value(self):
        assert tau_nonadaptive(1.0, 2.5, 4, 850, 2.0) == 100

    def test_identical_bounds_uniform(self):
        assert tau_nonadaptive(2.0, 2.0, 5, 1000, 2.0) == 200

    def test_single_group_gets_everything(self):
        assert tau_nonadaptive(1.0, 4.0, 1, 300, 2.0) == 300

    def test_floor_at_two(self):
        assert tau_nonadaptive(0.01, 100.0, 4, 100, 2.0) == 2

    def test_bad_bounds(self):
        with pytest.raises(ConfigurationError):
            tau_nonadaptive(3.0, 1.0, 2, 100, 2.0)


class TestRounding:
    def test_even_split(self):
        assert round_allocation([0.5, 0.5], 10, [1.0, 1.0]) == (5, 5)

    def test_residual_to_high_priority(self):
        counts = round_allocation([0.25] * 4, 10, [4.0, 3.0, 2.0, 1.0])
        assert counts == (3, 3, 2, 2)

    def test_tie_breaks_to_lowest_index(self):
        assert round_allocation([1 / 3] * 3, 10, [1.0, 1.0, 1.0]) == (4, 3, 3)

    def test_overshoot_taken_back_in_turn(self):
        # fractions 2e-10 over 1 floor to 200 rounds past the horizon; the
        # excess comes back one round at a time, lowest priority first
        counts = round_allocation([0.5 + 2e-10, 0.5], 10**12, [2.0, 1.0])
        assert counts == (500000000100, 499999999900)

    def test_floors_match_numpy_reference(self):
        # the floors are elementwise IEEE arithmetic, exact in either form
        rng = np.random.default_rng(4)
        for _ in range(2000):
            raw = rng.uniform(0.05, 1.0, rng.integers(2, 9))
            weights, horizon = raw / raw.sum(), int(rng.integers(10, 10**7))
            want = np.floor(weights * horizon + 1e-9).astype(int)
            order = sorted(range(len(raw)), key=lambda k: (-raw[k], k))
            want[order[: horizon - want.sum()]] += 1
            assert round_allocation(weights, horizon, raw) == tuple(want.tolist())

    @given(
        st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=6),
        st.integers(min_value=10, max_value=5000),
    )
    @settings(max_examples=200, deadline=None)
    def test_counts_always_sum_to_horizon(self, raw, horizon):
        weights = np.asarray(raw) / np.sum(raw)
        counts = round_allocation(weights, horizon, weights)
        assert sum(counts) == horizon
        assert all(c >= 0 for c in counts)


def test_rounded_optimum_near_exhaustive():
    # light version of the full acceptance sweep
    for p in (1.0, 2.0, INF):
        for variances in ((1.0, 2.0, 4.0), (4.0, 4.0, 1.0), (2.0, 1.0, 2.0)):
            profile = VarianceProfile(variances)
            plan = optimal_allocation(profile, p, 30)
            best = oracle_best_allocation(variances, p, 30)
            got = objective_rp(plan.counts, variances, p)
            opt = objective_rp(best, variances, p)
            assert got <= opt * 1.05


class TestTypeInvariants:
    def test_plan_counts_must_sum_to_horizon(self):
        with pytest.raises(ContractViolation):
            AllocationPlan((0.5, 0.5), (4, 5), 10)

    def test_plan_fractions_must_sum_to_one(self):
        with pytest.raises(ContractViolation):
            AllocationPlan((0.5, 0.4), (5, 5), 10)

    def test_profile_rejects_bad_lower_bound(self):
        with pytest.raises(ConfigurationError):
            VarianceProfile((1.0, 2.0), lower_bound=1.5)

    def test_profile_rejects_bad_proxy(self):
        with pytest.raises(ConfigurationError):
            VarianceProfile((1.0, 2.0), proxy=1.5)

    def test_profile_rejects_nonpositive_variance(self):
        with pytest.raises(ConfigurationError):
            VarianceProfile((1.0, 0.0))

    @pytest.mark.parametrize(
        "knowledge", [{"lower_bound": math.nan}, {"proxy": math.nan}, {"proxy": math.inf}]
    )
    def test_profile_rejects_non_finite_knowledge(self, knowledge):
        with pytest.raises(ConfigurationError):
            VarianceProfile((1.0, 2.0), **knowledge)

    @pytest.mark.parametrize("variance", [math.nan, math.inf])
    def test_profile_rejects_non_finite_variance(self, variance):
        with pytest.raises(ConfigurationError):
            VarianceProfile((1.0, variance))
