"""Frozen radius values, interval construction, and ordering properties."""

import math

import numpy as np
import pytest

from varalloc import concentration
from varalloc.arms import NoiseRegime, Regime
from varalloc.concentration import (
    delta_schedule,
    interval,
    radius_gaussian,
    radius_gsg,
    radius_ssg,
)
from varalloc.errors import ConfigurationError, ContractViolation

E_INV = math.exp(-1.0)


class TestRadii:
    def test_gsg_hand_values(self):
        r = radius_gsg(2, E_INV, 1.0)
        assert r.eps_plus == pytest.approx(11.0)
        assert r.eps_minus == pytest.approx(8.0 + 13.0 / 6.0)

    def test_ssg_hand_value(self):
        r = radius_ssg(2, E_INV, 1.0)
        lead = 4.0 * (1.0 + math.sqrt(1.0 / 8.0)) / math.sqrt(2.0) * math.sqrt(2.0)
        assert r.eps_plus == pytest.approx(lead + 3.0)
        assert r.eps_plus == pytest.approx(8.4142, abs=1e-4)

    def test_gaussian_hand_values(self):
        r = radius_gaussian(2, E_INV, 1.0)
        assert (r.eps_minus, r.eps_plus) == (pytest.approx(2.0), pytest.approx(4.0))

    def test_vanish_as_delta_to_one(self):
        for radius in (radius_gsg, radius_ssg, radius_gaussian):
            r = radius(10, 1.0 - 1e-9, 1.0)
            assert r.eps_plus < 1e-3 and r.eps_minus < 1e-3

    def test_linear_in_variance_scale(self):
        for radius in (radius_gsg, radius_ssg, radius_gaussian):
            one = radius(7, 0.05, 1.5)
            two = radius(7, 0.05, 3.0)
            assert two.eps_plus == pytest.approx(2 * one.eps_plus)
            assert two.eps_minus == pytest.approx(2 * one.eps_minus)

    def test_ssg_below_gsg(self):
        for n in range(2, 200, 7):
            ssg = radius_ssg(n, 0.01, 2.0)
            gsg = radius_gsg(n, 0.01, 2.0)
            assert ssg.eps_plus < gsg.eps_plus
            assert ssg.eps_minus < gsg.eps_minus

    def test_ssg_independent_reevaluation(self):
        n, delta = 101, 0.01
        log_term = math.log(1.0 / delta)
        f = (1.0 + math.sqrt((n - 1) / 8.0)) / math.sqrt(n)
        expected_plus = 4.0 * f * math.sqrt(2.0 * log_term / (n - 1)) + 6.0 * log_term / n
        expected_minus = (
            4.0 * f * math.sqrt(2.0 * log_term / (n - 1)) + 13.0 * log_term / (3.0 * n)
        )
        r = radius_ssg(n, delta, 1.0)
        assert r.eps_plus == pytest.approx(expected_plus, rel=1e-12)
        assert r.eps_minus == pytest.approx(expected_minus, rel=1e-12)

    def test_gaussian_tails_converge(self):
        ratios = [
            radius_gaussian(n, 0.01, 1.0).eps_plus / radius_gaussian(n, 0.01, 1.0).eps_minus
            for n in (10**2, 10**4, 10**6)
        ]
        assert ratios == sorted(ratios, reverse=True)
        assert ratios[1] == pytest.approx(1.0, abs=0.03)
        assert ratios[2] == pytest.approx(1.0, abs=0.003)

    def test_small_n_rejected(self):
        for radius in (radius_gsg, radius_ssg, radius_gaussian):
            with pytest.raises(ContractViolation):
                radius(1, 0.1, 1.0)

    def test_monotone_in_n_and_delta(self):
        for radius in (radius_gsg, radius_ssg, radius_gaussian):
            for delta in (0.2, 0.01):
                values = [radius(n, delta, 1.0) for n in range(2, 400)]
                assert all(
                    a.eps_plus >= b.eps_plus and a.eps_minus >= b.eps_minus
                    for a, b in zip(values, values[1:])
                )
            for n in (5, 50):
                values = [radius(n, d, 1.0) for d in (0.5, 0.1, 0.01, 0.001)]
                assert all(
                    a.eps_plus <= b.eps_plus and a.eps_minus <= b.eps_minus
                    for a, b in zip(values, values[1:])
                )

    def test_regime_ordering(self):
        for n in (9, 20, 100, 1000, 10_000):
            for delta in (0.1, 0.01, 1e-4):
                ga = radius_gaussian(n, delta, 1.0)
                ssg = radius_ssg(n, delta, 1.0)
                gsg = radius_gsg(n, delta, 1.0)
                assert ga.eps_plus <= ssg.eps_plus <= gsg.eps_plus
                assert ga.eps_minus <= ssg.eps_minus <= gsg.eps_minus


GSG = NoiseRegime(Regime.GSG, 1.0)
SSG = NoiseRegime(Regime.SSG)
GAUSSIAN = NoiseRegime(Regime.GAUSSIAN)


class TestIntervals:
    def test_additive_interval(self):
        r = radius_gsg(50, 0.1, 3.0)  # radii at the proxy, not at the estimate
        assert interval(NoiseRegime(Regime.GSG, 3.0), 50, 0.1, 9.0) == (
            9.0 - r.eps_plus, 9.0 + r.eps_minus,
        )

    def test_lcb_clamped_at_zero(self):
        lcb, ucb = interval(GSG, 2, E_INV, 1.0)  # eps_plus = 11
        assert lcb == 0.0 and ucb == pytest.approx(1.0 + 8.0 + 13.0 / 6.0)

    def test_zero_radii_degenerate(self):
        # the radii vanish as delta -> 1, and the interval shrinks to the estimate
        lcb, ucb = interval(GSG, 10, 1.0 - 1e-12, 2.5)
        assert lcb == pytest.approx(2.5, rel=1e-5) and ucb == pytest.approx(2.5, rel=1e-5)

    def test_multiplicative_interval(self):
        for regime, radius in ((SSG, radius_ssg), (GAUSSIAN, radius_gaussian)):
            s = radius(400, 0.01, 1.0)
            assert s.eps_minus < 1.0
            assert interval(regime, 400, 0.01, 2.0) == (
                2.0 / (1.0 + s.eps_plus), 2.0 / (1.0 - s.eps_minus),
            )

    def test_gaussian_hand_values(self):
        # n = 17, L = 1: s_minus = 2 * sqrt(1/16) = 1/2, s_plus = 2 * (1/4 + 1/16) = 5/8
        lcb, ucb = interval(GAUSSIAN, 17, E_INV, 2.0)
        assert (lcb, ucb) == (pytest.approx(16.0 / 13.0), pytest.approx(4.0))

    def test_multiplicative_zero_factors(self):
        for regime in (SSG, GAUSSIAN):
            lcb, ucb = interval(regime, 10, 1.0 - 1e-12, 2.0)
            assert lcb == pytest.approx(2.0, rel=1e-5) and ucb == pytest.approx(2.0, rel=1e-5)

    def test_multiplicative_precondition(self):
        # no raise while s_minus >= 1: the lcb holds, the ucb is inf
        for regime, radius in ((SSG, radius_ssg), (GAUSSIAN, radius_gaussian)):
            s = radius(3, 0.01, 1.0)
            assert s.eps_minus >= 1.0
            assert interval(regime, 3, 0.01, 2.0) == (2.0 / (1.0 + s.eps_plus), math.inf)

    def test_zero_estimate(self):
        assert interval(GSG, 50, 0.1, 0.0)[0] == 0.0
        assert interval(SSG, 400, 0.01, 0.0) == (0.0, 0.0)

    def test_interval_from_the_public_radii(self):
        # the memoized radii change no answer: over more (regime, n, delta) keys
        # than the memo holds, walked twice so that evicted keys are recomputed
        keys = [
            (regime, n, delta)
            for regime in (GSG, SSG, GAUSSIAN)
            for n in range(2, 400, 7)
            for delta in (1e-9, 1e-4, 0.05, 0.3)
        ]
        assert len(keys) > concentration._RADII_CACHE_SIZE
        for _ in range(2):
            for regime, n, delta in keys:
                hat = 0.25 + n / 100.0
                if regime is GSG:
                    r = radius_gsg(n, delta, regime.sigma_sq_proxy)
                    want = (max(hat - r.eps_plus, 0.0), hat + r.eps_minus)
                else:
                    radius = radius_ssg if regime is SSG else radius_gaussian
                    s = radius(n, delta, 1.0)
                    ucb = hat / (1.0 - s.eps_minus) if s.eps_minus < 1.0 else math.inf
                    want = (hat / (1.0 + s.eps_plus), ucb)
                assert interval(regime, n, delta, hat) == want

    def test_interval_brackets_estimate(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            hat = float(rng.uniform(0.0, 5.0))
            delta = float(rng.uniform(0.01, 0.5))
            for regime in (GSG, SSG, GAUSSIAN):
                lcb, ucb = interval(regime, int(rng.integers(2, 500)), delta, hat)
                assert 0.0 <= lcb <= hat <= ucb


class TestSchedulesAndFactors:
    def test_delta_values(self):
        assert delta_schedule(False, math.inf, 100) == pytest.approx(0.01)
        assert delta_schedule(True, math.inf, 100) == pytest.approx(1e-4)
        assert delta_schedule(True, 1.0, 100) == pytest.approx(1e-5)
        assert delta_schedule(False, 1.0, 100) == pytest.approx(1e-3)

    def test_delta_needs_two_rounds(self):
        with pytest.raises(ConfigurationError):
            delta_schedule(True, 1.0, 1)


class TestCoverageNonGaussianFamilies:
    """The strictly-subgaussian radii must cover Rademacher and symmetric
    beta draws too, per tail, at every delta."""

    @pytest.mark.parametrize("family", ["rademacher", "beta"])
    def test_ssg_per_tail_coverage(self, family):
        rng = np.random.default_rng(42)
        reps, n = 4000, 40
        if family == "rademacher":
            draws = 2.0 * rng.integers(0, 2, (reps, n)) - 1.0
            true_var = 1.0
        else:
            shape = 0.5
            draws = 2.0 * rng.beta(shape, shape, (reps, n)) - 1.0
            true_var = 1.0 / (2.0 * shape + 1.0)
        estimates = draws.var(axis=1, ddof=1)
        for delta in (0.1, 0.02):
            r = radius_ssg(n, delta, true_var)
            allowance = delta + 3.0 * math.sqrt(delta * (1 - delta) / reps)
            assert np.mean(estimates - true_var > r.eps_plus) <= allowance
            assert np.mean(true_var - estimates > r.eps_minus) <= allowance
