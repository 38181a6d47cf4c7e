"""Frozen radius values, interval construction, and ordering properties."""

import math

import numpy as np
import pytest

from varalloc.concentration import (
    ci_gsg,
    ci_ssg,
    delta_schedule,
    radius_gaussian,
    radius_gsg,
    radius_ssg,
    s_factors_gaussian,
    s_factors_ssg,
    MultiplicativeFactors,
    RadiusPair,
)
from varalloc.errors import (
    ConfigurationError,
    InsufficientDataError,
    PhasePreconditionError,
)

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
            with pytest.raises(InsufficientDataError):
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


class TestIntervals:
    def test_additive_interval(self):
        ci = ci_gsg(5.0, RadiusPair(eps_minus=1.0, eps_plus=2.0))
        assert (ci.lcb, ci.ucb) == (3.0, 6.0)

    def test_lcb_clamped_at_zero(self):
        ci = ci_gsg(1.0, RadiusPair(eps_minus=0.5, eps_plus=2.0))
        assert ci.lcb == 0.0

    def test_zero_radii_degenerate(self):
        ci = ci_gsg(2.5, RadiusPair(0.0, 0.0))
        assert ci.lcb == ci.ucb == 2.5

    def test_multiplicative_interval(self):
        ci = ci_ssg(2.0, MultiplicativeFactors(s_minus=0.5, s_plus=1.0))
        assert (ci.lcb, ci.ucb) == (1.0, 4.0)

    def test_multiplicative_zero_factors(self):
        ci = ci_ssg(2.0, MultiplicativeFactors(0.0, 0.0))
        assert ci.lcb == ci.ucb == 2.0

    def test_multiplicative_precondition(self):
        with pytest.raises(PhasePreconditionError):
            ci_ssg(2.0, MultiplicativeFactors(s_minus=1.0, s_plus=0.5))

    def test_interval_brackets_estimate(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            hat = float(rng.uniform(0.0, 5.0))
            r = radius_gsg(int(rng.integers(2, 50)), float(rng.uniform(0.01, 0.5)), 1.0)
            ci = ci_gsg(hat, r)
            assert ci.lcb <= hat <= ci.ucb
            s = s_factors_ssg(int(rng.integers(50, 500)), 0.01)
            if s.s_minus < 1.0:
                ci = ci_ssg(hat, s)
                assert ci.lcb <= hat <= ci.ucb


class TestSchedulesAndFactors:
    def test_delta_values(self):
        assert delta_schedule("nonadaptive", math.inf, 100) == pytest.approx(0.01)
        assert delta_schedule("adaptive", math.inf, 100) == pytest.approx(1e-4)
        assert delta_schedule("adaptive", 1.0, 100) == pytest.approx(1e-5)
        assert delta_schedule("nonadaptive", 1.0, 100) == pytest.approx(1e-3)

    def test_bad_algorithm(self):
        with pytest.raises(ConfigurationError):
            delta_schedule("other", 1.0, 100)

    def test_factors_match_unit_variance_radii(self):
        s = s_factors_ssg(12, 0.05)
        r = radius_ssg(12, 0.05, 1.0)
        assert (s.s_minus, s.s_plus) == (r.eps_minus, r.eps_plus)
        g = s_factors_gaussian(12, 0.05)
        rg = radius_gaussian(12, 0.05, 1.0)
        assert (g.s_minus, g.s_plus) == (rg.eps_minus, rg.eps_plus)


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
