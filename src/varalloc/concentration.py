"""Variance-concentration radii and confidence bounds for the three noise regimes.

All radii bound the deviation of the (n-1)-normalized sample variance around
the true variance, each tail at probability delta:

  general subgaussian (proxy s2):
    eps_plus  = 4*s2*f(n)*sqrt(2L/(n-1)) + 6*s2*L/n        (upper deviation)
    eps_minus = 4*s2*f(n)*sqrt(2L/(n-1)) + 13*s2*L/(3n)    (lower deviation)
    with f(n) = (1 + sqrt(n-1)) / sqrt(n) and L = log(1/delta)

  strictly subgaussian: same shape with f(n) = (1 + sqrt((n-1)/8)) / sqrt(n)
  and the variance itself in place of the proxy; dividing by the variance
  gives the purely (n, delta)-dependent multiplicative factors s+-.

  exact Gaussian (chi-square tails):
    eps_plus  = 2*v*(sqrt(L/(n-1)) + L/(n-1))
    eps_minus = 2*v*sqrt(L/(n-1))
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError, InsufficientDataError, PhasePreconditionError


@dataclass(frozen=True)
class RadiusPair:
    """Additive deviation radii: eps_minus (lower tail), eps_plus (upper tail)."""

    eps_minus: float
    eps_plus: float


@dataclass(frozen=True)
class MultiplicativeFactors:
    """Radii divided by the true variance; depend only on (n, delta)."""

    s_minus: float
    s_plus: float


@dataclass(frozen=True)
class ConfidenceInterval:
    lcb: float
    ucb: float


def _check(n: int, delta: float):
    if n < 2:
        raise InsufficientDataError(f"radii need n >= 2 observations, got n={n}")
    if not 0.0 < delta < 1.0:
        raise ConfigurationError(f"delta must lie in (0, 1), got {delta}")


def _f_gsg(n: int) -> float:
    return (1.0 + math.sqrt(n - 1.0)) / math.sqrt(n)


def _f_ssg(n: int) -> float:
    return (1.0 + math.sqrt((n - 1.0) / 8.0)) / math.sqrt(n)


def _radii(n: int, delta: float, scale: float, f: float) -> RadiusPair:
    log_term = math.log(1.0 / delta)
    lead = 4.0 * scale * f * math.sqrt(2.0 * log_term / (n - 1.0))
    plus = lead + 6.0 * scale * log_term / n
    minus = lead + 13.0 * scale * log_term / (3.0 * n)
    return RadiusPair(eps_minus=minus, eps_plus=plus)


def radius_gsg(n: int, delta: float, sigma_sq_proxy: float) -> RadiusPair:
    """Two-sided radii under a known subgaussian variance proxy."""
    _check(n, delta)
    return _radii(n, delta, sigma_sq_proxy, _f_gsg(n))


def radius_ssg(n: int, delta: float, sigma_sq_hat_or_true: float) -> RadiusPair:
    """Strictly-subgaussian radii scaled by the (estimated or true) variance."""
    _check(n, delta)
    return _radii(n, delta, sigma_sq_hat_or_true, _f_ssg(n))


def radius_gaussian(n: int, delta: float, sigma_x_sq: float) -> RadiusPair:
    """Chi-square radii for exactly Gaussian observations (asymmetric)."""
    _check(n, delta)
    log_term = math.log(1.0 / delta)
    root = math.sqrt(log_term / (n - 1.0))
    return RadiusPair(
        eps_minus=2.0 * sigma_x_sq * root,
        eps_plus=2.0 * sigma_x_sq * (root + log_term / (n - 1.0)),
    )


def s_factors_ssg(n: int, delta: float) -> MultiplicativeFactors:
    """Strictly-subgaussian radii per unit variance."""
    r = radius_ssg(n, delta, 1.0)
    return MultiplicativeFactors(s_minus=r.eps_minus, s_plus=r.eps_plus)


def s_factors_gaussian(n: int, delta: float) -> MultiplicativeFactors:
    """Gaussian chi-square radii per unit variance."""
    r = radius_gaussian(n, delta, 1.0)
    return MultiplicativeFactors(s_minus=r.eps_minus, s_plus=r.eps_plus)


def ci_gsg(sigma_sq_hat: float, r: RadiusPair) -> ConfidenceInterval:
    """Additive interval: [max(hat - eps_plus, 0), hat + eps_minus]."""
    return ConfidenceInterval(
        lcb=max(sigma_sq_hat - r.eps_plus, 0.0),
        ucb=sigma_sq_hat + r.eps_minus,
    )


def ci_ssg(sigma_sq_hat: float, s: MultiplicativeFactors) -> ConfidenceInterval:
    """Multiplicative interval: [hat / (1 + s_plus), hat / (1 - s_minus)].

    Only valid once s_minus < 1; before that the first phase of the adaptive
    policy must keep sampling.
    """
    if s.s_minus >= 1.0:
        raise PhasePreconditionError(
            f"s_minus={s.s_minus:.4f} >= 1: interval undefined at this sample size"
        )
    return ConfidenceInterval(
        lcb=sigma_sq_hat / (1.0 + s.s_plus),
        ucb=sigma_sq_hat / (1.0 - s.s_minus),
    )


def delta_schedule(algorithm: str, p: float, horizon: int) -> float:
    """Per-tail failure probability tied to the horizon.

    Non-adaptive: T^-1 for p = inf, T^-3/2 for finite p.
    Adaptive (uniform over sample sizes): T^-2 for p = inf, T^-5/2 for finite p.
    """
    if horizon < 2:
        raise ConfigurationError(f"horizon must be >= 2, got {horizon}")
    alg = algorithm.lower()
    if alg == "nonadaptive":
        exponent = 1.0 if math.isinf(p) else 1.5
    elif alg == "adaptive":
        exponent = 2.0 if math.isinf(p) else 2.5
    else:
        raise ConfigurationError(f"unknown algorithm kind {algorithm!r}")
    return float(horizon) ** (-exponent)
