"""Variance-concentration radii and the confidence interval of each noise regime.

All radii bound the deviation of the (n-1)-normalized sample variance around
the true variance, each tail at probability delta:

  general subgaussian (proxy s2):
    eps_plus  = 4*s2*f(n)*sqrt(2L/(n-1)) + 6*s2*L/n        (upper deviation)
    eps_minus = 4*s2*f(n)*sqrt(2L/(n-1)) + 13*s2*L/(3n)    (lower deviation)
    with f(n) = (1 + sqrt(n-1)) / sqrt(n) and L = log(1/delta)

  strictly subgaussian: same shape with f(n) = (1 + sqrt((n-1)/8)) / sqrt(n)
  and the variance itself in place of the proxy; the radii at unit variance,
  radius_ssg(n, delta, 1.0), are the purely (n, delta)-dependent
  multiplicative factors s+- = eps+-.

  exact Gaussian (chi-square tails):
    eps_plus  = 2*v*(sqrt(L/(n-1)) + L/(n-1))
    eps_minus = 2*v*sqrt(L/(n-1))

`interval` turns them into the policies' (lcb, ucb); it and its radii memo
hold the package's only branch over the regimes: additive at the proxy under
GSG, multiplicative under SSG and Gaussian noise, where ucb = inf until
s_minus < 1.  The radii depend on (regime, n, delta) alone, never on the
data, so they are memoized across runs in a fixed-size cache.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .arms import NoiseRegime, Regime
from .errors import ConfigurationError, ContractViolation

# Entries of the radii memo.  The runs of one horizon share their keys, and a
# fixed bound keeps the memo's memory flat however many horizons a sweep has.
_RADII_CACHE_SIZE = 256


@dataclass(frozen=True)
class RadiusPair:
    """Additive deviation radii: eps_minus (lower tail), eps_plus (upper tail)."""

    eps_minus: float
    eps_plus: float


def _check(n: int, delta: float):
    if n < 2:
        raise ContractViolation(f"radii need n >= 2 observations, got n={n}")
    if not 0.0 < delta < 1.0:
        raise ConfigurationError(f"delta must lie in (0, 1), got {delta}")


def _f_gsg(n: int) -> float:
    return (1.0 + math.sqrt(n - 1.0)) / math.sqrt(n)


def _f_ssg(n: int) -> float:
    return (1.0 + math.sqrt((n - 1.0) / 8.0)) / math.sqrt(n)


def _subgaussian(n: int, delta: float, scale: float, f: float) -> RadiusPair:
    log_term = math.log(1.0 / delta)
    lead = 4.0 * scale * f * math.sqrt(2.0 * log_term / (n - 1.0))
    plus = lead + 6.0 * scale * log_term / n
    minus = lead + 13.0 * scale * log_term / (3.0 * n)
    return RadiusPair(eps_minus=minus, eps_plus=plus)


def radius_gsg(n: int, delta: float, sigma_sq_proxy: float) -> RadiusPair:
    """Two-sided radii under a known subgaussian variance proxy."""
    _check(n, delta)
    return _subgaussian(n, delta, sigma_sq_proxy, _f_gsg(n))


def radius_ssg(n: int, delta: float, sigma_sq_hat_or_true: float) -> RadiusPair:
    """Strictly-subgaussian radii scaled by the (estimated or true) variance."""
    _check(n, delta)
    return _subgaussian(n, delta, sigma_sq_hat_or_true, _f_ssg(n))


def radius_gaussian(n: int, delta: float, sigma_x_sq: float) -> RadiusPair:
    """Chi-square radii for exactly Gaussian observations (asymmetric)."""
    _check(n, delta)
    log_term = math.log(1.0 / delta)
    root = math.sqrt(log_term / (n - 1.0))
    return RadiusPair(
        eps_minus=2.0 * sigma_x_sq * root,
        eps_plus=2.0 * sigma_x_sq * (root + log_term / (n - 1.0)),
    )


@functools.lru_cache(maxsize=_RADII_CACHE_SIZE)
def _radii(regime: NoiseRegime, n: int, delta: float) -> tuple[float, float]:
    """(eps_minus, eps_plus) for `interval`: at the proxy under GSG, at unit
    variance (the factors s+-) under SSG and Gaussian noise."""
    if regime.regime == Regime.GSG:
        r = radius_gsg(n, delta, regime.sigma_sq_proxy)
    else:
        radius = radius_ssg if regime.regime == Regime.SSG else radius_gaussian
        r = radius(n, delta, 1.0)
    return r.eps_minus, r.eps_plus


def interval(
    regime: NoiseRegime, n: int, delta: float, sigma_sq_hat: float
) -> tuple[float, float]:
    """Variance interval (lcb, ucb) around the sample variance of n observations.

    GSG: [max(hat - eps_plus, 0), hat + eps_minus] at the variance proxy.
    SSG and Gaussian: [hat / (1 + s_plus), hat / (1 - s_minus)] from the radii
    at unit variance, with ucb = inf while s_minus >= 1.  The radii are a pure
    function of (regime, n, delta) and come from a least-recently-used memo of
    `_RADII_CACHE_SIZE` entries; only the last step reads sigma_sq_hat.
    """
    eps_minus, eps_plus = _radii(regime, n, delta)
    if regime.regime == Regime.GSG:
        return max(sigma_sq_hat - eps_plus, 0.0), sigma_sq_hat + eps_minus
    ucb = sigma_sq_hat / (1.0 - eps_minus) if eps_minus < 1.0 else math.inf
    return sigma_sq_hat / (1.0 + eps_plus), ucb


def delta_schedule(adaptive: bool, p: float, horizon: int) -> float:
    """Per-tail failure probability tied to the horizon.

    Non-adaptive: T^-1 for p = inf, T^-3/2 for finite p.
    Adaptive (uniform over sample sizes): T^-2 for p = inf, T^-5/2 for finite p.
    """
    if horizon < 2:
        raise ConfigurationError(f"horizon must be >= 2, got {horizon}")
    exponent = (1.0 if math.isinf(p) else 1.5) + (1.0 if adaptive else 0.0)
    return float(horizon) ** (-exponent)
