"""Closed-form allocation mathematics for the p-norm estimation objective.

The objective over integer pull counts n is R_p(n) = || {v_k / n_k} ||_p for
per-group variances v_k.  Writing q = 2p/(p+1) (q = 2 at p = inf), the
budget-T minimizer is n_k* = v_k^{q/2} / sum_j v_j^{q/2} * T with optimal
value (sum_j v_j^{q/2})^{2/q} / T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolation, DegenerateInputError

# Numerical slack when flooring fractional counts so that exact thirds etc.
# land on the intended integer.
_FLOOR_EPS = 1e-9


def validate_norm_order(p: float) -> float:
    """Norm orders are restricted to p >= 1 (including infinity)."""
    if not (p >= 1.0):
        raise ConfigurationError(f"norm order must satisfy p >= 1, got {p}")
    return float(p)


def q_of_p(p: float) -> float:
    """Allocation exponent: 2p/(p+1) for finite p, 2 at p = infinity; the
    ratio comes first, so 2p cannot overflow."""
    p = validate_norm_order(p)
    if math.isinf(p):
        return 2.0
    return 2.0 * (p / (p + 1.0))


@dataclass(frozen=True)
class VarianceProfile:
    """True per-group variances plus optional prior knowledge.

    lower_bound is a known floor on every variance; proxy is the (GSG)
    subgaussian variance parameter dominating every variance.
    """

    variances: tuple[float, ...]
    lower_bound: float | None = None
    proxy: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "variances", tuple(float(v) for v in self.variances))
        if not self.variances or not all(math.isfinite(v) and v > 0 for v in self.variances):
            raise ConfigurationError("all variances must be positive and finite")
        low, high = min(self.variances), max(self.variances)
        if self.lower_bound is not None and not 0.0 < self.lower_bound <= low + 1e-12:
            raise ConfigurationError(f"lower_bound must lie in (0, {low}], got {self.lower_bound}")
        if self.proxy is not None and not high - 1e-12 <= self.proxy < math.inf:
            raise ConfigurationError(f"proxy must be finite and >= {high}, got {self.proxy}")

    @property
    def num_arms(self) -> int:
        return len(self.variances)

    def power_sum(self, r: float) -> float:
        """sum_k sigma_k^r with sigma_k the standard deviations."""
        return float(sum(v ** (r / 2.0) for v in self.variances))


@dataclass(frozen=True)
class AllocationPlan:
    """Intended per-arm fractions and integer pull counts summing to the horizon."""

    fractions: tuple[float, ...]
    counts: tuple[int, ...]
    horizon: int

    def __post_init__(self):
        if sum(self.counts) != self.horizon:
            raise ContractViolation(
                f"counts sum to {sum(self.counts)}, expected horizon {self.horizon}"
            )
        if any(c < 0 for c in self.counts):
            raise ContractViolation("counts must be nonnegative")
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise ContractViolation("fractions must sum to 1")


def round_allocation(
    fractions: np.ndarray, horizon: int, priority: np.ndarray
) -> tuple[int, ...]:
    """Floor fractional counts, then hand leftover rounds out greedily.

    Leftovers go one at a time to arms in decreasing priority (estimated
    variance) order, ties broken by lowest arm index.
    """
    fractions = [float(f) for f in fractions]
    priority = [float(v) for v in priority]
    if not all(map(math.isfinite, fractions)) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ContractViolation(f"fractions must be finite and sum to 1, got {fractions}")
    if len(priority) != len(fractions):
        raise ContractViolation("one priority per arm required")
    counts = [math.floor(f * horizon + _FLOOR_EPS) for f in fractions]
    order = sorted(range(len(fractions)), key=lambda k: (-priority[k], k))
    residual = horizon - sum(counts)
    i = 0
    while residual > 0:
        counts[order[i % len(order)]] += 1
        residual -= 1
        i += 1
    # The floor slack can overshoot only when a fraction sits within eps of an
    # integer; take the excess back from the lowest-priority arms.
    i = len(order) - 1
    while residual < 0:
        k = order[i % len(order)]
        if counts[k] > 0:
            counts[k] -= 1
            residual += 1
        i -= 1
    return tuple(counts)


def optimal_allocation(profile: VarianceProfile, p: float, horizon: int) -> AllocationPlan:
    """Variance-power allocation: fractions v_k^{q/2} / sum_j v_j^{q/2}.

    Integerization prioritizes leftover rounds by per-arm error after
    flooring (variance / floored count), which keeps the rounded objective
    within a few percent of the exhaustive integer optimum at small T.
    """
    q = q_of_p(p)
    if horizon < profile.num_arms:
        raise ConfigurationError("horizon must be at least the number of arms")
    variances = profile.variances
    fractions = plugin_weights(variances, q)
    floors = np.maximum(np.floor(fractions * horizon + _FLOOR_EPS), 1.0)
    counts = list(round_allocation(fractions, horizon, np.asarray(variances) / floors))
    # A share below 1/T can round to 0 pulls, where the objective is undefined;
    # such an arm takes one pull from the arm whose error v/(n - 1) grows least.
    for k in [k for k, n in enumerate(counts) if n == 0]:
        donor = min((j for j, n in enumerate(counts) if n > 1),
                    key=lambda j: variances[j] / (counts[j] - 1))
        counts[donor] -= 1
        counts[k] = 1
    return AllocationPlan(tuple(float(f) for f in fractions), tuple(counts), horizon)


def objective_rp(counts, true_variances, p: float) -> float:
    """p-norm of the per-group error vector e = {v_k / n_k}.

    Finite p is computed as max(e) * ||e / max(e)||_p, so e**p cannot
    underflow to zero at large p.
    """
    p = validate_norm_order(p)
    counts = np.asarray(counts, dtype=float)
    variances = np.asarray(true_variances, dtype=float)
    if counts.shape != variances.shape:
        raise ContractViolation("counts and variances must align")
    if np.any(counts < 1):
        raise ContractViolation("every count must be >= 1 for the objective")
    errors = variances / counts
    top = float(errors.max())
    if math.isinf(p):
        return top
    return top * float(((errors / top) ** p).sum() ** (1.0 / p))


def optimal_objective(profile: VarianceProfile, p: float, horizon: int) -> float:
    """Closed-form optimum (sum_k v_k^{q/2})^{2/q} / T."""
    q = q_of_p(p)
    return profile.power_sum(q) ** (2.0 / q) / horizon


def plugin_weights(variance_estimates, q: float) -> np.ndarray:
    """Normalized q/2 powers of variance estimates: the plug-in shares.  The
    powers are taken on Python floats, as in `adaptive_weight`, so shares do
    not depend on which vectorized pow the local numpy dispatches to."""
    est = [float(v) for v in variance_estimates]
    if any(v < 0 for v in est):
        raise ContractViolation("variance estimates must be nonnegative")
    powers = [v ** (q / 2.0) for v in est]
    total = _plain_sum(powers)
    if total == math.inf:  # finite powers whose sum passes the float range
        top = max(powers)
        powers = [x / top for x in powers]
        total = _plain_sum(powers)
    if total <= 0.0:
        raise DegenerateInputError("all variance estimates are zero")
    return np.array(powers) / total


def _plain_sum(values) -> float:
    """Left-to-right float sum; sum() compensates from Python 3.12 on."""
    total = 0.0
    for x in values:
        total += x
    return total


def adaptive_weight(lcb_k: float, ucb_others, q: float) -> float:
    """Pessimistic share for one arm: its LCB power against the others' UCBs."""
    if lcb_k < 0:
        raise ContractViolation("lcb must be nonnegative")
    others = [float(u) for u in ucb_others]
    if any(u <= 0 for u in others):
        raise ContractViolation("ucb values must be positive")
    half = q / 2.0
    own = lcb_k**half
    total = own + _plain_sum(u**half for u in others)
    return float(own / total) if total > 0.0 else math.nan  # 0/0: a lone arm at lcb 0


def initial_share(lower_bound: float, proxy: float, num_arms: int, q: float) -> float:
    """Share no optimal share falls below: lb^{q/2} / (lb^{q/2} + (K-1) * proxy^{q/2})."""
    low = lower_bound ** (q / 2.0)
    return low / (low + (num_arms - 1) * proxy ** (q / 2.0))


def tau_nonadaptive(
    lower_bound: float, proxy: float, num_arms: int, horizon: int, q: float
) -> int:
    """Initial per-arm run length from the known variance floor and proxy.

    floor(initial_share * T), clamped to [2, T - K + 1] so the variance
    estimator is defined and every other arm keeps at least one round.  The
    un-clamped value never exceeds the smallest optimal count.
    """
    if lower_bound <= 0 or proxy <= 0:
        raise ConfigurationError("lower_bound and proxy must be positive")
    if lower_bound > proxy + 1e-12:
        raise ConfigurationError("lower_bound must not exceed the proxy")
    tau = int(math.floor(initial_share(lower_bound, proxy, num_arms, q) * horizon + _FLOOR_EPS))
    return max(2, min(tau, horizon - num_arms + 1))
