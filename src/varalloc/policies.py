"""Sequential allocation policies over sampled data.

Three deterministic state machines run one skeleton, `_run_policy`, over one
run object, `_Run`: estimate each group's variance, convert estimates into
allocation shares, and exhaust the budget so that total pulls equal the
horizon exactly.

* run_nonadaptive: the skeleton with a fixed-length first phase sized from a
  known variance floor, no second phase and plug-in final shares.
* run_adaptive: three phases driven by variance LCB/UCBs; an arm stops
  being pulled once its count reaches its pessimistic share of the horizon.
* run_contextual: the adaptive skeleton with ridge-regression coefficient
  estimates and residual-based variance estimates; the arm for each round
  is committed before that round's context is revealed.

`_Run` owns what a run changes: the budget, the pull order, the good event
and each arm's count and statistics, `RunningMoments` or `RidgeState`, into
which it folds the environment's summary of each pull segment; a canonical
run over Gaussian or Rademacher arms costs O(K * pull segments), not O(T).
`_Run.interval(k)` is arm k's (lcb, ucb) from `concentration.interval` at
its own count and `variance()`, with ucb = inf while it is one-sided.

`_phase1_ok`, lcb > 0 and ucb < inf, is the one rule by which an arm leaves
the first phase.  Under SSG or Gaussian noise any positive estimate passes it
from `_phase1_threshold` on, the first n that passes at unit variance; that n
is memoized per (regime, delta), and an adaptive run's first segments reach it.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .allocation import (
    VarianceProfile,
    adaptive_weight,
    objective_rp,
    optimal_objective,
    plugin_weights,
    q_of_p,
    round_allocation,
    tau_nonadaptive,
    validate_norm_order,
)
from .arms import (
    ArmSpec,
    CanonicalEnv,
    ContextSpec,
    ContextualEnv,
    NoiseRegime,
    Regime,
)
from .concentration import delta_schedule, interval
from .errors import ConfigurationError, DegenerateInputError
from .estimation import RidgeState, RunningMoments

# Upper bound on elimination sweeps; the share iteration converges in far
# fewer, this only guards against pathological stalls.
_SWEEP_CAP = 512
# The objective casts counts to float, which holds every integer up to 2**53.
_MAX_HORIZON = 2**53
# Entries of the phase-1 threshold memo, one per (regime, delta): a sweep uses
# one delta per (horizon, p, policy).
_THRESHOLD_CACHE_SIZE = 256


@dataclass(frozen=True)
class PolicyConfig:
    """Inputs of one policy run.  Every run sets `arms`; a contextual run also
    sets `betas` and `context_spec`, and its arms are the mean-zero noise.
    `lower_bound` is a known floor on every variance, or None when the floor
    is unknown.  Every run doubles counts in phase 2 and takes plug-in shares
    in phase 3."""

    horizon: int
    p: float
    regime: NoiseRegime
    arms: tuple[ArmSpec, ...]
    betas: tuple[tuple[float, ...], ...] | None = None
    context_spec: ContextSpec | None = None
    lower_bound: float | None = None
    seed: int = 0

    def __post_init__(self):
        validate_norm_order(self.p)
        if (self.betas is None) != (self.context_spec is None):
            raise ConfigurationError("contextual runs need betas and a context spec")
        if self.context_spec is not None:
            if len(self.betas) != len(self.arms):
                raise ConfigurationError("one beta vector per arm required")
            if self.p != 1.0:
                raise ConfigurationError("the contextual policy is defined for p = 1")
        spec = self.context_spec
        check_horizon(self.horizon, self.num_arms, None if spec is None else spec.dimension)
        proxy = self.regime.sigma_sq_proxy
        if self.lower_bound is not None and proxy is None:
            raise ConfigurationError("a known lower bound also needs the variance proxy")
        # tau_nonadaptive's own check, made here so that a config fails at load
        if self.lower_bound is not None and self.lower_bound > proxy + 1e-12:
            raise ConfigurationError("lower_bound must not exceed the proxy")
        # the floor and the proxy against every arm's variance
        VarianceProfile(tuple(arm.variance for arm in self.arms), self.lower_bound, proxy)

    @property
    def num_arms(self) -> int:
        return len(self.arms)

    def environment(self, seed=None):
        """The environment this config runs in, drawing from one Generator:
        `seed` itself when it is a Generator, else `default_rng(seed)` for an
        int or a SeedSequence, by default `self.seed`."""
        seed = self.seed if seed is None else seed
        if self.context_spec is None:
            return CanonicalEnv(self.arms, seed)
        return ContextualEnv(self.betas, self.context_spec, self.arms, seed)


def check_horizon(horizon: int, num_arms: int, dim: int | None = None):
    """Reject a horizon below K times `_first_pulls` or past the objective's float
    counts, 2**53.  Integer arithmetic only, so any int is checked."""
    first = _first_pulls(dim)
    if horizon < first * num_arms:
        of_dim = "" if dim is None else f" of dim {dim}"
        raise ConfigurationError(
            f"horizon {horizon} too small for {num_arms} arms{of_dim} (need >= {first}K)"
        )
    if horizon > _MAX_HORIZON:
        raise ConfigurationError(f"horizon {horizon} exceeds 2**53")


def _first_pulls(dim: int | None) -> int:
    """Pulls an arm needs first: 2 for a sample variance, max(2, dim) for a ridge state."""
    return 2 if dim is None else max(2, dim)


@dataclass
class PolicyTrace:
    """Full record of one run.  The objective, its optimum and the regret are
    measured against the environment's true variances, and `good_event_held`
    says whether every variance interval the run computed contained them."""

    counts: tuple[int, ...]
    phase1_ends: tuple[int, ...]
    stopping_times: tuple[int, ...]
    estimates: tuple
    variance_estimates: tuple[float, ...]
    realized_objective: float
    optimal_objective: float
    realized_regret: float
    good_event_held: bool
    truncated: bool = False
    budget_clamped: bool = False
    gamma_floored: bool = False
    pull_order: tuple[tuple[int, int], ...] = ()


def phase1_length(noise: NoiseRegime, horizon: int, num_arms: int) -> int:
    """Initial per-arm run length when no variance floor is known.

    General subgaussian: min(ceil(64 * proxy^2 * log T), T // K), a formula
    past the float range counting as infinite; the strictly-subgaussian and
    Gaussian regimes need only min(ceil(18 log T), T // K).  Always at least
    2 so the variance estimator is defined.
    """
    log_t = math.log(horizon)
    formula = 18.0 * log_t
    if noise.regime == Regime.GSG:
        try:
            formula = 64.0 * noise.sigma_sq_proxy**2 * log_t
        except OverflowError:
            formula = math.inf
    return max(2, math.ceil(min(formula, horizon // num_arms)))  # ceil(inf) would raise


def phase2_schedule(current_n: int, target: float) -> int:
    """Next sample size at which the stopping condition is re-checked: the
    count doubles, capped at the target.  Phase 2 starts once every arm has
    at least 2 pulls, so doubling always adds a pull."""
    return min(math.ceil(target), 2 * current_n)


def _phase1_ok(lcb: float, ucb: float) -> bool:
    """The first phase's pass rule: the arm's interval is two-sided."""
    return lcb > 0.0 and ucb < math.inf


@functools.lru_cache(maxsize=_THRESHOLD_CACHE_SIZE)
def _phase1_threshold(regime: Regime, delta: float) -> int | None:
    """First n whose interval passes `_phase1_ok` at unit variance, found by
    doubling then bisection.  SSG and Gaussian intervals scale with the
    variance estimate, so any positive estimate passes from that n on; under
    GSG the answer depends on the data, and this returns None."""
    if regime == Regime.GSG:
        return None
    noise = NoiseRegime(regime)
    passes = lambda n: _phase1_ok(*interval(noise, n, delta, 1.0))
    hi = 2
    while not passes(hi):
        hi *= 2
    return 2 + bisect.bisect_left(range(2, hi + 1), True, key=passes)


class _Run:
    """One policy run's state, in `env`, or by default in `cfg.environment()`.
    `good` is the good event, whether every interval so far held its arm's
    true variance; `objective_scale` is the objective's factor."""

    def __init__(self, cfg: PolicyConfig, env, adaptive: bool):
        spec = cfg.context_spec
        self.cfg = cfg
        self.env = cfg.environment() if env is None else env
        self.adaptive = adaptive
        if spec is None:
            self.stats = [RunningMoments() for _ in cfg.arms]
            self.objective_scale = 1.0
        else:
            self.stats = [RidgeState(spec.dimension, spec.lambda_min) for _ in cfg.arms]
            self.objective_scale = 2.0 * spec.dimension / spec.lambda_min
        self.budget = cfg.horizon
        self.pulls = [0] * cfg.num_arms
        self.order: list[list[int]] = []
        self.q = q_of_p(cfg.p)
        self.delta = delta_schedule(adaptive, cfg.p, cfg.horizon)
        self.truth = self.env.true_variances
        self.good = True

    def draw(self, k: int, m: int) -> int:
        m = min(m, self.budget)
        if m <= 0:
            return 0
        self.stats[k].update_many(self.env.pull(k, m))
        self.pulls[k] += m
        self.budget -= m
        if self.order and self.order[-1][0] == k:
            self.order[-1][1] += m
        else:
            self.order.append([k, m])
        return m

    def interval(self, k: int) -> tuple[float, float]:
        """Arm k's (lcb, ucb) at its own count and variance estimate; clears
        the good event when the true variance falls outside it."""
        lcb, ucb = interval(self.cfg.regime, self.pulls[k], self.delta, self.stats[k].variance())
        if not lcb <= self.truth[k] <= ucb:
            self.good = False
        return lcb, ucb


def _phase1(run: _Run) -> tuple[list[int], bool]:
    """Each arm's first phase in one segment, from the known floor or
    `phase1_length`, raised to the pass threshold in adaptive runs, kept between
    the first pulls and T // K; failing adaptive arms then take one pull per
    round.  Returns the counts and whether the budget ran out first."""
    cfg, k_arms, horizon = run.cfg, run.cfg.num_arms, run.cfg.horizon
    if cfg.lower_bound is not None:
        start = tau_nonadaptive(cfg.lower_bound, cfg.regime.sigma_sq_proxy, k_arms, horizon, run.q)
    else:
        start = phase1_length(cfg.regime, horizon, k_arms)
    if run.adaptive:
        start = max(start, _phase1_threshold(cfg.regime.regime, run.delta) or 0)
    dim = None if cfg.context_spec is None else cfg.context_spec.dimension
    start = max(_first_pulls(dim), min(start, horizon // k_arms))
    for k in range(k_arms):
        run.draw(k, start)
    ok = lambda k: _phase1_ok(*run.interval(k))
    failing = [k for k in range(k_arms) if not ok(k)]  # non-adaptive: the good event only
    while run.adaptive and failing and run.budget > 0:
        failing = [k for k in failing if run.draw(k, 1) == 0 or not ok(k)]
    return run.pulls.copy(), run.adaptive and bool(failing)


def _phase2(run: _Run) -> tuple[list[int], bool]:
    """Elimination sweeps: pull active arms toward their shares, re-check."""
    k_arms, horizon = run.cfg.num_arms, run.cfg.horizon
    active = set(range(k_arms))
    shares = [run.pulls[k] / horizon for k in range(k_arms)]
    stopping = list(run.pulls)
    sweeps = 0
    while active and run.budget > 0 and sweeps < _SWEEP_CAP:
        sweeps += 1
        for k in sorted(active):
            target = shares[k] * horizon
            if run.pulls[k] < target - 1e-9:
                run.draw(k, phase2_schedule(run.pulls[k], target) - run.pulls[k])
        bounds = [run.interval(k) for k in range(k_arms)]
        for k in range(k_arms):
            others = [bounds[j][1] for j in range(k_arms) if j != k]
            shares[k] = adaptive_weight(bounds[k][0], others, run.q)
            if run.pulls[k] >= shares[k] * horizon - 1e-9:
                stopping[k] = run.pulls[k]
                active.discard(k)
            else:
                active.add(k)
    truncated = bool(active)
    for k in active:
        stopping[k] = run.pulls[k]
    return stopping, truncated


def _phase3(run: _Run) -> tuple[list[float], bool]:
    """Plug-in final shares from the variance estimates, uniform when every
    estimate is zero, rounded to counts that sum to the horizon; arms are
    pulled up to their counts, highest estimated variance first.  Returns the
    variance estimates and whether some arm was already past its count."""
    k_arms = run.cfg.num_arms
    sigma_hats = [stats.variance() for stats in run.stats]
    try:
        weights = plugin_weights(sigma_hats, run.q)
    except DegenerateInputError:
        weights = np.full(k_arms, 1.0 / k_arms)
    counts = round_allocation(weights, run.cfg.horizon, sigma_hats)
    clamped = any(n > c for n, c in zip(run.pulls, counts))
    for k in sorted(range(k_arms), key=lambda k: (-sigma_hats[k], k)):
        run.draw(k, counts[k] - run.pulls[k])
    return sigma_hats, clamped


def _run_policy(run: _Run) -> PolicyTrace:
    """The skeleton every policy shares.  The non-adaptive variant keeps the
    first phase at its fixed length and has no second phase."""
    cfg, scale = run.cfg, run.objective_scale
    phase1_ends, starved = _phase1(run)
    if run.adaptive and not starved:
        stopping, truncated = _phase2(run)
    else:
        stopping, truncated = list(run.pulls), starved
    sigma_hats, clamped = _phase3(run)

    realized = scale * objective_rp(run.pulls, run.truth, cfg.p)
    optimal = scale * optimal_objective(VarianceProfile(tuple(run.truth)), cfg.p, cfg.horizon)
    return PolicyTrace(
        counts=tuple(run.pulls),
        phase1_ends=tuple(phase1_ends),
        stopping_times=tuple(stopping),
        estimates=tuple(stats.point() for stats in run.stats),  # can set `floored`
        variance_estimates=tuple(sigma_hats),
        realized_objective=realized,
        optimal_objective=optimal,
        realized_regret=realized - optimal,
        good_event_held=run.good,
        truncated=truncated,
        budget_clamped=clamped,
        gamma_floored=any(stats.floored for stats in run.stats),
        pull_order=tuple(map(tuple, run.order)),
    )


def run_nonadaptive(cfg: PolicyConfig, env=None) -> PolicyTrace:
    """Fixed-length first phase from the known floor, one plug-in reallocation."""
    if cfg.lower_bound is None:
        raise ConfigurationError("the non-adaptive policy requires a variance lower bound")
    if cfg.context_spec is not None:
        raise ConfigurationError("the non-adaptive policy runs on canonical arms")
    return _run_policy(_Run(cfg, env, adaptive=False))


def run_adaptive(cfg: PolicyConfig, env=None) -> PolicyTrace:
    """Three-phase adaptive policy; needs no variance floor."""
    if cfg.context_spec is not None:
        raise ConfigurationError("the adaptive policy runs on canonical arms")
    return _run_policy(_Run(cfg, env, adaptive=True))


def run_contextual(cfg: PolicyConfig, env=None) -> PolicyTrace:
    """Adaptive policy over linear rewards with residual variance estimates."""
    if cfg.context_spec is None:
        raise ConfigurationError("the contextual policy needs a contextual config")
    return _run_policy(_Run(cfg, env, adaptive=True))
