"""Sequential allocation policies over sampled data.

Three deterministic state machines share the same skeleton: estimate each
group's variance, convert estimates into allocation shares, and exhaust the
budget so that total pulls equal the horizon exactly.

* run_nonadaptive: fixed initial run length from a known variance floor,
  a single plug-in reallocation, no confidence bounds.
* run_adaptive: three phases driven by variance LCB/UCBs; an arm stops
  being pulled once its count reaches its pessimistic share of the horizon.
* run_contextual: the adaptive skeleton with ridge-regression coefficient
  estimates and residual-based variance estimates; the arm for each round
  is committed before that round's context is revealed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocation import (
    plugin_weights,
    adaptive_weight,
    phase3_ucb_weights,
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
from .concentration import (
    ci_gsg,
    ci_ssg,
    delta_schedule,
    radius_gsg,
    s_factors_gaussian,
    s_factors_ssg,
)
from .errors import (
    ConfigurationError,
    DegenerateInputError,
    SingularSystemError,
)
from .estimation import RidgeState, RunningMoments, gamma_schedule

# Upper bound on elimination sweeps; the share iteration converges in far
# fewer, this only guards against pathological stalls.
_SWEEP_CAP = 512


@dataclass(frozen=True)
class PolicyConfig:
    """Inputs of one policy run.  Canonical runs set `arms`; contextual runs
    set (betas, context_spec, noise_arms)."""

    horizon: int
    p: float
    regime: NoiseRegime
    arms: tuple[ArmSpec, ...] | None = None
    betas: tuple[tuple[float, ...], ...] | None = None
    context_spec: ContextSpec | None = None
    noise_arms: tuple[ArmSpec, ...] | None = None
    knows_lower_bound: bool = False
    lower_bound: float | None = None
    phase3_ucb_mode: bool = False
    batch_growth: float = 2.0
    lcb_margin: float = 1.0
    seed: int = 0

    def __post_init__(self):
        validate_norm_order(self.p)
        if (self.arms is None) == (self.noise_arms is None):
            raise ConfigurationError("set exactly one of arms / contextual bundle")
        if self.noise_arms is not None:
            if self.betas is None or self.context_spec is None:
                raise ConfigurationError("contextual runs need betas and a context spec")
            if len(self.betas) != len(self.noise_arms):
                raise ConfigurationError("one beta vector per noise arm required")
        if self.horizon < 2 * self.num_arms:
            raise ConfigurationError(
                f"horizon {self.horizon} too small for {self.num_arms} arms (need >= 2K)"
            )
        if self.knows_lower_bound and (self.lower_bound is None or self.lower_bound <= 0):
            raise ConfigurationError("knows_lower_bound requires a positive lower_bound")
        if self.batch_growth <= 1.0:
            raise ConfigurationError("batch_growth must exceed 1")
        if self.lcb_margin < 1.0:
            raise ConfigurationError("lcb_margin must be >= 1")

    @property
    def num_arms(self) -> int:
        return len(self.arms) if self.arms is not None else len(self.noise_arms)


@dataclass
class PolicyTrace:
    """Full record of one run."""

    counts: tuple[int, ...]
    phase1_ends: tuple[int, ...]
    stopping_times: tuple[int, ...]
    estimates: tuple
    variance_estimates: tuple[float, ...]
    realized_objective: float | None
    optimal_objective: float | None
    realized_regret: float | None
    good_event_held: bool | None
    truncated: bool = False
    budget_clamped: bool = False
    gamma_floored: bool = False
    pull_order: tuple[tuple[int, int], ...] = ()


def phase1_length(regime, proxy_or_unused: float, horizon: int, num_arms: int) -> int:
    """Initial per-arm run length when no variance floor is known.

    General subgaussian: min(ceil(64 * proxy^2 * log T), T // K); the
    strictly-subgaussian and Gaussian regimes need only min(ceil(18 log T),
    T // K).  Always at least 2 so the variance estimator is defined.
    """
    kind = regime.regime if isinstance(regime, NoiseRegime) else regime
    log_t = math.log(horizon)
    if kind == Regime.GSG:
        if proxy_or_unused is None or proxy_or_unused <= 0:
            raise ConfigurationError("GSG initial run length needs the variance proxy")
        formula = 64.0 * proxy_or_unused**2 * log_t
    else:
        formula = 18.0 * log_t
    return max(2, min(math.ceil(formula), horizon // num_arms))


def phase2_schedule(current_n: int, target: float, batch_growth: float) -> int:
    """Next sample size at which the stopping condition is re-checked."""
    if batch_growth <= 1.0:
        raise ConfigurationError("batch_growth must exceed 1")
    return min(
        math.ceil(target), max(current_n + 1, math.ceil(current_n * batch_growth))
    )


class _CIEngine:
    """Regime-dependent confidence bounds plus good-event bookkeeping."""

    def __init__(self, regime: NoiseRegime, delta: float, margin: float, truth, override=None):
        self.regime = regime
        self.delta = delta
        self.margin = margin
        self.truth = truth  # true variances, or None when unknown
        self.override = override
        self.good = True if truth is not None else None

    def evaluate(self, k: int, n: int, sigma_sq_hat: float):
        """Returns (lcb, ucb, phase1_ok); ucb is inf while undefined.

        Clears the good event when the true variance falls outside [lcb, ucb].
        """
        if self.override is not None:
            ci = self.override(k, n, sigma_sq_hat)
            lcb, ucb, ok = ci.lcb, ci.ucb, ci.lcb > 0.0
        elif self.regime.regime == Regime.GSG:
            r = radius_gsg(n, self.delta, self.regime.sigma_sq_proxy)
            ci = ci_gsg(sigma_sq_hat, r)
            lcb, ucb = ci.lcb, ci.ucb
            ok = sigma_sq_hat - self.margin * r.eps_plus > 0.0
        else:
            s = (
                s_factors_ssg(n, self.delta)
                if self.regime.regime == Regime.SSG
                else s_factors_gaussian(n, self.delta)
            )
            ok = self.margin * s.s_minus < 1.0 and sigma_sq_hat > 0.0
            if s.s_minus < 1.0:
                ci = ci_ssg(sigma_sq_hat, s)
                lcb, ucb = ci.lcb, ci.ucb
            else:  # upper bound undefined this early; lower bound still usable
                lcb, ucb = sigma_sq_hat / (1.0 + s.s_plus), math.inf
        if self.good is not None:
            v = self.truth[k]
            if not (lcb <= v <= ucb):
                self.good = False
        return lcb, ucb, ok


class _CanonicalRun:
    """Budget bookkeeping over a reward environment."""

    def __init__(self, env, num_arms: int, horizon: int):
        self.env = env
        self.horizon = horizon
        self.budget = horizon
        self.pulls = [0] * num_arms
        self.moments = [RunningMoments() for _ in range(num_arms)]
        self.order: list[list[int]] = []

    def draw(self, k: int, m: int) -> int:
        m = min(m, self.budget)
        if m <= 0:
            return 0
        self._consume(k, m)
        self.pulls[k] += m
        self.budget -= m
        if self.order and self.order[-1][0] == k:
            self.order[-1][1] += m
        else:
            self.order.append([k, m])
        return m

    def _consume(self, k: int, m: int):
        self.moments[k].update_many(self.env.pull(k, m))

    def sigma_hat(self, k: int) -> float:
        return self.moments[k].sample_variance()

    def means(self):
        return tuple(mom.mean for mom in self.moments)

    def encoded_order(self):
        return tuple((k, m) for k, m in self.order)


class _ContextualRun(_CanonicalRun):
    """Adds ridge states and residual-based variance estimates."""

    def __init__(self, env, num_arms: int, horizon: int, lambda_min: float):
        super().__init__(env, num_arms, horizon)
        self.lambda_min = lambda_min
        self.states = [RidgeState(env.dimension) for _ in range(num_arms)]
        self._cache: dict[int, tuple[int, float]] = {}
        self.gamma_floored = False

    def _consume(self, k: int, m: int):
        contexts, rewards = self.env.pull(k, m)
        self.states[k].update_many(contexts, rewards)

    def beta_hat(self, k: int) -> np.ndarray:
        state = self.states[k]
        gamma = gamma_schedule(self.lambda_min, max(state.n, 1))
        try:
            return state.estimate(gamma)
        except SingularSystemError:
            self.gamma_floored = True
            return state.estimate(max(gamma, 1e-8))

    def sigma_hat(self, k: int) -> float:
        state = self.states[k]
        cached = self._cache.get(k)
        if cached is not None and cached[0] == state.n:
            return cached[1]
        value = state.residual_variance(self.beta_hat(k))
        self._cache[k] = (state.n, value)
        return value

    def means(self):
        return tuple(tuple(float(b) for b in self.beta_hat(k)) for k in range(len(self.states)))


def _fill_by_priority(run, counts, priority) -> bool:
    """Pull each arm up to its target, highest priority first, within budget.

    Returns True when some target was already exceeded (the freed rounds stay
    with the greedy order).
    """
    clamped = any(run.pulls[k] > counts[k] for k in range(len(counts)))
    order = sorted(range(len(counts)), key=lambda k: (-priority[k], k))
    for k in order:
        extra = counts[k] - run.pulls[k]
        if extra > 0:
            run.draw(k, extra)
    i = 0
    while run.budget > 0:  # spent only if rounding freed more than targets used
        run.draw(order[i % len(order)], 1)
        i += 1
    return clamped


def _phase3_weights(cfg, run, ci_engine, q):
    sigma_hats = [run.sigma_hat(k) for k in range(cfg.num_arms)]
    if cfg.phase3_ucb_mode:
        ucbs = []
        for k in range(cfg.num_arms):
            _, ucb, _ = ci_engine.evaluate(k, run.pulls[k], sigma_hats[k])
            ucbs.append(ucb)
        # intervals can still be one-sided if the run starved in its first
        # phase; fall back to the plug-in shares then
        if all(math.isfinite(u) and u > 0 for u in ucbs):
            return phase3_ucb_weights(ucbs, q), sigma_hats
    try:
        weights = plugin_weights(sigma_hats, q)
    except DegenerateInputError:
        weights = np.full(cfg.num_arms, 1.0 / cfg.num_arms)
    return weights, sigma_hats


def run_nonadaptive(cfg: PolicyConfig, env=None) -> PolicyTrace:
    """Fixed-length initial phase, one plug-in reallocation."""
    if not cfg.knows_lower_bound:
        raise ConfigurationError("the non-adaptive policy requires a variance lower bound")
    if cfg.arms is None:
        raise ConfigurationError("the non-adaptive policy runs on canonical arms")
    proxy = cfg.regime.sigma_sq_proxy
    if proxy is None or proxy <= 0:
        raise ConfigurationError("the non-adaptive policy needs the variance proxy")
    k_arms, horizon = cfg.num_arms, cfg.horizon
    q = q_of_p(cfg.p)
    delta = delta_schedule("nonadaptive", cfg.p, horizon)
    if env is None:
        env = CanonicalEnv(list(cfg.arms), cfg.seed)
    run = _CanonicalRun(env, k_arms, horizon)
    truth = env.true_variances
    ci_engine = _CIEngine(cfg.regime, delta, cfg.lcb_margin, truth)

    tau = tau_nonadaptive(cfg.lower_bound, proxy, k_arms, horizon, q)
    for k in range(k_arms):
        run.draw(k, tau)
    sigma_hats = [run.sigma_hat(k) for k in range(k_arms)]
    for k in range(k_arms):
        ci_engine.evaluate(k, tau, sigma_hats[k])  # good-event bookkeeping only

    try:
        weights = plugin_weights(sigma_hats, q)
    except DegenerateInputError:
        weights = np.full(k_arms, 1.0 / k_arms)
    counts = round_allocation(weights, horizon, sigma_hats)
    clamped = _fill_by_priority(run, counts, sigma_hats)

    return _finish_trace(
        cfg,
        run,
        phase1_ends=(tau,) * k_arms,
        stopping_times=(tau,) * k_arms,
        variance_estimates=tuple(sigma_hats),
        good=ci_engine.good,
        truncated=False,
        clamped=clamped,
    )


def _phase1(cfg, run, ci_engine) -> tuple[list[int], bool]:
    """Initial pulls plus one-by-one top-ups until every LCB is positive."""
    k_arms, horizon = cfg.num_arms, cfg.horizon
    q = q_of_p(cfg.p)
    if cfg.knows_lower_bound:
        proxy = cfg.regime.sigma_sq_proxy
        if proxy is None or proxy <= 0:
            raise ConfigurationError("a known lower bound also needs the variance proxy")
        start = tau_nonadaptive(cfg.lower_bound, proxy, k_arms, horizon, q)
    else:
        start = phase1_length(cfg.regime, cfg.regime.sigma_sq_proxy, horizon, k_arms)
    start = max(2, min(start, horizon // k_arms))
    if isinstance(run, _ContextualRun):
        start = max(start, min(run.env.dimension, horizon // k_arms))
        for k in range(k_arms):
            run.draw(k, min(run.env.dimension, horizon // k_arms))
    for k in range(k_arms):
        run.draw(k, start - run.pulls[k])

    def ok(k: int) -> bool:
        _, _, passed = ci_engine.evaluate(k, run.pulls[k], run.sigma_hat(k))
        return passed

    failing = [k for k in range(k_arms) if not ok(k)]
    while failing and run.budget > 0:
        still = []
        for k in failing:
            if run.draw(k, 1) == 0:
                still.append(k)
                continue
            if not ok(k):
                still.append(k)
        failing = still
    return run.pulls.copy(), bool(failing)


def _phase2(cfg, run, ci_engine, q) -> tuple[list[int], bool]:
    """Elimination sweeps: pull active arms toward their shares, re-check."""
    k_arms, horizon = cfg.num_arms, cfg.horizon
    active = set(range(k_arms))
    shares = [run.pulls[k] / horizon for k in range(k_arms)]
    stopping = list(run.pulls)
    sweeps = 0
    while active and run.budget > 0 and sweeps < _SWEEP_CAP:
        sweeps += 1
        for k in sorted(active):
            target = shares[k] * horizon
            if run.pulls[k] < target - 1e-9:
                run.draw(k, phase2_schedule(run.pulls[k], target, cfg.batch_growth) - run.pulls[k])
        bounds = [
            ci_engine.evaluate(k, run.pulls[k], run.sigma_hat(k)) for k in range(k_arms)
        ]
        for k in range(k_arms):
            others = [bounds[j][1] for j in range(k_arms) if j != k]
            shares[k] = adaptive_weight(bounds[k][0], others, q)
            if run.pulls[k] >= shares[k] * horizon - 1e-9:
                stopping[k] = run.pulls[k]
                active.discard(k)
            else:
                active.add(k)
    truncated = bool(active)
    for k in active:
        stopping[k] = run.pulls[k]
    return stopping, truncated


def _finish_trace(
    cfg, run, phase1_ends, stopping_times, variance_estimates, good, truncated, clamped
) -> PolicyTrace:
    from .allocation import VarianceProfile, objective_rp, optimal_objective

    truth = run.env.true_variances
    realized = optimal = reg = None
    if truth is not None:
        scale = 1.0
        if isinstance(run, _ContextualRun):
            scale = 2.0 * run.env.dimension / run.lambda_min
        profile = VarianceProfile(tuple(truth))
        realized = scale * objective_rp(run.pulls, truth, cfg.p)
        optimal = scale * optimal_objective(profile, cfg.p, cfg.horizon)
        reg = realized - optimal
    return PolicyTrace(
        counts=tuple(run.pulls),
        phase1_ends=tuple(phase1_ends),
        stopping_times=tuple(stopping_times),
        estimates=run.means(),
        variance_estimates=variance_estimates,
        realized_objective=realized,
        optimal_objective=optimal,
        realized_regret=reg,
        good_event_held=good,
        truncated=truncated,
        budget_clamped=clamped,
        pull_order=run.encoded_order(),
    )


def _run_threephase(cfg: PolicyConfig, run, ci_override=None) -> PolicyTrace:
    q = q_of_p(cfg.p)
    delta = delta_schedule("adaptive", cfg.p, cfg.horizon)
    ci_engine = _CIEngine(
        cfg.regime, delta, cfg.lcb_margin, run.env.true_variances, ci_override
    )
    phase1_ends, starved = _phase1(cfg, run, ci_engine)
    if starved:
        stopping, truncated = list(run.pulls), True
    else:
        stopping, truncated = _phase2(cfg, run, ci_engine, q)
    weights, sigma_hats = _phase3_weights(cfg, run, ci_engine, q)
    counts = round_allocation(weights, cfg.horizon, sigma_hats)
    clamped = _fill_by_priority(run, counts, sigma_hats)
    return _finish_trace(
        cfg,
        run,
        phase1_ends=tuple(phase1_ends),
        stopping_times=tuple(stopping),
        variance_estimates=tuple(sigma_hats),
        good=ci_engine.good,
        truncated=truncated,
        clamped=clamped,
    )


def run_adaptive(cfg: PolicyConfig, env=None, ci_override=None) -> PolicyTrace:
    """Three-phase adaptive policy; needs no variance floor."""
    if cfg.arms is None:
        raise ConfigurationError("the adaptive policy runs on canonical arms")
    if env is None:
        env = CanonicalEnv(list(cfg.arms), cfg.seed)
    run = _CanonicalRun(env, cfg.num_arms, cfg.horizon)
    return _run_threephase(cfg, run, ci_override)


def run_contextual(cfg: PolicyConfig, env=None, ci_override=None) -> PolicyTrace:
    """Adaptive policy over linear rewards with residual variance estimates."""
    if cfg.noise_arms is None:
        raise ConfigurationError("the contextual policy needs a contextual config")
    if cfg.p != 1.0:
        raise ConfigurationError("the contextual policy is defined for p = 1")
    if env is None:
        env = ContextualEnv(
            np.asarray(cfg.betas, dtype=float),
            cfg.context_spec,
            list(cfg.noise_arms),
            cfg.seed,
        )
    k_arms = cfg.num_arms
    if cfg.horizon < k_arms * max(env.dimension, 2):
        raise ConfigurationError(
            "horizon too small to seed every arm's ridge state"
        )
    run = _ContextualRun(env, k_arms, cfg.horizon, cfg.context_spec.lambda_min)
    trace = _run_threephase(cfg, run, ci_override)
    trace.gamma_floored = run.gamma_floored
    return trace
