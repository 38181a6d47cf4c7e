"""Policy state machines: budget identity, determinism, phase logic, stubs."""

import math
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import varalloc
from varalloc import policies
from varalloc.arms import (
    CanonicalEnv, ContextSpec, ContextualEnv, NoiseRegime, Regime, gaussian_arm,
)
from varalloc.concentration import delta_schedule, interval
from varalloc.errors import ConfigurationError, ContractViolation
from varalloc.estimation import RunningMoments
from varalloc.policies import (
    PolicyConfig,
    _phase1_ok,
    _phase1_threshold,
    phase1_length,
    phase2_schedule,
    run_adaptive,
    run_contextual,
    run_nonadaptive,
)

INF = math.inf


class ScriptedEnv:
    """Replays fixed per-arm reward sequences in place of a sampling environment."""

    def __init__(self, sequences: list[list[float]], true_variances: list[float]):
        self._seqs = [list(map(float, s)) for s in sequences]
        self._pos = [0] * len(sequences)
        self.true_variances = true_variances

    def pull(self, k: int, m: int = 1) -> RunningMoments:
        i = self._pos[k]
        if i + m > len(self._seqs[k]):
            raise ContractViolation(f"scripted sequence for arm {k} exhausted")
        self._pos[k] = i + m
        return RunningMoments.of(self._seqs[k][i : i + m])


class PooledVarianceEnv:
    """Pulls whose pooled sample variance is exactly each arm's true variance:
    every mean is 0, an arm's first pull of m rounds has m2 = v * (m - 1) and
    each later one m2 = v * m."""

    def __init__(self, true_variances: list[float]):
        self.true_variances = true_variances
        self._pulled = [False] * len(true_variances)

    def pull(self, k: int, m: int = 1) -> RunningMoments:
        v = self.true_variances[k]
        m2 = v * m if self._pulled[k] else v * (m - 1)
        self._pulled[k] = True
        return RunningMoments(m, 0.0, m2)


def _gaussian_cfg(variances, horizon, p=INF, regime=Regime.SSG, proxy=None, seed=0, **kw):
    arms = tuple(gaussian_arm(0.1 * i, v) for i, v in enumerate(variances))
    return PolicyConfig(
        horizon=horizon,
        p=p,
        regime=NoiseRegime(regime, proxy),
        arms=arms,
        seed=seed,
        **kw,
    )


class TestNonAdaptive:
    def test_injected_estimates_recover_optimum(self):
        # scripted draws make the initial-phase sample variances exactly (1, 4)
        a, b = 1 / math.sqrt(2), math.sqrt(2)
        env = ScriptedEnv([[a, -a], [b, -b] + [0.0] * 6], true_variances=[1.0, 4.0])
        cfg = _gaussian_cfg(
            (1.0, 4.0), 10, regime=Regime.GSG, proxy=4.0,
            lower_bound=1.0,
        )
        trace = run_nonadaptive(cfg, env)
        assert trace.counts == (2, 8)
        assert trace.realized_regret == pytest.approx(0.0, abs=1e-12)

    def test_requires_lower_bound(self):
        with pytest.raises(ConfigurationError):
            run_nonadaptive(_gaussian_cfg((1.0, 2.0), 50, proxy=2.0))

    def test_truth_outside_the_intervals_clears_the_good_event(self):
        # test_injected_estimates_recover_optimum's draws, whose GSG intervals
        # are [0, 69.5] and [0, 72.5]
        a, b = 1 / math.sqrt(2), math.sqrt(2)
        cfg = _gaussian_cfg((1.0, 4.0), 10, regime=Regime.GSG, proxy=4.0, lower_bound=1.0)
        for truth, held in (([1.0, 4.0], True), ([1e6, 1e6], False)):
            env = ScriptedEnv([[a, -a], [b, -b] + [0.0] * 6], true_variances=truth)
            assert run_nonadaptive(cfg, env).good_event_held is held

    def test_all_zero_estimates_split_uniformly(self):
        # constant draws give no plug-in shares; the final counts split evenly
        env = ScriptedEnv([[5.0] * 5, [3.0] * 5], true_variances=[1.0, 1.0])
        cfg = _gaussian_cfg((1.0, 1.0), 10, regime=Regime.GSG, proxy=49.0, lower_bound=1.0)
        trace = run_nonadaptive(cfg, env)
        assert trace.variance_estimates == (0.0, 0.0)
        assert trace.counts == (5, 5)

    def test_budget_identity_and_min_pulls(self):
        for seed in range(5):
            cfg = _gaussian_cfg(
                (1.0, 1.5, 2.5), 200, regime=Regime.GSG, proxy=2.5,
                lower_bound=1.0, seed=seed,
            )
            trace = run_nonadaptive(cfg)
            assert sum(trace.counts) == 200
            assert min(trace.counts) >= 2

    def test_collapsed_estimate_clamps_and_reassigns(self):
        # lb=1, proxy=49 gives tau=2; arm 0's draws are constant so its
        # estimate collapses to 0, its target falls below the initial pulls,
        # and the freed rounds all go to arm 1
        env = ScriptedEnv(
            [[5.0, 5.0], [1.0, -1.0] + [0.3] * 12], true_variances=[1.0, 1.0]
        )
        cfg = _gaussian_cfg(
            (1.0, 1.0), 16, regime=Regime.GSG, proxy=49.0,
            lower_bound=1.0,
        )
        trace = run_nonadaptive(cfg, env)
        assert trace.counts == (2, 14)
        assert trace.budget_clamped

    def test_deterministic(self):
        cfg = _gaussian_cfg(
            (1.0, 2.0), 300, regime=Regime.GAUSSIAN, proxy=2.0,
            lower_bound=1.0, seed=3,
        )
        assert run_nonadaptive(cfg) == run_nonadaptive(cfg)


class TestAdaptive:
    def test_pinned_intervals_recover_optimum(self, monkeypatch):
        # exact variance estimates under intervals pinned to them: every
        # interval is the true variance, so the shares are the optimal ones
        truth = (1.0, 4.0)
        cfg = _gaussian_cfg(
            truth, 200, proxy=4.0, lower_bound=1.0, seed=5
        )
        # the threshold memo would keep what the pinned interval gives
        policies._phase1_threshold.cache_clear()
        monkeypatch.setattr(policies, "interval", lambda regime, n, delta, s2: (s2, s2))
        try:
            trace = run_adaptive(cfg, PooledVarianceEnv(list(truth)))
        finally:
            policies._phase1_threshold.cache_clear()
        assert trace.counts == (40, 160)
        assert (trace.phase1_ends, trace.stopping_times) == ((40, 40), (40, 160))
        assert trace.good_event_held

    def test_budget_identity_random_configs(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            k = int(rng.integers(2, 5))
            variances = tuple(float(v) for v in rng.uniform(0.5, 4.0, k))
            cfg = _gaussian_cfg(
                variances,
                int(rng.integers(10 * k, 600)),
                p=float(rng.choice([1.0, INF])),
                seed=int(rng.integers(10**6)),
            )
            trace = run_adaptive(cfg)
            assert sum(trace.counts) == cfg.horizon
            assert min(trace.counts) >= 2
            assert all(
                p1 <= stop for p1, stop in zip(trace.phase1_ends, trace.stopping_times)
            )

    def test_deterministic(self):
        cfg = _gaussian_cfg((2.0, 0.5, 1.0), 500, seed=7)
        assert run_adaptive(cfg) == run_adaptive(cfg)

    def test_gsg_small_horizon_saturates_uniform(self):
        cfg = _gaussian_cfg(
            (1.0, 1.5, 2.0, 2.5), 2000, regime=Regime.GSG, proxy=2.5, seed=1
        )
        trace = run_adaptive(cfg)
        assert trace.truncated
        assert trace.counts == (500, 500, 500, 500)

    def test_linear_share_convergence(self):
        # counts/T approach the optimal shares as the horizon grows
        variances = (1.0, 1.5, 2.0, 2.5)
        shares = np.array(variances) / sum(variances)
        ratios = []
        for seed in range(11):
            cfg = _gaussian_cfg(variances, 100_000, seed=seed)
            trace = run_adaptive(cfg)
            ratios.append(np.asarray(trace.counts) / cfg.horizon)
        median = np.median(np.asarray(ratios), axis=0)
        assert np.max(np.abs(median - shares)) < 0.05


def _contextual_cfg(horizon, k=3, d=2, seed=0, noise_vars=(1.0, 2.0, 4.0)):
    rng = np.random.default_rng(seed)
    betas = tuple(tuple(float(b) for b in rng.uniform(-2, 2, d)) for _ in range(k))
    return PolicyConfig(
        horizon=horizon,
        p=1.0,
        regime=NoiseRegime(Regime.SSG, max(noise_vars)),
        betas=betas,
        context_spec=ContextSpec(dimension=d),
        arms=tuple(gaussian_arm(0.0, v) for v in noise_vars[:k]),
        lower_bound=min(noise_vars),
        seed=seed,
    )


def test_horizon_past_2_53_rejected():
    # the objective casts counts to float, which holds every integer up to 2**53
    cfg = _gaussian_cfg((1.0, 2.0), 2**53)
    for horizon in (2**53 + 1, 10**30):
        with pytest.raises(ConfigurationError, match="2\\*\\*53"):
            replace(cfg, horizon=horizon)


@pytest.mark.parametrize(
    "make_seed", [None, lambda: 7, lambda: np.random.SeedSequence([7, 400, 1])],
    ids=["default", "int", "SeedSequence"],
)
def test_environment_draws_what_a_direct_env_draws(make_seed):
    # a SeedSequence is spent by spawning, so each side gets a fresh one
    seed = make_seed or (lambda: 3)
    canonical = _gaussian_cfg((1.0, 2.0), 400, seed=3)
    contextual = _contextual_cfg(400, seed=3)
    envs = [
        (canonical, CanonicalEnv(canonical.arms, seed())),
        (contextual, ContextualEnv(contextual.betas, contextual.context_spec, contextual.arms, seed())),
    ]
    for cfg, direct in envs:
        env = cfg.environment() if make_seed is None else cfg.environment(seed())
        assert type(env) is type(direct) and env.true_variances == direct.true_variances
        for k, m in [(0, 5), (1, 3), (0, 1), (1, 2)]:
            got, want = env.pull(k, m), direct.pull(k, m)
            if isinstance(got, RunningMoments):
                assert got == want
            else:
                assert np.array_equal(got.gram, want.gram) and np.array_equal(got.xty, want.xty)


class TestContextual:

    def test_requires_p_one(self):
        cfg = _contextual_cfg(400)
        with pytest.raises(ConfigurationError):
            run_contextual(PolicyConfig(**{**cfg.__dict__, "p": 2.0}))

    def test_run_preconditions_checked_at_construction(self):
        cfg = _contextual_cfg(400)  # K = 3 arms, d = 2
        with pytest.raises(ConfigurationError, match="p = 1"):
            replace(cfg, p=2.0)
        with pytest.raises(ConfigurationError, match="too small"):
            replace(cfg, horizon=5)
        with pytest.raises(ConfigurationError, match="proxy"):
            replace(cfg, regime=NoiseRegime(Regime.SSG))

    def test_noise_free_recovers_coefficients(self, monkeypatch):
        cfg = _contextual_cfg(600, seed=4)
        monkeypatch.setattr(varalloc.arms, "sample_reward", lambda arm, rng, size: np.zeros(size))
        env = ContextualEnv(
            np.asarray(cfg.betas), cfg.context_spec, cfg.arms, seed=9
        )
        trace = run_contextual(cfg, env)
        for est, true in zip(trace.estimates, cfg.betas):
            assert np.linalg.norm(np.asarray(est) - np.asarray(true)) < 1e-2

    def test_budget_identity_and_determinism(self):
        cfg = _contextual_cfg(500, seed=6)
        trace = run_contextual(cfg)
        assert sum(trace.counts) == 500
        assert trace == run_contextual(cfg)

    def test_hypercube_second_moment_consistency(self):
        spec = ContextSpec(dimension=4)
        env = ContextualEnv(np.zeros((1, 4)), spec, [gaussian_arm(0.0, 1.0)], 3)
        state = env.pull(0, 50_000)
        second = state.gram / state.n
        assert np.allclose(second, np.eye(4), atol=0.03)
        assert np.linalg.eigvalsh(second).min() > 0.9

    def test_commitment_ignores_future_contexts(self):
        cfg = _contextual_cfg(400, seed=8)
        rng = np.random.default_rng(0)
        contexts = rng.uniform(-math.sqrt(3), math.sqrt(3), (400, 2))
        cut = 200

        def env_for(ctx):
            return ContextualEnv(cfg.betas, cfg.context_spec, cfg.arms, cfg.seed, contexts=ctx)

        other = contexts.copy()
        other[cut:] = -other[cut:][::-1]
        trace_a = run_contextual(cfg, env_for(contexts))
        trace_b = run_contextual(cfg, env_for(other))

        def expand(order):
            seq = []
            for arm, m in order:
                seq.extend([arm] * m)
            return seq

        assert expand(trace_a.pull_order)[:cut] == expand(trace_b.pull_order)[:cut]

    def test_floored_ridge_penalty_reaches_trace(self):
        # the second context coordinate is always 0, so every Gram matrix is
        # singular and the penalty 1e-12 / n cannot be solved at; the run
        # falls back to the penalty floor and the trace says so.  At T = 30000
        # the Gram matrices pass 1e4, where an absolute 1e-8 floor would itself
        # fall below the solver's relative singularity threshold
        for horizon in (300, 30000):
            cfg = replace(_contextual_cfg(horizon, seed=2), context_spec=ContextSpec(2, 1e-12))
            contexts = np.random.default_rng(5).uniform(-math.sqrt(3), math.sqrt(3), (horizon, 2))
            contexts[:, 1] = 0.0
            env = ContextualEnv(cfg.betas, cfg.context_spec, cfg.arms, cfg.seed, contexts=contexts)
            trace = run_contextual(cfg, env)
            assert trace.gamma_floored
            assert sum(trace.counts) == horizon
            assert all(est[1] == 0.0 for est in trace.estimates)


# Fixed-seed traces pinned so that a refactor of the policy skeleton shows any
# change in what a run pulls, in which order, and what it flags.  The canonical
# ones follow the summary stream of CanonicalEnv.pull.
PINNED = {
    "nonadaptive-gsg": (
        lambda: run_nonadaptive(
            _gaussian_cfg(
                (1.0, 1.5, 2.5), 300, regime=Regime.GSG, proxy=2.5,
                lower_bound=1.0, seed=4,
            )
        ),
        dict(
            counts=(54, 85, 161),
            phase1_ends=(50, 50, 50),
            stopping_times=(50, 50, 50),
            pull_order=((0, 50), (1, 50), (2, 161), (1, 35), (0, 4)),
            truncated=False,
            budget_clamped=False,
            good_event_held=True,
        ),
    ),
    "adaptive-ssg": (
        lambda: run_adaptive(_gaussian_cfg((1.0, 3.0), 1500, p=1.0, seed=21)),
        dict(
            counts=(523, 977),
            phase1_ends=(235, 235),
            stopping_times=(235, 235),
            pull_order=((0, 132), (1, 132), (0, 103), (1, 845), (0, 288)),
            truncated=False,
            budget_clamped=False,
            good_event_held=True,
        ),
    ),
    "adaptive-gaussian": (
        lambda: run_adaptive(_gaussian_cfg((1.0, 3.0), 1500, regime=Regime.GAUSSIAN, seed=22)),
        dict(
            counts=(372, 1128),
            phase1_ends=(132, 132),
            stopping_times=(182, 747),
            pull_order=(
                (0, 132), (1, 528), (0, 20), (1, 116), (0, 18), (1, 43), (0, 5),
                (1, 41), (0, 6), (1, 17), (0, 1), (1, 383), (0, 190),
            ),
            truncated=False,
            budget_clamped=False,
            good_event_held=True,
        ),
    ),
    "adaptive-known-lower-bound": (
        lambda: run_adaptive(
            _gaussian_cfg(
                (1.0, 2.0, 3.0), 1200, proxy=3.0,
                lower_bound=1.0, seed=23,
            )
        ),
        dict(
            counts=(222, 350, 628),
            phase1_ends=(186, 186, 186),
            stopping_times=(186, 186, 186),
            pull_order=(
                (0, 171), (1, 171), (2, 171), (0, 15), (1, 15), (2, 457), (1, 164), (0, 36),
            ),
            truncated=False,
            budget_clamped=False,
            good_event_held=True,
        ),
    ),
    "contextual": (
        lambda: run_contextual(_contextual_cfg(500, seed=6)),
        dict(
            counts=(167, 167, 166),
            phase1_ends=(167, 167, 166),
            stopping_times=(167, 167, 166),
            pull_order=((0, 2), (1, 2), (2, 2), (0, 98), (1, 98), (2, 98))
            + ((0, 1), (1, 1), (2, 1)) * 66 + ((0, 1), (1, 1)),
            truncated=True,
            budget_clamped=True,
            good_event_held=True,
            gamma_floored=False,
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_trace(name):
    run, want = PINNED[name]
    trace = run()
    assert {field: getattr(trace, field) for field in want} == want


class TestPhaseHelpers:
    def test_phase1_length_gsg(self):
        assert phase1_length(NoiseRegime(Regime.GSG, 1.0), 1000, 4) == 250

    def test_phase1_length_ssg(self):
        assert phase1_length(NoiseRegime(Regime.SSG), 1000, 4) == 125

    def test_phase1_length_ssg_growth(self):
        small = phase1_length(NoiseRegime(Regime.SSG), 10**4, 2)
        large = phase1_length(NoiseRegime(Regime.SSG), 10**8, 2)
        assert small == math.ceil(18 * math.log(10**4))
        assert large == math.ceil(18 * math.log(10**8))

    def test_phase1_length_gsg_proxy_past_the_square_range(self):
        # proxy**2 overflows; the formula is then infinite and the cap T // K holds
        assert phase1_length(NoiseRegime(Regime.GSG, 1e200), 1000, 4) == 250

    @pytest.mark.parametrize("proxy", [1e-3, 0.5, 2.5, 1e3, 1e150])
    def test_phase1_length_gsg_is_ceil_then_cap(self, proxy):
        for horizon in (10, 1000, 10**6, 2**53):
            for k in (1, 3, 7):
                formula = math.ceil(64.0 * proxy**2 * math.log(horizon))
                want = max(2, min(formula, horizon // k))
                assert phase1_length(NoiseRegime(Regime.GSG, proxy), horizon, k) == want

    def test_phase2_schedule_doubling(self):
        assert phase2_schedule(10, 100.0) == 20

    def test_phase2_schedule_capped(self):
        assert phase2_schedule(10, 12.0) == 12


class TestConfigValidation:
    def test_horizon_too_small(self):
        with pytest.raises(ConfigurationError):
            _gaussian_cfg((1.0, 2.0), 3)

    def test_contextual_needs_betas(self):
        with pytest.raises(ConfigurationError):
            PolicyConfig(
                horizon=100, p=1.0, regime=NoiseRegime(Regime.SSG, None),
                arms=(gaussian_arm(0.0, 1.0),), context_spec=ContextSpec(dimension=1),
            )

    def test_exactly_one_mode(self):
        # betas and a context spec make a run contextual together or not at all
        with pytest.raises(ConfigurationError):
            PolicyConfig(
                horizon=100, p=1.0, regime=NoiseRegime(Regime.SSG, None),
                arms=(gaussian_arm(0.0, 1.0),), betas=((1.0,),),
            )
        with pytest.raises(ConfigurationError, match="canonical arms"):
            run_adaptive(_contextual_cfg(400))

    def test_nonpositive_lower_bound_rejected(self):
        for lower_bound in (0.0, -1.0):
            with pytest.raises(ConfigurationError):
                _gaussian_cfg((1.0, 2.0), 100, lower_bound=lower_bound)


def test_adaptive_gaussian_regime_path():
    cfg = _gaussian_cfg((1.0, 3.0), 600, regime=Regime.GAUSSIAN, seed=13)
    trace = run_adaptive(cfg)
    assert sum(trace.counts) == 600
    assert trace.good_event_held
    # larger-variance arm ends with the larger share
    assert trace.counts[1] > trace.counts[0]


class TestPhase1Threshold:
    @pytest.mark.parametrize("regime", [Regime.SSG, Regime.GAUSSIAN])
    @pytest.mark.parametrize("p", [1.0, 2.0, INF])
    @pytest.mark.parametrize("horizon", [10**3, 10**4, 10**6, 10**9])
    def test_matches_linear_scan_of_evaluate(self, regime, p, horizon):
        delta = delta_schedule(True, p, horizon)
        n = 2
        while not _phase1_ok(*interval(NoiseRegime(regime), n, delta, 1.0)):
            n += 1
        assert _phase1_threshold(regime, delta) == n

    def test_unknown_under_gsg(self):
        assert _phase1_threshold(Regime.GSG, delta_schedule(True, INF, 10**4)) is None

    @pytest.mark.parametrize("regime", [Regime.SSG, Regime.GAUSSIAN])
    @pytest.mark.parametrize("p, horizon", [(INF, 10**4), (1.0, 10**4), (INF, 10**6)])
    def test_phase1_ends_at_threshold(self, regime, p, horizon):
        variances = (1.0, 1.5, 2.0, 2.5)
        cfg = _gaussian_cfg(variances, horizon, p=p, regime=regime, seed=3)
        trace = run_adaptive(cfg)
        assert not trace.truncated
        n_star = _phase1_threshold(regime, delta_schedule(True, p, horizon))
        start = phase1_length(NoiseRegime(regime), horizon, len(variances))
        assert trace.phase1_ends == (max(start, n_star),) * len(variances)

    def test_starved_run_keeps_round_robin(self):
        # the budget cannot carry every arm to the threshold, so phase 1 tops
        # up one pull per arm per round until it runs out
        cfg = _gaussian_cfg((1.0, 2.0, 4.0), 300, p=1.0, proxy=4.0, lower_bound=1.0, seed=5)
        trace = run_adaptive(cfg)
        assert trace.truncated and trace.counts == (100, 100, 100)
        start = trace.pull_order[0][1]
        assert trace.pull_order[3:] == ((0, 1), (1, 1), (2, 1)) * (100 - start)


def test_horizon_is_a_parameter_not_a_loop_count():
    cfg = _gaussian_cfg((1.0, 1.5, 2.0, 2.5), 10**9, seed=11)
    tracemalloc.start()
    try:
        trace = run_adaptive(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(trace.counts) == 10**9
    assert peak < 2**20


def _pull_count_cases():
    item_2 = pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
    for policy in (run_nonadaptive, run_adaptive):
        for regime in (Regime.SSG, Regime.GAUSSIAN, Regime.GSG):
            for horizon in (10**4, 10**6, 10**9):
                for p in (INF, 2.0):
                    # a failing GSG arm tops up one pull at a time
                    starved = policy is run_adaptive and regime == Regime.GSG and horizon > 10**4
                    yield pytest.param(
                        policy, regime, horizon, p, 1.0 if policy is run_nonadaptive else None,
                        marks=[item_2] if starved else [],
                        id=f"{policy.__name__}-{regime.value}-{horizon:.0e}-p{p:g}",
                    )
    # a known floor starts phase 1 at tau_nonadaptive, and failing arms still
    # top up one pull at a time
    for p in (INF, 2.0):
        yield pytest.param(
            run_adaptive, Regime.GSG, 10**4, p, 1.0, marks=[item_2],
            id=f"run_adaptive-gsg-1e+04-p{p:g}-known-floor",
        )


@pytest.mark.parametrize("policy, regime, horizon, p, lower_bound", _pull_count_cases())
def test_pull_segments_grow_like_log_horizon(policy, regime, horizon, p, lower_bound, monkeypatch):
    # the cost model: a run makes O(K log T) environment pulls, whatever T
    pulls = []
    pull = CanonicalEnv.pull
    monkeypatch.setattr(CanonicalEnv, "pull", lambda env, k, m=1: pulls.append(m) or pull(env, k, m))
    variances = (1.0, 1.5, 2.0, 2.5)
    cfg = _gaussian_cfg(variances, horizon, p, regime, proxy=2.5, seed=1, lower_bound=lower_bound)
    assert sum(policy(cfg).counts) == sum(pulls) == horizon
    assert len(pulls) <= 2 * len(variances) * math.log2(horizon) + 16

# Traces of a fixed set of selftest-drawn runs, each canonical one also under
# GSG at its proxy; run in this process and in a fresh interpreter.
_CACHE_PROBE = """
import dataclasses
import numpy as np
from varalloc import selftest
from varalloc.arms import NoiseRegime, Regime

def probe(seed):
    rng = np.random.default_rng(seed)
    runs = [selftest._random_contextual_cfg(rng)]
    for _ in range(12):
        cfg, policy = selftest._random_canonical_cfg(rng)
        gsg = NoiseRegime(Regime.GSG, cfg.regime.sigma_sq_proxy)
        runs += [(cfg, policy), (dataclasses.replace(cfg, regime=gsg), policy)]
    return [repr(dataclasses.astuple(policy(cfg))) for cfg, policy in runs]
"""


def test_cold_and_warm_caches_give_the_same_traces():
    # the radii and phase-1 threshold memos change no answer: a run in a fresh
    # interpreter equals the same run here after 300 others filled and cycled them
    src = Path(varalloc.__file__).resolve().parents[1]
    code = _CACHE_PROBE + "\nprint('\\n'.join(probe(41)))"
    cold = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True,
        timeout=120,
    ).stdout.splitlines()
    probe = {}
    exec(_CACHE_PROBE, probe)
    for seed in range(12):  # 25 runs a seed, 300 in all
        probe["probe"](1000 + seed)
    assert probe["probe"](41) == cold
