"""Policy state machines: budget identity, determinism, phase logic, stubs."""

import math

import numpy as np
import pytest

from varalloc.arms import ContextSpec, ContextualEnv, NoiseRegime, Regime, gaussian_arm
from varalloc.concentration import ConfidenceInterval
from varalloc.errors import ConfigurationError, ContractViolation
from varalloc.policies import (
    PolicyConfig,
    phase1_length,
    phase2_schedule,
    run_adaptive,
    run_contextual,
    run_nonadaptive,
)

INF = math.inf


class ScriptedEnv:
    """Replays fixed per-arm reward sequences in place of a sampling environment."""

    def __init__(self, sequences: list[list[float]], true_variances: list[float] | None = None):
        self._seqs = [list(map(float, s)) for s in sequences]
        self._pos = [0] * len(sequences)
        self._vars = true_variances

    @property
    def num_arms(self) -> int:
        return len(self._seqs)

    @property
    def true_variances(self):
        return self._vars

    def pull(self, k: int, m: int = 1) -> np.ndarray:
        i = self._pos[k]
        if i + m > len(self._seqs[k]):
            raise ContractViolation(f"scripted sequence for arm {k} exhausted")
        self._pos[k] = i + m
        return np.asarray(self._seqs[k][i : i + m])


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
            knows_lower_bound=True, lower_bound=1.0,
        )
        trace = run_nonadaptive(cfg, env)
        assert trace.counts == (2, 8)
        assert trace.realized_regret == pytest.approx(0.0, abs=1e-12)

    def test_requires_lower_bound(self):
        with pytest.raises(ConfigurationError):
            run_nonadaptive(_gaussian_cfg((1.0, 2.0), 50, proxy=2.0))

    def test_budget_identity_and_min_pulls(self):
        for seed in range(5):
            cfg = _gaussian_cfg(
                (1.0, 1.5, 2.5), 200, regime=Regime.GSG, proxy=2.5,
                knows_lower_bound=True, lower_bound=1.0, seed=seed,
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
            knows_lower_bound=True, lower_bound=1.0,
        )
        trace = run_nonadaptive(cfg, env)
        assert trace.counts == (2, 14)
        assert trace.budget_clamped

    def test_deterministic(self):
        cfg = _gaussian_cfg(
            (1.0, 2.0), 300, regime=Regime.GAUSSIAN, proxy=2.0,
            knows_lower_bound=True, lower_bound=1.0, seed=3,
        )
        assert run_nonadaptive(cfg) == run_nonadaptive(cfg)


class TestAdaptive:
    def test_pinned_intervals_recover_optimum(self):
        truth = (1.0, 4.0)
        cfg = _gaussian_cfg(
            truth, 200, proxy=4.0, knows_lower_bound=True, lower_bound=1.0, seed=5
        )
        pin = lambda k, n, s2: ConfidenceInterval(truth[k], truth[k])
        trace = run_adaptive(cfg, ci_override=pin)
        assert trace.counts == (40, 160)

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

    def test_phase3_ucb_mode_runs(self):
        cfg = _gaussian_cfg((1.0, 3.0), 400, phase3_ucb_mode=True, seed=2)
        trace = run_adaptive(cfg)
        assert sum(trace.counts) == 400

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


class TestContextual:
    def _cfg(self, horizon, k=3, d=2, seed=0, noise_vars=(1.0, 2.0, 4.0)):
        rng = np.random.default_rng(seed)
        betas = tuple(tuple(float(b) for b in rng.uniform(-2, 2, d)) for _ in range(k))
        return PolicyConfig(
            horizon=horizon,
            p=1.0,
            regime=NoiseRegime(Regime.SSG, max(noise_vars)),
            betas=betas,
            context_spec=ContextSpec(dimension=d),
            noise_arms=tuple(gaussian_arm(0.0, v) for v in noise_vars[:k]),
            knows_lower_bound=True,
            lower_bound=min(noise_vars),
            seed=seed,
        )

    def test_requires_p_one(self):
        cfg = self._cfg(400)
        with pytest.raises(ConfigurationError):
            run_contextual(PolicyConfig(**{**cfg.__dict__, "p": 2.0}))

    def test_noise_free_recovers_coefficients(self):
        cfg = self._cfg(600, seed=4)
        env = ContextualEnv(
            np.asarray(cfg.betas), cfg.context_spec, [None] * 3, seed=9
        )
        trace = run_contextual(cfg, env)
        for est, true in zip(trace.estimates, cfg.betas):
            assert np.linalg.norm(np.asarray(est) - np.asarray(true)) < 1e-2

    def test_budget_identity_and_determinism(self):
        cfg = self._cfg(500, seed=6)
        trace = run_contextual(cfg)
        assert sum(trace.counts) == 500
        assert trace == run_contextual(cfg)

    def test_hypercube_second_moment_consistency(self):
        spec = ContextSpec(dimension=4)
        env = ContextualEnv(np.zeros((1, 4)), spec, [gaussian_arm(0.0, 1.0)], 3)
        ctx, _ = env.pull(0, 50_000)
        second = ctx.T @ ctx / len(ctx)
        assert np.allclose(second, np.eye(4), atol=0.03)
        assert np.linalg.eigvalsh(second).min() > 0.9

    def test_commitment_ignores_future_contexts(self):
        cfg = self._cfg(400, seed=8)
        rng = np.random.default_rng(0)
        contexts = rng.uniform(-math.sqrt(3), math.sqrt(3), (400, 2))
        cut = 200

        def env_for(ctx):
            return ContextualEnv(
                np.asarray(cfg.betas), cfg.context_spec,
                list(cfg.noise_arms), cfg.seed, contexts=ctx,
            )

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


class TestPhaseHelpers:
    def test_phase1_length_gsg(self):
        assert phase1_length(Regime.GSG, 1.0, 1000, 4) == 250

    def test_phase1_length_ssg(self):
        assert phase1_length(Regime.SSG, None, 1000, 4) == 125

    def test_phase1_length_ssg_growth(self):
        small = phase1_length(Regime.SSG, None, 10**4, 2)
        large = phase1_length(Regime.SSG, None, 10**8, 2)
        assert small == math.ceil(18 * math.log(10**4))
        assert large == math.ceil(18 * math.log(10**8))

    def test_phase2_schedule_doubling(self):
        assert phase2_schedule(10, 100.0, 2.0) == 20

    def test_phase2_schedule_capped(self):
        assert phase2_schedule(10, 12.0, 2.0) == 12

    def test_phase2_schedule_unit_growth_limit(self):
        assert phase2_schedule(10, 100.0, 1.000001) == 11


class TestConfigValidation:
    def test_horizon_too_small(self):
        with pytest.raises(ConfigurationError):
            _gaussian_cfg((1.0, 2.0), 3)

    def test_contextual_needs_betas(self):
        with pytest.raises(ConfigurationError):
            PolicyConfig(
                horizon=100, p=1.0, regime=NoiseRegime(Regime.SSG, None),
                noise_arms=(gaussian_arm(0.0, 1.0),),
            )

    def test_exactly_one_mode(self):
        with pytest.raises(ConfigurationError):
            PolicyConfig(horizon=100, p=1.0, regime=NoiseRegime(Regime.SSG, None))

    def test_lower_bound_flag_needs_value(self):
        with pytest.raises(ConfigurationError):
            _gaussian_cfg((1.0, 2.0), 100, knows_lower_bound=True)


def test_adaptive_gaussian_regime_path():
    cfg = _gaussian_cfg((1.0, 3.0), 600, regime=Regime.GAUSSIAN, seed=13)
    trace = run_adaptive(cfg)
    assert sum(trace.counts) == 600
    assert trace.good_event_held
    # larger-variance arm ends with the larger share
    assert trace.counts[1] > trace.counts[0]
