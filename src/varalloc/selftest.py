"""Randomized structural-invariant battery behind the `selftest` subcommand.

Each randomized configuration is run once and checked against the structural
invariants that hold for every policy, config, and seed:

* budget identity: total pulls equal the horizon exactly,
* pull order: each arm's segments sum to its count, and adjacent segments
  name different arms,
* minimum coverage: every arm is pulled at least twice,
* no-overshoot: under the good event (and absent budget truncation), an
  arm's stopping time never exceeds its optimal count beyond the initial
  phase and integer slack,
* determinism: identical (config, seed) gives an identical trace,
* context commitment: the committed arm at a round never depends on that
  round's (or any later) context,
* pessimism/monotonicity of the adaptive share as a pure function.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .allocation import (
    VarianceProfile,
    adaptive_weight,
    optimal_allocation,
    plugin_weights,
    q_of_p,
)
from .arms import (
    ContextSpec,
    ContextualEnv,
    NoiseRegime,
    Regime,
    gaussian_arm,
    rademacher_arm,
    sample_context,
    symmetric_beta_arm,
)
from .policies import PolicyConfig, run_adaptive, run_contextual, run_nonadaptive


def _random_canonical_cfg(rng):
    """A random canonical config and the policy entry that runs it."""
    k = int(rng.integers(2, 5))
    variances = np.round(rng.uniform(0.5, 4.0, k), 3)
    kind = rng.choice(["gaussian", "rademacher_mix", "beta"])
    arms = []
    for i in range(k):
        if kind == "beta":
            shape = float(np.round(rng.uniform(0.2, 4.0), 3))
            arms.append(symmetric_beta_arm(float(rng.uniform(-1, 1)), shape))
        elif kind == "rademacher_mix" and i == k - 1:
            arms.append(rademacher_arm(float(rng.uniform(-1, 1))))
        else:
            arms.append(gaussian_arm(float(rng.uniform(-1, 1)), float(variances[i])))
    true_vars = [a.variance for a in arms]
    lower = min(true_vars)
    proxy = max(true_vars) * float(rng.uniform(1.0, 1.5))
    regime_kind = "ssg" if kind != "gaussian" else str(rng.choice(["ssg", "gaussian"]))
    policy = rng.choice([run_nonadaptive, run_adaptive])
    horizon = int(rng.integers(40 * k, 1500))
    p = float(rng.choice([1.0, 2.0, math.inf]))
    knows = policy is run_nonadaptive or horizon < 800 or bool(rng.integers(0, 2))
    return (
        PolicyConfig(
            horizon=horizon,
            p=p,
            regime=NoiseRegime(Regime(regime_kind), proxy),
            arms=tuple(arms),
            lower_bound=lower if knows else None,
            seed=int(rng.integers(0, 2**31)),
        ),
        policy,
    )


def _random_contextual_cfg(rng):
    """A random contextual config and `run_contextual`."""
    k = int(rng.integers(2, 4))
    dim = int(rng.integers(2, 4))
    betas = tuple(tuple(float(b) for b in rng.uniform(-2, 2, dim)) for _ in range(k))
    noise_vars = rng.uniform(1.0, 3.0, k)
    return PolicyConfig(
        horizon=int(rng.integers(60 * k, 800)),
        p=1.0,
        regime=NoiseRegime(Regime.SSG, float(noise_vars.max())),
        betas=betas,
        context_spec=ContextSpec(dimension=dim),
        arms=tuple(gaussian_arm(0.0, float(v)) for v in noise_vars),
        lower_bound=float(noise_vars.min()),
        seed=int(rng.integers(0, 2**31)),
    ), run_contextual


def _check_trace(cfg: PolicyConfig, policy, trace, failures: list[str], tag: str):
    if sum(trace.counts) != cfg.horizon:
        failures.append(f"{tag}: budget identity broken ({sum(trace.counts)} != {cfg.horizon})")
    per_arm = [0] * len(trace.counts)
    for arm, m in trace.pull_order:
        per_arm[arm] += m
    if tuple(per_arm) != trace.counts:
        failures.append(f"{tag}: pull order sums to {per_arm}, not the counts {trace.counts}")
    if any(a == b for (a, _), (b, _) in zip(trace.pull_order, trace.pull_order[1:])):
        failures.append(f"{tag}: adjacent pull segments name the same arm")
    if min(trace.counts) < 2:
        failures.append(f"{tag}: an arm was pulled fewer than 2 times")
    if any(
        e > s for e, s in zip(trace.phase1_ends, trace.stopping_times)
    ):
        failures.append(f"{tag}: phase boundaries decreased")
    if policy is not run_nonadaptive and trace.good_event_held and not trace.truncated:
        variances = [a.variance for a in cfg.arms]
        plan = optimal_allocation(VarianceProfile(tuple(variances)), cfg.p, cfg.horizon)
        k_arms = len(variances)
        for k in range(k_arms):
            optimal_k = plan.fractions[k] * cfg.horizon
            ceiling = max(trace.phase1_ends[k], optimal_k + k_arms)
            if trace.stopping_times[k] > ceiling:
                failures.append(
                    f"{tag}: arm {k} stopped at {trace.stopping_times[k]} past "
                    f"max(phase1={trace.phase1_ends[k]}, optimal+K={optimal_k + k_arms:.1f})"
                )


def _check_share_function(rng, failures: list[str], tag: str):
    k = int(rng.integers(2, 5))
    variances = rng.uniform(0.5, 4.0, k)
    q = q_of_p(float(rng.choice([1.0, 2.0, math.inf])))
    lcbs = variances * rng.uniform(0.3, 1.0, k)
    ucbs = variances * rng.uniform(1.0, 3.0, k)
    truth = plugin_weights(variances, q)
    for arm in range(k):
        others = np.delete(ucbs, arm)
        share = adaptive_weight(float(lcbs[arm]), others, q)
        if share > truth[arm] + 1e-12:
            failures.append(f"{tag}: pessimism violated for arm {arm}")
        bigger = adaptive_weight(float(lcbs[arm]) * 1.3, others, q)
        if bigger + 1e-12 < share:
            failures.append(f"{tag}: share not monotone in the LCB")
        worse = adaptive_weight(float(lcbs[arm]), others * 1.3, q)
        if worse > share + 1e-12:
            failures.append(f"{tag}: share not monotone in the UCBs")


def _check_context_commitment(cfg: PolicyConfig, failures: list[str], tag: str):
    """Replaying with permuted future contexts must not change earlier commits.
    Returns the two traces it ran.  The contexts are seeded apart from the
    env, whose one stream, seeded with `cfg.seed`, draws the noise."""
    contexts = sample_context(cfg.context_spec, np.random.default_rng([cfg.seed, 1]), cfg.horizon)
    cut = cfg.horizon // 2

    def env_with(ctx):
        return ContextualEnv(cfg.betas, cfg.context_spec, cfg.arms, cfg.seed, contexts=ctx)

    trace_a = run_contextual(cfg, env_with(contexts))
    permuted = contexts.copy()
    permuted[cut:] = permuted[cut:][::-1] * -1.0
    trace_b = run_contextual(cfg, env_with(permuted))

    def expand(order):
        seq = []
        for arm, m in order:
            seq.extend([arm] * m)
        return seq

    seq_a, seq_b = expand(trace_a.pull_order), expand(trace_b.pull_order)
    if seq_a[:cut] != seq_b[:cut]:
        failures.append(f"{tag}: committed arms changed with future contexts")
    return trace_a, trace_b


def run_selftest(
    num_configs: int = 1000, seed: int = 2024, progress=None, digest=None
) -> list[str]:
    """Run the invariant battery; returns a list of failure descriptions.

    `digest`, a hashlib object, when given is fed the repr of
    `dataclasses.astuple` of every trace the battery makes, in run order, so
    two builds that agree on every run give the same digest.
    """
    rng = np.random.default_rng(seed)
    failures: list[str] = []

    def record(*traces):
        if digest is not None:
            for trace in traces:
                digest.update(repr(dataclasses.astuple(trace)).encode())

    for i in range(num_configs):
        tag = f"config {i}"
        _check_share_function(rng, failures, tag)
        contextual = i % 8 == 0
        cfg, policy = (_random_contextual_cfg if contextual else _random_canonical_cfg)(rng)
        trace = policy(cfg)
        record(trace)
        _check_trace(cfg, policy, trace, failures, tag)
        if i % 10 == 0:
            again = policy(cfg)
            record(again)
            if dataclasses.astuple(again) != dataclasses.astuple(trace):
                failures.append(f"{tag}: rerun with the same seed diverged")
        if contextual and i % 16 == 0:
            record(*_check_context_commitment(cfg, failures, tag))
        if progress is not None and (i + 1) % 100 == 0:
            progress(i + 1, num_configs, len(failures))
    return failures
