"""Reward and context distributions with deterministic seeded sampling.

Every sampler is an immutable spec plus a caller-owned numpy Generator, so
the full draw sequence is a pure function of (spec, seed).  An environment
draws everything from one Generator, `default_rng(seed)`, in pull order: its
rewards, and a contextual environment's contexts too.  Each arm's rewards are
i.i.d. and independent of the other arms', but an arm's i-th pull depends on
the pulls made before it, so a (config, seed) pair fixes one exact trace.

Both environments answer a pull of m rounds with a summary of what those
rounds observed, never the raw draws: the canonical one with the exact
(count, mean, m2) `RunningMoments` of an arm's next m rewards, the contextual
one with the `RidgeState` of its m (context, reward) rows.  Gaussian and
Rademacher summaries are drawn from their closed-form distributions in O(1),
whatever m; symmetric beta rewards and contextual rows are drawn raw and
summarized in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .estimation import RidgeState, RunningMoments


class Family(str, Enum):
    GAUSSIAN = "gaussian"
    RADEMACHER = "rademacher"
    SYMMETRIC_BETA = "symmetric_beta"


class Regime(str, Enum):
    """Noise regime governing which concentration radii apply.

    GSG: general subgaussian with a known variance proxy.
    SSG: strictly subgaussian (proxy equals the true variance).
    GAUSSIAN: exact Gaussian noise, chi-square tail bounds.
    """

    GSG = "gsg"
    SSG = "ssg"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class ArmSpec:
    """One group's reward distribution: family, mean, variance, shape params."""

    family: Family
    mean: float
    variance: float
    family_params: tuple[float, ...] = ()

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ConfigurationError(f"arm mean must be finite, got {self.mean}")
        if not (math.isfinite(self.variance) and self.variance > 0):
            raise ConfigurationError(
                f"arm variance must be positive and finite, got {self.variance}"
            )
        if self.family == Family.RADEMACHER and self.variance != 1.0:
            raise ConfigurationError("rademacher arm has variance exactly 1")
        if self.family == Family.SYMMETRIC_BETA:
            if len(self.family_params) != 1 or self.family_params[0] <= 0:
                raise ConfigurationError("symmetric beta arm needs one shape > 0")
            want = 1.0 / (2.0 * self.family_params[0] + 1.0)
            if abs(self.variance - want) > 1e-9:
                raise ConfigurationError(
                    f"symmetric beta shape {self.family_params[0]} implies "
                    f"variance {want}, got {self.variance}"
                )


def gaussian_arm(mean: float, variance: float) -> ArmSpec:
    return ArmSpec(Family.GAUSSIAN, mean, variance)


def rademacher_arm(mean: float = 0.0) -> ArmSpec:
    return ArmSpec(Family.RADEMACHER, mean, 1.0)


def symmetric_beta_arm(mean: float, shape: float) -> ArmSpec:
    """Symmetric beta arm: mean + (2*Beta(shape, shape) - 1), variance 1/(2*shape+1)."""
    if shape <= 0:
        raise ConfigurationError(f"beta shape must be positive, got {shape}")
    return ArmSpec(Family.SYMMETRIC_BETA, mean, 1.0 / (2.0 * shape + 1.0), (shape,))


def sample_reward(arm: ArmSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw `size` i.i.d. rewards from an arm."""
    if arm.family == Family.GAUSSIAN:
        return rng.normal(arm.mean, math.sqrt(arm.variance), size)
    if arm.family == Family.RADEMACHER:
        return arm.mean + (2.0 * rng.integers(0, 2, size) - 1.0)
    if arm.family == Family.SYMMETRIC_BETA:
        a = arm.family_params[0]
        return arm.mean + (2.0 * rng.beta(a, a, size) - 1.0)
    raise ConfigurationError(f"unknown family {arm.family}")  # pragma: no cover


@dataclass(frozen=True)
class NoiseRegime:
    """Which radii family a policy uses, plus the GSG variance proxy."""

    regime: Regime
    sigma_sq_proxy: float | None = None

    def __post_init__(self):
        proxy = self.sigma_sq_proxy
        if proxy is not None and not 0.0 < proxy < math.inf:
            raise ConfigurationError(f"variance proxy must be positive and finite, got {proxy}")
        if self.regime == Regime.GSG and proxy is None:
            raise ConfigurationError("GSG regime requires a variance proxy")


@dataclass(frozen=True)
class ContextSpec:
    """Context distribution: the uniform hypercube [-sqrt(3), sqrt(3)]^d.

    It has unit per-coordinate variance, identity second moment, and
    lambda_min = 1; lambda_min is the second-moment floor the policy assumes.
    """

    dimension: int
    lambda_min: float = 1.0

    def __post_init__(self):
        if self.dimension < 1:
            raise ConfigurationError("context dimension must be >= 1")
        if not 0.0 < self.lambda_min < math.inf:
            raise ConfigurationError(
                f"lambda_min must be positive and finite, got {self.lambda_min}"
            )


def sample_context(spec: ContextSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw `size` context vectors, shape (size, d), each with norm <= sqrt(3 d)."""
    half = math.sqrt(3.0)
    return rng.uniform(-half, half, (size, spec.dimension))


class CanonicalEnv:
    """Sequential reward environment over K arms, all drawn from one Generator
    seeded with `seed`: an int, a SeedSequence, or a Generator used as it is."""

    def __init__(self, arms: list[ArmSpec], seed):
        if not arms:
            raise ConfigurationError("environment needs at least one arm")
        self.arms = list(arms)
        self._rng = np.random.default_rng(seed)

    @property
    def true_variances(self) -> list[float]:
        return [a.variance for a in self.arms]

    def pull(self, k: int, m: int = 1) -> RunningMoments:
        """Summary (n = m, mean, m2) of the next m rewards of arm k.

        Gaussian: the mean is N(mu, v/m) and m2 is v * chi2(m - 1), independent
        by Cochran's theorem.  Rademacher: b ~ Binomial(m, 1/2) of the m
        rewards are +1, so the mean is mu + (2b - m)/m and m2 is 4b(m - b)/m.
        """
        arm, rng = self.arms[k], self._rng
        if arm.family == Family.GAUSSIAN:
            mean = arm.mean + math.sqrt(arm.variance / m) * rng.standard_normal()
            m2 = arm.variance * rng.chisquare(m - 1) if m > 1 else 0.0
            return RunningMoments(m, float(mean), float(m2))
        if arm.family == Family.RADEMACHER:
            b = int(rng.binomial(m, 0.5))
            return RunningMoments(m, arm.mean + (2 * b - m) / m, 4.0 * b * (m - b) / m)
        return RunningMoments.of(sample_reward(arm, rng, m))


class ContextualEnv:
    """Linear-reward environment: contexts and noise from one Generator.

    Arm k's reward is its context times `betas[k]` plus a draw from
    `noise_arms[k]`, a mean-zero `ArmSpec` whose variance is the arm's true
    variance.  The context at round t is consumed in round order regardless
    of which arm was committed, matching the decide-then-observe protocol; a
    pull of m rounds draws its m contexts, then its m noise values, from the
    Generator seeded as `CanonicalEnv`'s.  A pre-drawn context array can be
    injected for replay tests; the Generator then draws only noise.
    """

    def __init__(
        self,
        betas: np.ndarray,
        context_spec: ContextSpec,
        noise_arms: list[ArmSpec],
        seed,
        contexts: np.ndarray | None = None,
    ):
        betas = np.asarray(betas, dtype=float)
        if betas.ndim != 2 or betas.shape[0] != len(noise_arms):
            raise ConfigurationError("betas must be (K, d) matching the noise arms")
        if betas.shape[1] != context_spec.dimension:
            raise ConfigurationError("beta dimension must match the context dimension")
        for arm in noise_arms:
            if arm.mean != 0.0:
                raise ConfigurationError("contextual noise arms must have mean 0")
        self.betas = betas
        self.spec = context_spec
        self.noise_arms = list(noise_arms)
        self._rng = np.random.default_rng(seed)
        self._scripted = None if contexts is None else np.asarray(contexts, dtype=float)
        if self._scripted is not None and self._scripted.shape[1:] != (context_spec.dimension,):
            raise ConfigurationError(
                f"scripted contexts must be (rounds, {context_spec.dimension}), "
                f"got {self._scripted.shape}"
            )
        self._round = 0

    @property
    def true_variances(self) -> list[float]:
        return [a.variance for a in self.noise_arms]

    def _next_contexts(self, m: int) -> np.ndarray:
        if self._scripted is not None:
            if self._round + m > len(self._scripted):
                raise ContractViolation("scripted context sequence exhausted")
            out = self._scripted[self._round : self._round + m]
        else:
            out = sample_context(self.spec, self._rng, m)
        self._round += m
        return out

    def pull(self, k: int, m: int = 1) -> RidgeState:
        """Commit arm k for the next m rounds; returns the `RidgeState`
        summary of those rounds' (context, reward) rows."""
        ctx = self._next_contexts(m)
        rewards = ctx @ self.betas[k] + sample_reward(self.noise_arms[k], self._rng, m)
        return RidgeState.of(ctx, rewards, self.spec.lambda_min)

