"""Reward and context distributions with deterministic seeded sampling.

Every sampler is an immutable spec plus a caller-owned numpy Generator, so
the full draw sequence is a pure function of (spec, seed).  Environments
give each arm its own independent substream split from a master seed,
which makes an arm's i-th draw invariant to the order in which arms are
pulled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError, ContractViolation


class Family(str, Enum):
    GAUSSIAN = "gaussian"
    RADEMACHER = "rademacher"
    SYMMETRIC_BETA = "symmetric_beta"
    CUSTOM = "custom"


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
        if self.family == Family.CUSTOM:
            if len(self.family_params) < 2:
                raise ConfigurationError("custom arm needs a quantile table (>= 2 points)")


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
    if arm.family == Family.CUSTOM:
        table = np.asarray(arm.family_params, dtype=float)
        return table[rng.integers(0, len(table), size)]
    raise ConfigurationError(f"unknown family {arm.family}")  # pragma: no cover


@dataclass(frozen=True)
class NoiseRegime:
    """Which radii family a policy uses, plus the GSG variance proxy."""

    regime: Regime
    sigma_sq_proxy: float | None = None

    def __post_init__(self):
        if self.regime == Regime.GSG:
            if self.sigma_sq_proxy is None or self.sigma_sq_proxy <= 0:
                raise ConfigurationError("GSG regime requires a positive variance proxy")


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
        if self.lambda_min <= 0:
            raise ConfigurationError("lambda_min must be positive")


def sample_context(spec: ContextSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw `size` context vectors, shape (size, d), each with norm <= sqrt(3 d)."""
    half = math.sqrt(3.0)
    return rng.uniform(-half, half, (size, spec.dimension))


def _substreams(seed, count: int) -> list[np.random.Generator]:
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(count)]


class CanonicalEnv:
    """Sequential reward environment over K arms, one RNG substream per arm."""

    def __init__(self, arms: list[ArmSpec], seed):
        if not arms:
            raise ConfigurationError("environment needs at least one arm")
        self.arms = list(arms)
        self._rngs = _substreams(seed, len(arms))

    @property
    def num_arms(self) -> int:
        return len(self.arms)

    @property
    def true_variances(self) -> list[float]:
        return [a.variance for a in self.arms]

    def pull(self, k: int, m: int = 1) -> np.ndarray:
        """Observe the next m rewards of arm k."""
        return sample_reward(self.arms[k], self._rngs[k], m)


class ContextualEnv:
    """Linear-reward environment: shared context stream, per-arm noise streams.

    The context at round t is consumed in round order regardless of which
    arm was committed, matching the decide-then-observe protocol.  A
    pre-drawn context array can be injected for replay tests.
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
            if arm is not None and arm.mean != 0.0:
                raise ConfigurationError("contextual noise arms must have mean 0")
        self.betas = betas
        self.spec = context_spec
        self.noise_arms = list(noise_arms)
        streams = _substreams(seed, len(noise_arms) + 1)
        self._ctx_rng = streams[0]
        self._noise_rngs = streams[1:]
        self._scripted = None if contexts is None else np.asarray(contexts, dtype=float)
        self._round = 0

    @property
    def num_arms(self) -> int:
        return len(self.noise_arms)

    @property
    def dimension(self) -> int:
        return self.spec.dimension

    @property
    def true_variances(self) -> list[float] | None:
        if any(a is None for a in self.noise_arms):
            return None
        return [a.variance for a in self.noise_arms]

    def _next_contexts(self, m: int) -> np.ndarray:
        if self._scripted is not None:
            if self._round + m > len(self._scripted):
                raise ContractViolation("scripted context sequence exhausted")
            out = self._scripted[self._round : self._round + m]
        else:
            out = sample_context(self.spec, self._ctx_rng, m)
        self._round += m
        return out

    def pull(self, k: int, m: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Commit arm k for the next m rounds; returns (contexts, rewards)."""
        ctx = self._next_contexts(m)
        if self.noise_arms[k] is None:
            return ctx, ctx @ self.betas[k]
        noise = sample_reward(self.noise_arms[k], self._noise_rngs[k], m)
        return ctx, ctx @ self.betas[k] + noise

