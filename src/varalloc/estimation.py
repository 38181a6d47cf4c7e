"""Streaming mean/variance estimation and ridge regression with residual variance.

RunningMoments is a (count, mean, sum-of-squared-deviations) summary.  Data
is folded in by one exact pairwise merge of another summary (`update_many`),
so a stream folded segment by segment keeps the two-pass variance up to
round-off, whatever the reward offset.  Environments hand over such
summaries, and `RunningMoments.of` turns a raw array into one.  RidgeState
keeps the unregularized Gram matrix plus the full (context, reward) history,
which the residual-based variance estimator needs for its recentering step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, InsufficientDataError, SingularSystemError

# Relative eigenvalue threshold below which a ridge system counts as singular.
SINGULARITY_RTOL = 1e-12


@dataclass
class RunningMoments:
    """Count, mean, and sum of squared deviations for one reward stream."""

    n: int = 0
    mean: float = 0.0
    m2: float = 0.0

    @classmethod
    def of(cls, xs: np.ndarray) -> "RunningMoments":
        """Two-pass summary of a raw array."""
        xs = np.asarray(xs, dtype=float)
        mean = float(xs.mean())
        return cls(xs.size, mean, float(((xs - mean) ** 2).sum()))

    def update(self, x: float) -> "RunningMoments":
        """Fold in one observation."""
        return self.update_many(RunningMoments(1, float(x)))

    def update_many(self, other: "RunningMoments") -> "RunningMoments":
        """Fold in another stream's summary by the exact (count, mean, m2) merge."""
        nb = other.n
        if nb == 0:
            return self
        n = self.n + nb
        delta = other.mean - self.mean
        self.m2 += other.m2 + delta * delta * (self.n * nb / n)
        self.mean += delta * (nb / n)
        self.n = n
        return self

    def sample_variance(self) -> float:
        if self.n < 2:
            raise InsufficientDataError(f"sample variance needs n >= 2, have n={self.n}")
        return self.m2 / (self.n - 1)


def gamma_schedule(lambda_min: float, n: int) -> float:
    """Ridge penalty lambda_min / n used by the contextual policy."""
    if n < 1:
        raise ContractViolation(f"gamma schedule needs n >= 1, got {n}")
    if lambda_min <= 0:
        raise ContractViolation("lambda_min must be positive")
    return lambda_min / n


def _solve_spd(v: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Symmetric solve of v x = b, rejecting numerically singular systems."""
    eigs = np.linalg.eigvalsh(v)
    scale = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    if scale == 0.0 or float(eigs.min()) < SINGULARITY_RTOL * scale:
        raise SingularSystemError(
            f"system is singular at tolerance {SINGULARITY_RTOL} (min eig {eigs.min():.3e})"
        )
    return np.linalg.solve(v, b)


@dataclass
class RidgeState:
    """Accumulated design for one arm: Gram matrix, X'y, and full history."""

    dim: int
    n: int = 0
    gram: np.ndarray = None
    xty: np.ndarray = None
    _ctx_chunks: list = field(default_factory=list)
    _reward_chunks: list = field(default_factory=list)

    def __post_init__(self):
        if self.gram is None:
            self.gram = np.zeros((self.dim, self.dim))
        if self.xty is None:
            self.xty = np.zeros(self.dim)

    def update(self, c: np.ndarray, x: float) -> "RidgeState":
        return self.update_many(np.asarray(c, dtype=float)[None, :], np.array([x]))

    def update_many(self, contexts: np.ndarray, rewards: np.ndarray) -> "RidgeState":
        contexts = np.asarray(contexts, dtype=float)
        rewards = np.asarray(rewards, dtype=float)
        if contexts.ndim != 2 or contexts.shape[1] != self.dim:
            raise ContractViolation(
                f"contexts must be (m, {self.dim}), got {contexts.shape}"
            )
        if len(rewards) != len(contexts):
            raise ContractViolation("one reward per context required")
        if len(contexts) == 0:
            return self
        self.gram += contexts.T @ contexts
        self.xty += contexts.T @ rewards
        self._ctx_chunks.append(contexts)
        self._reward_chunks.append(rewards)
        self.n += len(contexts)
        return self

    def estimate(self, gamma: float) -> np.ndarray:
        """Coefficients of the ridge solve (gamma*I + Gram) beta = X'y."""
        if gamma < 0:
            raise ContractViolation("gamma must be nonnegative")
        return _solve_spd(gamma * np.eye(self.dim) + self.gram, self.xty)

    def residual_variance(self, beta_hat: np.ndarray) -> float:
        """Recentered sample variance of the residuals over the full history."""
        if self.n < 2:
            raise InsufficientDataError(
                f"residual variance needs n >= 2, have n={self.n}"
            )
        contexts = np.concatenate(self._ctx_chunks)
        r = np.concatenate(self._reward_chunks) - contexts @ np.asarray(beta_hat, dtype=float)
        return float(((r - r.mean()) ** 2).sum()) / (self.n - 1)


def conditional_mse(
    gram: np.ndarray, beta: np.ndarray, sigma_sq: float, gamma: float
) -> float:
    """Exact noise-conditional E||beta_hat - beta||^2 for fixed contexts.

    With V = gamma*I + gram, the value is
        sigma_sq * tr(V^-1) + gamma^2 * beta' V^-2 beta - gamma * sigma_sq * tr(V^-2).
    """
    gram = np.asarray(gram, dtype=float)
    beta = np.asarray(beta, dtype=float)
    d = gram.shape[0]
    v = gamma * np.eye(d) + gram
    v_inv = _solve_spd(v, np.eye(d))
    v_inv2 = v_inv @ v_inv
    return float(
        sigma_sq * np.trace(v_inv)
        + gamma * gamma * beta @ v_inv2 @ beta
        - gamma * sigma_sq * np.trace(v_inv2)
    )
