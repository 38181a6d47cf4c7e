"""Per-arm statistics: streaming mean/variance and ridge regression.

Both statistics classes share one protocol: a count `n`, `update_many` that
folds in an environment's summary of one pull segment, `variance()` and
`point()`; `of` summarizes raw draws.  RunningMoments is (count, mean, m2),
merged exactly, so a stream folded segment by segment keeps the two-pass
variance up to round-off.  RidgeState keeps the unregularized Gram matrix,
X'y and the (context, reward) history its residual variance recenters over.
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

    floored = False  # no ridge penalty to floor

    n: int = 0
    mean: float = 0.0
    m2: float = 0.0

    @classmethod
    def of(cls, xs: np.ndarray) -> "RunningMoments":
        """Two-pass summary of a raw array."""
        xs = np.asarray(xs, dtype=float)
        mean = float(xs.mean())
        return cls(xs.size, mean, float(((xs - mean) ** 2).sum()))

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

    def variance(self) -> float:
        if self.n < 2:
            raise InsufficientDataError(f"sample variance needs n >= 2, have n={self.n}")
        return self.m2 / (self.n - 1)

    def point(self) -> float:
        return self.mean


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
    """One arm's design: Gram matrix, X'y, and the full (context, reward) history."""

    dim: int
    lambda_min: float = 1.0
    n: int = 0
    gram: np.ndarray = None
    xty: np.ndarray = None
    floored: bool = False  # some point() fell back to the penalty floor
    _ctx_chunks: list = field(default_factory=list)
    _reward_chunks: list = field(default_factory=list)
    _point_at: tuple = (-1, ())  # (n, point()) of the last solve
    _variance_at: tuple = (-1, 0.0)  # (n, variance()) of the last computation

    def __post_init__(self):
        if not self.lambda_min > 0:
            raise ContractViolation(f"lambda_min must be positive, got {self.lambda_min}")
        if self.gram is None:
            self.gram = np.zeros((self.dim, self.dim))
        if self.xty is None:
            self.xty = np.zeros(self.dim)

    @classmethod
    def of(cls, contexts: np.ndarray, rewards: np.ndarray, lambda_min: float) -> "RidgeState":
        """Summary of raw rows: contexts (m, d), one reward each."""
        contexts, rewards = np.asarray(contexts, dtype=float), np.asarray(rewards, dtype=float)
        if contexts.ndim != 2 or len(rewards) != len(contexts):
            raise ContractViolation(f"need (m, d) contexts and m rewards, got {contexts.shape}")
        return cls(
            contexts.shape[1], lambda_min, len(contexts), contexts.T @ contexts,
            contexts.T @ rewards, _ctx_chunks=[contexts], _reward_chunks=[rewards],
        )

    def update_many(self, other: "RidgeState") -> "RidgeState":
        """Fold in another summary; this state's lambda_min stays."""
        if other.dim != self.dim:
            raise ContractViolation(f"contexts must have dimension {self.dim}, got {other.dim}")
        if other.n == 0:
            return self
        self.gram += other.gram
        self.xty += other.xty
        self._ctx_chunks += other._ctx_chunks
        self._reward_chunks += other._reward_chunks
        self.n += other.n
        return self

    def estimate(self, gamma: float) -> np.ndarray:
        """Coefficients of the ridge solve (gamma*I + Gram) beta = X'y."""
        if gamma < 0:
            raise ContractViolation("gamma must be nonnegative")
        return _solve_spd(gamma * np.eye(self.dim) + self.gram, self.xty)

    def point(self) -> tuple[float, ...]:
        """Ridge coefficients at penalty lambda_min / max(n, 1), solved once per
        count n; a singular system is solved again at penalty
        1e-8 * max(1, largest Gram eigenvalue), and `floored` is set."""
        if self._point_at[0] == self.n:
            return self._point_at[1]
        gamma = self.lambda_min / max(self.n, 1)
        try:
            beta = self.estimate(gamma)
        except SingularSystemError:
            self.floored = True
            floor = 1e-8 * max(1.0, float(np.linalg.eigvalsh(self.gram)[-1]))
            beta = self.estimate(max(gamma, floor))
        self._point_at = (self.n, tuple(beta.tolist()))
        return self._point_at[1]

    def variance(self) -> float:
        """Residual variance at `point()`, computed once per count n."""
        if self._variance_at[0] != self.n:
            self._variance_at = (self.n, self.residual_variance(self.point()))
        return self._variance_at[1]

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
