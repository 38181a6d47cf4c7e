"""Per-arm statistics: streaming mean/variance and ridge regression.

Both statistics classes share one protocol: a count `n`, `update_many` that
folds in an environment's summary of one pull segment, `variance()` and
`point()`; `of` summarizes raw draws.  RunningMoments is (count, mean, m2),
merged exactly, so a stream folded segment by segment keeps the two-pass
variance up to round-off.  RidgeState keeps the unregularized Gram matrix,
X'y and the (context, reward) history its residual variance recenters over,
in one capacity-doubling buffer per arm, so a residual scan is O(n d) and
copies each row once.  Its ridge solve skips the eigenvalue singularity
check when a certificate on the penalty shows the check must pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, SingularSystemError

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
        if self.n == 0:  # a copy: the merge below makes inf * 0 = nan of a huge mean
            self.n, self.mean, self.m2 = nb, other.mean, other.m2
            return self
        n = self.n + nb
        delta = other.mean - self.mean
        self.m2 += other.m2 + delta * delta * (self.n * nb / n)
        self.mean += delta * (nb / n)
        self.n = n
        return self

    def variance(self) -> float:
        if self.n < 2:
            raise ContractViolation(f"sample variance needs n >= 2, have n={self.n}")
        return self.m2 / (self.n - 1)

    def point(self) -> float:
        return self.mean


def _solve_spd(v: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Symmetric solve of v x = b, rejecting numerically singular systems: those
    whose smallest eigenvalue is below SINGULARITY_RTOL times the largest
    eigenvalue magnitude."""
    eigs = np.linalg.eigvalsh(v)  # ascending
    lo, hi = (float(eigs[0]), float(eigs[-1])) if eigs.size else (0.0, 0.0)
    scale = max(-lo, hi)
    if scale == 0.0 or lo < SINGULARITY_RTOL * scale:
        raise SingularSystemError(
            f"system is singular at tolerance {SINGULARITY_RTOL} (min eig {lo:.3e})"
        )
    return np.linalg.solve(v, b)


@dataclass
class RidgeState:
    """One arm's design: Gram matrix, X'y, and its n (context, reward) rows.

    `gram` is the Gram matrix of those rows as floating point accumulated it,
    which `estimate` relies on.  The rows live in one context buffer and one
    reward buffer whose capacity doubles as they fill.  A merged summary's rows
    wait in `_pending` until `residual_variance` next scans the history, so
    rows that arrive after the last scan, such as a run's final fill, are never
    copied.
    """

    dim: int
    lambda_min: float = 1.0
    n: int = 0
    gram: np.ndarray = None
    xty: np.ndarray = None
    floored: bool = False  # some point() fell back to the penalty floor
    _pending: list = field(default_factory=list)  # (contexts, rewards) not yet buffered
    _contexts: np.ndarray = None  # buffer whose first `_filled` rows are in use
    _rewards: np.ndarray = None
    _filled: int = 0
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
        if contexts.ndim != 2 or rewards.ndim != 1 or len(rewards) != len(contexts):
            raise ContractViolation(
                f"need (m, d) contexts and m rewards, got {contexts.shape} and {rewards.shape}"
            )
        return cls(
            contexts.shape[1], lambda_min, len(contexts), contexts.T @ contexts,
            contexts.T @ rewards, _pending=[(contexts, rewards)],
        )

    def update_many(self, other: "RidgeState") -> "RidgeState":
        """Fold in another summary; this state's lambda_min stays."""
        if other.dim != self.dim:
            raise ContractViolation(f"contexts must have dimension {self.dim}, got {other.dim}")
        if other.n == 0:
            return self
        self.gram += other.gram
        self.xty += other.xty
        if other._filled:  # its buffer only ever grows past these rows
            self._pending.append(
                (other._contexts[: other._filled], other._rewards[: other._filled])
            )
        self._pending += other._pending
        self.n += other.n
        return self

    def estimate(self, gamma: float) -> np.ndarray:
        """Coefficients of the ridge solve V beta = X'y, V = gamma*I + Gram.

        The solve skips `_solve_spd`'s eigenvalue check when a certificate
        shows the check must pass: x = (n + d + 64 d^2) u <= 1/8 and
        gamma > 2 (x + SINGULARITY_RTOL) tr(V), with u = 2^-53 and tr(V) the
        computed sum of the diagonal of the V that check would see.
        Derivation, with V* =
        G* + gamma*I the exact matrix, G* the exact Gram matrix of the n rows
        and S the exact sum of V's diagonal:
        - each Gram entry is a sum of n products, so every product passes
          through at most n roundings, in any summation order; with
          Cauchy-Schwarz, ||gram - G*||_2 <= gamma_n tr(G*), gamma_n =
          n u / (1 - n u), and each diagonal entry, a sum of squares, is at
          least (1 - gamma_n) times its exact value, so tr(G*) and tr(V*) are
          at most S / ((1 - gamma_n)(1 - u));
        - adding gamma to the diagonal errs by at most u S / (1 - u), so
          ||V - V*||_2 <= a S with a = (gamma_n + u) / ((1 - gamma_n)(1 - u)), and
          lambda_min(V) >= gamma - a S, ||V||_2 <= b S with b = a + 1 /
          ((1 - gamma_n)(1 - u));
        - `eigvalsh` is backward stable: each computed eigenvalue lies within
          p(d) u ||V||_2 of V's, and p(d) = 64 d^2 is a generous form of the
          modestly growing p(d) of LAPACK's error bounds;
        - so the computed smallest eigenvalue is at least gamma - (a + p u b) S
          and the largest magnitude at most (1 + p u) b S, and the check
          passes when gamma >= (a + b (p u + SINGULARITY_RTOL (1 + p u))) S;
        - the computed trace tr(V) is at least (1 - gamma_d) S, and with x <=
          1/8 that sufficient gamma is below 1.3 (x + SINGULARITY_RTOL) tr(V);
          the factor 2 also covers the rounding of the certificate's own terms.
        At the policy's penalty lambda_min / n, gamma / tr(V) is about
        lambda_min / (n^2 E|c|^2), so with the unit-variance contexts of
        `arms.ContextSpec` in dimension 4 (E|c|^2 = 4) and lambda_min = 1 the
        certificate holds up to about n = 1e5 rows.
        """
        if gamma < 0:
            raise ContractViolation("gamma must be nonnegative")
        d = self.dim
        v = self.gram + 0.0  # a copy; + 0.0 turns -0.0 to 0.0, as adding gamma * I does
        diagonal = v.ravel()[:: d + 1]  # a view
        diagonal += gamma
        x = (self.n + d + 64 * d * d) * 2.0**-53
        if x <= 0.125 and gamma > 2.0 * (x + SINGULARITY_RTOL) * float(diagonal.sum()):
            return np.linalg.solve(v, self.xty)
        return _solve_spd(v, self.xty)

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
        """Recentered sample variance of the residuals over the full history:
        one O(n d) scan of the buffered rows."""
        if self.n < 2:
            raise ContractViolation(f"residual variance needs n >= 2, have n={self.n}")
        contexts, rewards = self._rows()
        r = rewards - contexts @ np.asarray(beta_hat, dtype=float)
        r -= float(r.sum()) / self.n
        return float((r * r).sum()) / (self.n - 1)

    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Contiguous views of the n rows, after copying the pending ones into
        the buffers, which double in capacity when they run out."""
        filled = self._filled
        if self._pending:
            capacity = 0 if self._contexts is None else len(self._contexts)
            if capacity < self.n:
                capacity = max(self.n, 2 * capacity)
                old_contexts, old_rewards = self._contexts, self._rewards
                self._contexts, self._rewards = np.empty((capacity, self.dim)), np.empty(capacity)
                if filled:
                    self._contexts[:filled] = old_contexts[:filled]
                    self._rewards[:filled] = old_rewards[:filled]
            for contexts, rewards in self._pending:
                end = filled + len(rewards)
                self._contexts[filled:end], self._rewards[filled:end] = contexts, rewards
                filled = end
            self._filled, self._pending = filled, []
        return self._contexts[:filled], self._rewards[:filled]


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
