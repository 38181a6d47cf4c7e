"""Experiment orchestration: configs, trial loops, bound curves, oracles, CSV.

The harness reproduces the regret experiments at desk scale: for each horizon
and trial it runs one policy, records the realized regret next to the matching
theoretical leading-term curve, and emits plot-ready CSV rows.  Rows are
keyed by (horizon, trial) and written in sorted key order, so output is
deterministic regardless of worker scheduling.
"""

from __future__ import annotations

import configparser
import csv
import itertools
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .allocation import (
    VarianceProfile,
    optimal_objective,
    objective_rp,
    q_of_p,
    validate_norm_order,
)
from .arms import (
    ArmSpec,
    CanonicalEnv,
    ContextSpec,
    ContextualEnv,
    Family,
    NoiseRegime,
    Regime,
    gaussian_arm,
    rademacher_arm,
    symmetric_beta_arm,
)
from .errors import ConfigurationError, InstanceTooLargeError
from .policies import PolicyConfig, run_adaptive, run_contextual, run_nonadaptive

CSV_COLUMNS = (
    "experiment",
    "policy",
    "regime",
    "p",
    "K",
    "T",
    "trial",
    "seed",
    "regret",
    "objective",
    "optimal_objective",
    "bound_name",
    "bound_value",
    "good_event",
    "runtime_ms",
)

BOUND_NAMES = (
    "t1_inf",
    "t2_finite",
    "t3_inf",
    "t3_finite",
    "t5_contextual",
    "t6_ssg_nonadaptive",
    "t7_ssg_adaptive_inf",
    "t7_ssg_adaptive_finite",
    "t8_contextual_ssg",
)


@dataclass(frozen=True)
class BoundCurve:
    """Leading term of a regret upper bound: constant * T^t_exp * (log T)^log_exp."""

    theorem: str
    leading_constant: float
    t_exponent: float
    log_exponent: float

    def value_at(self, horizon: int) -> float:
        return (
            self.leading_constant
            * float(horizon) ** self.t_exponent
            * math.log(horizon) ** self.log_exponent
        )


def _initial_share(profile: VarianceProfile, num_arms: int, q: float) -> float:
    if profile.lower_bound is None or profile.proxy is None:
        raise ConfigurationError("this curve needs both lower_bound and proxy")
    low = profile.lower_bound ** (q / 2.0)
    high = profile.proxy ** (q / 2.0)
    return low / (low + (num_arms - 1) * high)


def make_bound_curve(
    theorem: str,
    profile: VarianceProfile,
    num_arms: int,
    p: float,
    dim: int | None = None,
    lambda_min_c: float | None = None,
) -> BoundCurve:
    """Assemble the leading constant and rate for one theorem's bound."""
    validate_norm_order(p)
    name = theorem.lower()
    if name not in BOUND_NAMES:
        raise ConfigurationError(f"unknown bound curve {theorem!r}")
    q = q_of_p(p)
    s_q = profile.power_sum(q)
    s_2 = profile.power_sum(2.0)
    s_1 = profile.power_sum(1.0)
    var_min = min(profile.variances)
    sd_min = math.sqrt(var_min)
    proxy = profile.proxy

    if name == "t1_inf":
        share = _initial_share(profile, num_arms, 2.0)
        factor = share**-0.5 * (num_arms + s_2 / profile.lower_bound - 2.0)
        const = 4.0 * math.sqrt(2.0) * proxy * factor
        return BoundCurve(name, const, -1.5, 0.5)
    if name == "t2_finite":
        if math.isinf(p):
            raise ConfigurationError("t2_finite needs a finite norm order")
        share = _initial_share(profile, num_arms, q)
        factor = p**2 * s_q ** (1.0 / p) * profile.power_sum(q - 4.0) / (share * (p + 1.0))
        return BoundCurve(name, 24.0 * proxy**2 * factor, -2.0, 1.0)
    if name == "t3_inf":
        if proxy is None:
            raise ConfigurationError("t3_inf needs the variance proxy")
        factor = math.sqrt(s_2) * (
            profile.power_sum(-1.0) + s_2 / sd_min**3 - 2.0 / sd_min
        )
        return BoundCurve(name, 8.0 * proxy * factor, -1.5, 0.5)
    if name == "t3_finite":
        if math.isinf(p):
            raise ConfigurationError("t3_finite needs a finite norm order")
        if proxy is None:
            raise ConfigurationError("t3_finite needs the variance proxy")
        factor = p**2 * s_q ** (2.0 / q) * profile.power_sum(-4.0) / (p + 1.0)
        return BoundCurve(name, 40.0 * proxy**2 * factor, -2.0, 1.0)
    if name == "t5_contextual":
        if dim is None or lambda_min_c is None:
            raise ConfigurationError("t5_contextual needs dim and lambda_min_c")
        if proxy is None:
            raise ConfigurationError("t5_contextual needs the variance proxy")
        factor = p**2 * s_q ** (2.0 / q) * profile.power_sum(-4.0) / (p + 1.0)
        return BoundCurve(name, 80.0 * dim * proxy / lambda_min_c * factor, -2.0, 1.0)
    if name == "t6_ssg_nonadaptive":
        share = _initial_share(profile, num_arms, q)
        if math.isinf(p):
            return BoundCurve(name, 4.0 * share**-0.5 * (s_2 - var_min), -1.5, 0.5)
        return BoundCurve(
            name, 3.0 * p**2 * s_q ** (2.0 / q) / (share * (p + 1.0)), -2.0, 1.0
        )
    if name == "t7_ssg_adaptive_inf":
        const = 2.0 * math.sqrt(2.0) * (
            math.sqrt(s_2) * (s_2 - 2.0 * var_min) / sd_min + math.sqrt(s_2) * s_1
        )
        return BoundCurve(name, const, -1.5, 0.5)
    if name == "t7_ssg_adaptive_finite":
        if math.isinf(p):
            raise ConfigurationError("t7_ssg_adaptive_finite needs a finite norm order")
        const = 5.0 * num_arms * p**2 * s_q ** (2.0 / q) / (p + 1.0)
        return BoundCurve(name, const, -2.0, 1.0)
    # t8_contextual_ssg
    if dim is None or lambda_min_c is None:
        raise ConfigurationError("t8_contextual_ssg needs dim and lambda_min_c")
    return BoundCurve(name, 5.0 * dim * num_arms * s_1**2 / lambda_min_c, -2.0, 1.0)


def bound_value(
    theorem: str,
    profile: VarianceProfile,
    num_arms: int,
    horizon: int,
    p: float,
    dim: int | None = None,
    lambda_min_c: float | None = None,
) -> float:
    """Leading-term value of a theorem's bound at one horizon."""
    return make_bound_curve(theorem, profile, num_arms, p, dim, lambda_min_c).value_at(
        horizon
    )


def oracle_best_allocation(variances, p: float, horizon: int) -> tuple[int, ...]:
    """Exhaustively minimize the objective over positive integer allocations.

    Only for desk-scale instances (T <= 60, K <= 4); ties resolve to the
    lexicographically smallest allocation.
    """
    variances = tuple(float(v) for v in variances)
    k = len(variances)
    if horizon > 60 or k > 4:
        raise InstanceTooLargeError(
            f"exhaustive search limited to T <= 60, K <= 4 (got T={horizon}, K={k})"
        )
    if horizon < k:
        raise ConfigurationError("horizon must cover one pull per arm")
    best = None
    best_value = math.inf
    for cuts in itertools.combinations(range(1, horizon), k - 1):
        edges = (0,) + cuts + (horizon,)
        counts = tuple(edges[i + 1] - edges[i] for i in range(k))
        value = objective_rp(counts, variances, p)
        if best is None or value < best_value - 1e-12 * best_value:
            best_value = value
            best = counts
    return best


def slope_estimate(table) -> float:
    """OLS slope of log(mean regret) against log(horizon).

    `table` is either an iterable of Row records or of (T, regret) pairs.
    Nonpositive mean regrets are excluded; fewer than four surviving points
    is an estimation error.
    """
    by_t: dict[int, list[float]] = {}
    for item in table:
        if isinstance(item, Row):
            t, r = item.horizon, item.regret
        else:
            t, r = item
        by_t.setdefault(int(t), []).append(float(r))
    points = [
        (t, float(np.mean(rs))) for t, rs in sorted(by_t.items()) if np.mean(rs) > 0
    ]
    if len(points) < 4:
        raise ConfigurationError(
            f"slope estimation needs >= 4 positive mean-regret points, have {len(points)}"
        )
    log_t = np.log([t for t, _ in points])
    log_r = np.log([r for _, r in points])
    return float(np.polyfit(log_t, log_r, 1)[0])


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a policy, a horizon grid, and the sampling model."""

    name: str
    policy: str
    horizons: tuple[int, ...]
    trials: int = 100
    seed: int = 0
    p: float = math.inf
    regime: str = "gsg"
    # canonical arms: per-arm families and variance/mean specs
    families: tuple[str, ...] = ("gaussian",)
    variances: tuple[float, ...] | None = None
    means: tuple[float, ...] | str | None = "uniform -1 1"
    beta_shapes: tuple[float, ...] | None = None
    # prior knowledge
    lower_bound: float | None = None
    proxy: float | None = None
    knows_lower_bound: bool = False
    # policy knobs
    phase3_ucb: bool = False
    batch_growth: float = 2.0
    # contextual model
    num_arms: int | None = None
    dim: int | None = None
    lambda_min: float = 1.0
    beta_low: float = -2.0
    beta_high: float = 2.0
    noise_variances: tuple[float, ...] | str | None = "uniform 1 4"
    # outputs
    bound: str | None = None
    output: str | None = None
    workers: int = 1

    def __post_init__(self):
        if self.policy not in ("nonadaptive", "adaptive", "contextual"):
            raise ConfigurationError(f"unknown policy {self.policy!r}")
        if self.regime not in ("gsg", "ssg", "gaussian"):
            raise ConfigurationError(f"unknown regime {self.regime!r}")
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        if self.seed < 0:
            raise ConfigurationError("seed must be nonnegative")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        validate_norm_order(self.p)
        horizons = tuple(sorted(set(int(t) for t in self.horizons)))
        if not horizons:
            raise ConfigurationError("at least one horizon required")
        object.__setattr__(self, "horizons", horizons)
        if self.policy == "contextual":
            if self.num_arms is None or self.dim is None:
                raise ConfigurationError("contextual experiments need num_arms and dim")
        elif self.variances is None:
            raise ConfigurationError("canonical experiments need a variance profile")

    @property
    def arm_count(self) -> int:
        return self.num_arms if self.policy == "contextual" else len(self.variances)


@dataclass(frozen=True)
class Row:
    """One CSV row: a single (horizon, trial) policy run."""

    experiment: str
    policy: str
    regime: str
    p: float
    num_arms: int
    horizon: int
    trial: int
    seed: int
    regret: float
    objective: float
    optimal_objective: float
    bound_name: str
    bound_value: float | None
    good_event: bool | None
    runtime_ms: int


def _draw_values(spec, count: int, rng, what: str) -> tuple[float, ...]:
    """A fixed list, or 'uniform a b' drawn per trial."""
    if spec is None:
        return (0.0,) * count
    if isinstance(spec, str):
        parts = spec.split()
        if len(parts) != 3 or parts[0] != "uniform":
            raise ConfigurationError(f"bad {what} spec {spec!r}")
        lo, hi = float(parts[1]), float(parts[2])
        return tuple(float(x) for x in rng.uniform(lo, hi, count))
    if len(spec) != count:
        raise ConfigurationError(f"{what} must list one value per arm")
    return tuple(float(x) for x in spec)


def _canonical_arms(cfg: ExperimentConfig, rng) -> list[ArmSpec]:
    count = len(cfg.variances)
    families = cfg.families
    if len(families) == 1:
        families = families * count
    if len(families) != count:
        raise ConfigurationError("families must broadcast over the arms")
    means = _draw_values(cfg.means, count, rng, "means")
    arms = []
    for i, fam in enumerate(families):
        fam = Family(fam)
        if fam == Family.GAUSSIAN:
            arms.append(gaussian_arm(means[i], cfg.variances[i]))
        elif fam == Family.RADEMACHER:
            if cfg.variances[i] != 1.0:
                raise ConfigurationError("rademacher arms have variance 1")
            arms.append(rademacher_arm(means[i]))
        elif fam == Family.SYMMETRIC_BETA:
            if cfg.beta_shapes is None:
                raise ConfigurationError("beta arms need beta_shapes")
            arms.append(symmetric_beta_arm(means[i], cfg.beta_shapes[i]))
        else:
            raise ConfigurationError(f"unsupported experiment family {fam}")
    return arms


def _run_one(cfg: ExperimentConfig, horizon: int, trial: int) -> Row:
    entropy = np.random.SeedSequence([cfg.seed, horizon, trial])
    model_seq, env_seq = entropy.spawn(2)
    rng = np.random.default_rng(model_seq)
    regime = NoiseRegime(Regime(cfg.regime), cfg.proxy)

    start = time.perf_counter()
    if cfg.policy == "contextual":
        dim, k = cfg.dim, cfg.num_arms
        betas = rng.uniform(cfg.beta_low, cfg.beta_high, (k, dim))
        noise_vars = _draw_values(cfg.noise_variances, k, rng, "noise_variances")
        noise_arms = [gaussian_arm(0.0, v) for v in noise_vars]
        spec = ContextSpec(dimension=dim, lambda_min=cfg.lambda_min)
        policy_cfg = PolicyConfig(
            horizon=horizon,
            p=cfg.p,
            regime=regime,
            betas=tuple(tuple(b) for b in betas),
            context_spec=spec,
            noise_arms=tuple(noise_arms),
            knows_lower_bound=cfg.knows_lower_bound,
            lower_bound=cfg.lower_bound,
            phase3_ucb_mode=cfg.phase3_ucb,
            batch_growth=cfg.batch_growth,
        )
        env = ContextualEnv(betas, spec, noise_arms, env_seq)
        trace = run_contextual(policy_cfg, env)
        true_vars = noise_vars
    else:
        arms = _canonical_arms(cfg, rng)
        policy_cfg = PolicyConfig(
            horizon=horizon,
            p=cfg.p,
            regime=regime,
            arms=tuple(arms),
            knows_lower_bound=cfg.knows_lower_bound,
            lower_bound=cfg.lower_bound,
            phase3_ucb_mode=cfg.phase3_ucb,
            batch_growth=cfg.batch_growth,
        )
        env = CanonicalEnv(arms, env_seq)
        runner = run_nonadaptive if cfg.policy == "nonadaptive" else run_adaptive
        trace = runner(policy_cfg, env)
        true_vars = tuple(a.variance for a in arms)
    runtime_ms = int(round(1000.0 * (time.perf_counter() - start)))

    bound_name, bound = "", None
    if cfg.bound:
        profile = VarianceProfile(
            tuple(true_vars), lower_bound=cfg.lower_bound, proxy=cfg.proxy
        )
        bound_name = cfg.bound
        bound = bound_value(
            cfg.bound,
            profile,
            cfg.arm_count,
            horizon,
            cfg.p,
            dim=cfg.dim,
            lambda_min_c=cfg.lambda_min if cfg.policy == "contextual" else None,
        )
    return Row(
        experiment=cfg.name,
        policy=cfg.policy,
        regime=cfg.regime,
        p=cfg.p,
        num_arms=cfg.arm_count,
        horizon=horizon,
        trial=trial,
        seed=cfg.seed,
        regret=trace.realized_regret,
        objective=trace.realized_objective,
        optimal_objective=trace.optimal_objective,
        bound_name=bound_name,
        bound_value=bound,
        good_event=trace.good_event_held,
        runtime_ms=runtime_ms,
    )


def _worker(args) -> Row:
    return _run_one(*args)


def run_experiment(cfg: ExperimentConfig) -> list[Row]:
    """Run every (horizon, trial) cell; rows come back sorted by key."""
    tasks = [(cfg, t, i) for t in cfg.horizons for i in range(cfg.trials)]
    workers = min(cfg.workers, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_worker, tasks, chunksize=8))
    else:
        rows = [_run_one(*task) for task in tasks]
    rows.sort(key=lambda r: (r.horizon, r.trial))
    if cfg.output:
        write_csv(rows, cfg.output)
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return repr(value)
    return str(value)


def write_csv(rows: list[Row], path: str):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            writer.writerow(
                [
                    r.experiment,
                    r.policy,
                    r.regime,
                    _fmt(r.p),
                    r.num_arms,
                    r.horizon,
                    r.trial,
                    r.seed,
                    _fmt(r.regret),
                    _fmt(r.objective),
                    _fmt(r.optimal_objective),
                    r.bound_name,
                    _fmt(r.bound_value),
                    _fmt(r.good_event),
                    r.runtime_ms,
                ]
            )


def read_csv(path: str) -> list[Row]:
    rows = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
            raise ConfigurationError(f"unexpected CSV columns in {path}")
        for rec in reader:
            rows.append(
                Row(
                    experiment=rec["experiment"],
                    policy=rec["policy"],
                    regime=rec["regime"],
                    p=float(rec["p"]),
                    num_arms=int(rec["K"]),
                    horizon=int(rec["T"]),
                    trial=int(rec["trial"]),
                    seed=int(rec["seed"]),
                    regret=float(rec["regret"]),
                    objective=float(rec["objective"]),
                    optimal_objective=float(rec["optimal_objective"]),
                    bound_name=rec["bound_name"],
                    bound_value=float(rec["bound_value"]) if rec["bound_value"] else None,
                    good_event={"1": True, "0": False, "": None}[rec["good_event"]],
                    runtime_ms=int(rec["runtime_ms"]),
                )
            )
    return rows


def parse_p(text: str) -> float:
    """Norm order from text: a number, or inf / infinity."""
    return math.inf if text.strip().lower() in ("inf", "infinity") else float(text)


def _parse_value_spec(text: str):
    """Either a numeric list or a 'uniform a b' draw-per-trial spec."""
    text = text.strip()
    if not text:
        return None
    if text.startswith("uniform"):
        return text
    return tuple(float(x) for x in text.split())


def load_config(path: str) -> ExperimentConfig:
    """Read a flat sectioned key-value experiment file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ConfigurationError(f"cannot read config file {path}")
    if "experiment" not in parser:
        raise ConfigurationError(f"{path} is missing the [experiment] section")
    exp = parser["experiment"]
    arms = parser["arms"] if "arms" in parser else {}
    knowledge = parser["knowledge"] if "knowledge" in parser else {}
    policy = parser["policy"] if "policy" in parser else {}
    contextual = parser["contextual"] if "contextual" in parser else {}

    def get(section, key, default=None):
        return section.get(key, default) if key in section else default

    try:
        kwargs = dict(
            name=exp.get("name", "experiment"),
            policy=exp.get("policy", "nonadaptive"),
            horizons=tuple(int(t) for t in exp.get("horizons", "").split()),
            trials=int(exp.get("trials", "100")),
            seed=int(exp.get("seed", "0")),
            p=parse_p(exp.get("p", "inf")),
            regime=exp.get("regime", "gsg"),
            bound=exp.get("bound", "") or None,
            output=exp.get("output", "") or None,
            families=tuple((get(arms, "families", "gaussian") or "gaussian").split()),
            variances=_parse_value_spec(get(arms, "variances", "") or ""),
            means=_parse_value_spec(get(arms, "means", "uniform -1 1") or ""),
            beta_shapes=_parse_value_spec(get(arms, "beta_shapes", "") or ""),
            lower_bound=(
                float(get(knowledge, "lower_bound")) if get(knowledge, "lower_bound") else None
            ),
            proxy=(float(get(knowledge, "proxy")) if get(knowledge, "proxy") else None),
            knows_lower_bound=(get(knowledge, "lower_bound") is not None),
            phase3_ucb=str(get(policy, "phase3_ucb", "false")).lower() == "true",
            batch_growth=float(get(policy, "batch_growth", "2.0")),
            num_arms=(int(get(contextual, "num_arms")) if get(contextual, "num_arms") else None),
            dim=(int(get(contextual, "dim")) if get(contextual, "dim") else None),
            lambda_min=float(get(contextual, "lambda_min", "1.0")),
            beta_low=float(get(contextual, "beta_low", "-2")),
            beta_high=float(get(contextual, "beta_high", "2")),
            noise_variances=_parse_value_spec(
                get(contextual, "noise_variances", "uniform 1 4") or ""
            ),
        )
    except ValueError as exc:
        raise ConfigurationError(f"bad value in {path}: {exc}") from exc
    return ExperimentConfig(**kwargs)


def apply_overrides(cfg: ExperimentConfig, **overrides) -> ExperimentConfig:
    """Replace the fields whose override is not None; the config is re-validated."""
    overrides = {k: v for k, v in overrides.items() if v is not None}
    return replace(cfg, **overrides) if overrides else cfg


def summarize(rows: list[Row]) -> list[dict]:
    """Mean/median/quartiles of regret per horizon."""
    out = []
    by_t: dict[int, list[float]] = {}
    for r in rows:
        by_t.setdefault(r.horizon, []).append(r.regret)
    for t in sorted(by_t):
        regs = np.asarray(by_t[t])
        out.append(
            {
                "T": t,
                "trials": len(regs),
                "mean_regret": float(regs.mean()),
                "median_regret": float(np.median(regs)),
                "q25": float(np.quantile(regs, 0.25)),
                "q75": float(np.quantile(regs, 0.75)),
            }
        )
    return out
