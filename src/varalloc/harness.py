"""Experiment orchestration: configs, trial loops, bound curves, oracles, CSV.

The harness reproduces the regret experiments at desk scale: for each horizon
and trial it runs one policy, records the realized regret next to the matching
theoretical leading-term curve, and emits plot-ready CSV rows.  Rows come
in (horizon, trial) order, the order of the tasks, which the worker pool's
`map` keeps, so output is deterministic regardless of worker scheduling.

Experiment files are read through one table of sections and keys, each key
named after the ExperimentConfig field it sets; building an ExperimentConfig
makes every check a trial would make, so a bad file fails before any run.
"""

from __future__ import annotations

import configparser
import csv
import itertools
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .allocation import (
    VarianceProfile,
    initial_share,
    optimal_objective,
    objective_rp,
    q_of_p,
    validate_norm_order,
)
from .arms import (
    ArmSpec,
    ContextSpec,
    Family,
    NoiseRegime,
    Regime,
    gaussian_arm,
    rademacher_arm,
    symmetric_beta_arm,
)
from .errors import ConfigurationError
from .policies import PolicyConfig, check_horizon, run_adaptive, run_contextual, run_nonadaptive


def _finite(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise ValueError(f"not finite: {text}")
    return value


def _positive_int(text: str) -> int:
    if (value := int(text)) < 1:
        raise ValueError(f"not positive: {text}")
    return value


# One (column, Row field, parser) per CSV column, in column order.
_CSV_SCHEMA = (
    ("experiment", "experiment", str),
    ("policy", "policy", str),
    ("regime", "regime", str),
    ("p", "p", lambda text: validate_norm_order(float(text))),
    ("K", "num_arms", _positive_int),
    ("T", "horizon", _positive_int),
    ("trial", "trial", int),
    ("seed", "seed", int),
    ("regret", "regret", _finite),
    ("objective", "objective", _finite),
    ("optimal_objective", "optimal_objective", _finite),
    ("bound_name", "bound_name", str),
    ("bound_value", "bound_value", lambda text: _finite(text) if text else None),
    ("good_event", "good_event", {"1": True, "0": False}.__getitem__),
    ("runtime_ms", "runtime_ms", _finite),
)
CSV_COLUMNS = tuple(column for column, _, _ in _CSV_SCHEMA)

# One row per theorem: name -> (the p it covers: "inf", "finite" or "any"; the
# inputs it needs beyond the variances; its leading constant).  A constant takes
# the terms it reads by name from bound_value; the rate follows from p alone.
_BOUNDS = {
    "t1_inf": ("inf", ("lower_bound", "proxy"), lambda k, s_2, share, lower_bound, proxy, **_:
        4.0 * math.sqrt(2.0) * proxy * (share() ** -0.5 * (k + s_2 / lower_bound - 2.0))),
    "t2_finite": ("finite", ("lower_bound", "proxy"), lambda p, q, s, s_q, share, proxy, **_:
        24.0 * proxy**2 * (p**2 * s_q ** (1.0 / p) * s(q - 4.0) / (share() * (p + 1.0)))),
    "t3_inf": ("inf", ("proxy",), lambda s, s_2, sd_min, proxy, **_:
        8.0 * proxy * (math.sqrt(s_2) * (s(-1.0) + s_2 / sd_min**3 - 2.0 / sd_min))),
    "t3_finite": ("finite", ("proxy",), lambda p, q, s, s_q, proxy, **_:
        40.0 * proxy**2 * (p**2 * s_q ** (2.0 / q) * s(-4.0) / (p + 1.0))),
    "t5_contextual": ("finite", ("proxy", "dim", "lambda_min_c"),
        lambda p, q, s, s_q, proxy, dim, lambda_min_c, **_:
        80.0 * dim * proxy / lambda_min_c * (p**2 * s_q ** (2.0 / q) * s(-4.0) / (p + 1.0))),
    "t6_ssg_nonadaptive": ("any", ("lower_bound", "proxy"),
        lambda p, q, s_q, s_2, var_min, share, **_:
        4.0 * share() ** -0.5 * (s_2 - var_min) if math.isinf(p)
        else 3.0 * p**2 * s_q ** (2.0 / q) / (share() * (p + 1.0))),
    "t7_ssg_adaptive_inf": ("inf", (), lambda s_1, s_2, var_min, sd_min, **_:
        2.0 * math.sqrt(2.0)
        * (math.sqrt(s_2) * (s_2 - 2.0 * var_min) / sd_min + math.sqrt(s_2) * s_1)),
    "t7_ssg_adaptive_finite": ("finite", (), lambda k, p, q, s_q, **_:
        5.0 * k * p**2 * s_q ** (2.0 / q) / (p + 1.0)),
    "t8_contextual_ssg": ("finite", ("dim", "lambda_min_c"), lambda k, s_1, dim, lambda_min_c, **_:
        5.0 * dim * k * s_1**2 / lambda_min_c),
}
BOUND_NAMES = tuple(_BOUNDS)


def bound_value(
    theorem: str,
    profile: VarianceProfile,
    num_arms: int,
    horizon: int,
    p: float,
    dim: int | None = None,
    lambda_min_c: float | None = None,
) -> float:
    """Leading term of a theorem's regret bound at one horizon: its row's
    constant at the rate p sets, T^-3/2 (log T)^1/2 at p = inf and
    T^-2 log T at finite p."""
    validate_norm_order(p)
    name = theorem.lower()
    if name not in _BOUNDS:
        raise ConfigurationError(f"unknown bound curve {theorem!r}")
    covers, needs, constant = _BOUNDS[name]
    if covers != "any" and (covers == "inf") != math.isinf(p):
        raise ConfigurationError(f"bound {name} covers p = {covers} only, not p = {p}")
    q = q_of_p(p)
    s = profile.power_sum
    var_min = min(profile.variances)
    lower_bound, proxy = profile.lower_bound, profile.proxy
    terms = dict(
        k=num_arms, p=p, q=q, s=s, s_q=s(q), s_1=s(1.0), s_2=s(2.0), var_min=var_min,
        sd_min=math.sqrt(var_min), lower_bound=lower_bound, proxy=proxy, dim=dim,
        lambda_min_c=lambda_min_c, share=lambda: initial_share(lower_bound, proxy, num_arms, q),
    )
    missing = [key for key in needs if terms[key] is None]
    if missing:
        raise ConfigurationError(f"{name} needs {', '.join(missing)}")
    t_exponent, log_exponent = (-1.5, 0.5) if math.isinf(p) else (-2.0, 1.0)
    try:
        value = constant(**terms) * float(horizon) ** t_exponent * math.log(horizon) ** log_exponent
    except OverflowError:  # a float ** past the range; * and / give inf instead
        value = math.inf
    if not math.isfinite(value):
        raise ConfigurationError(f"bound {name} is not finite for this config, got {value}")
    return value


def oracle_best_allocation(variances, p: float, horizon: int) -> tuple[int, ...]:
    """Exhaustively minimize the objective over positive integer allocations.

    Only for desk-scale instances (T <= 60, K <= 4); ties resolve to the
    lexicographically smallest allocation.
    """
    variances = tuple(float(v) for v in variances)
    k = len(variances)
    if horizon > 60 or k > 4:
        raise ConfigurationError(
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


def slope_estimate(rows, dropped: list | None = None) -> float:
    """OLS slope of log(mean regret) against log(horizon) over Row records.

    Nonpositive mean regrets are excluded, and their horizons appended to
    `dropped` when it is given; fewer than four surviving points is an
    estimation error.
    """
    means = [(agg["T"], agg["mean_regret"]) for agg in summarize(rows)]
    points = [(t, mean) for t, mean in means if mean > 0]
    if dropped is not None:
        dropped.extend(t for t, mean in means if mean <= 0)
    if len(points) < 4:
        raise ConfigurationError(
            f"slope estimation needs >= 4 positive mean-regret points, have {len(points)}"
        )
    log_t = np.log([t for t, _ in points])
    log_r = np.log([r for _, r in points])
    return float(np.polyfit(log_t, log_r, 1)[0])


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a policy, a horizon grid, and the sampling model.

    Construction makes every check a trial makes, on template trials at the
    first and last horizon with each per-trial draw at an end of its range.
    """

    name: str = "experiment"
    policy: str = "nonadaptive"
    horizons: tuple[int, ...] = ()
    trials: int = 100
    seed: int = 0
    p: float = math.inf
    regime: str = "gsg"
    # canonical arms: per-arm families and variance/mean specs
    families: tuple[str, ...] = ("gaussian",)
    variances: tuple[float, ...] | None = None
    means: tuple[float, ...] | str | None = "uniform -1 1"
    beta_shapes: tuple[float, ...] | None = None
    # prior knowledge; the policies see lower_bound only if knows_lower_bound
    lower_bound: float | None = None
    proxy: float | None = None
    knows_lower_bound: bool = False
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
        if self.knows_lower_bound and self.lower_bound is None:
            raise ConfigurationError("knows_lower_bound requires a lower_bound")
        if self.policy == "nonadaptive" and not self.knows_lower_bound:
            raise ConfigurationError("the non-adaptive policy needs a known lower_bound")
        unknown = [f for f in self.families if f not in [family.value for family in Family]]
        if unknown:
            raise ConfigurationError(f"unknown arm families {unknown}")
        validate_norm_order(self.p)
        if not -math.inf < self.beta_low <= self.beta_high < math.inf:
            raise ConfigurationError(
                f"need finite beta_low <= beta_high, got {self.beta_low}, {self.beta_high}"
            )
        horizons = tuple(sorted(set(int(t) for t in self.horizons)))
        if not horizons:
            raise ConfigurationError("at least one horizon required")
        object.__setattr__(self, "horizons", horizons)
        if self.policy == "contextual":
            if self.num_arms is None or self.dim is None or min(self.num_arms, self.dim) < 1:
                raise ConfigurationError("contextual experiments need num_arms >= 1 and dim >= 1")
            for horizon in (horizons[0], horizons[-1]):  # before any (num_arms, dim) draw
                _keyed("horizons", check_horizon, horizon, self.num_arms, self.dim)
            # |beta . c| <= reach, and a run sums up to T squared residuals of that size
            reach = max(-self.beta_low, self.beta_high) * math.sqrt(3.0) * self.dim
            if not math.isfinite(reach * reach * horizons[-1]):
                raise ConfigurationError(f"beta_low, beta_high: rewards up to {reach:g} overflow")
        elif not self.variances or isinstance(self.variances, str):
            raise ConfigurationError(
                f"canonical experiments need variances, one per arm, got {self.variances!r}"
            )
        else:
            count = len(self.variances)
            if len(self.families) not in (1, count):
                raise ConfigurationError(
                    f"families must name one family or one per arm ({count}): {self.families}"
                )
            if Family.SYMMETRIC_BETA in self.families and self.beta_shapes is None:
                raise ConfigurationError("symmetric_beta arms need beta_shapes")
            # An arm's m2 is v * chi2(n - 1) with n <= T, and chi2_k >= 2k + 3x has
            # probability at most e^-x (Laurent and Massart); at x = 750 that is
            # below the smallest double, so m2 stays under v * (2T + 2250).
            top = max(self.variances)
            if 0 < top < math.inf and not math.isfinite(top * (2.0 * horizons[-1] + 2250.0)):
                raise ConfigurationError(
                    f"variances: {top:g} overflows a sum of squares over {horizons[-1]} pulls"
                )
        templates = [_policy_config(self, horizons[0], _RangeEnd(high)) for high in (False, True)]
        _keyed("horizons", _policy_config, self, horizons[-1], _RangeEnd(False))
        for arm, listed in zip(templates[0].arms, self.variances or ()):
            try:  # the listed variance must be the one the arm's family has
                replace(arm, variance=listed)
            except ConfigurationError as exc:
                raise ConfigurationError(f"variances: {exc}") from None
        if self.bound:
            for template in templates:
                config_bound(self, [arm.variance for arm in template.arms], horizons[0])

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
    good_event: bool
    runtime_ms: float


def _values(spec, count: int, what: str, rng=None) -> tuple[float, ...]:
    """One value per arm from a spec: None (all 0), one finite value per arm,
    or, given an rng to draw from, 'uniform a b' with finite a <= b."""
    if spec is None:
        return (0.0,) * count
    if isinstance(spec, str) and rng is not None:
        parts = spec.split()
        try:
            lo, hi = (float(x) for x in parts[1:])
            ok = parts[0] == "uniform" and -math.inf < lo <= hi < math.inf
        except ValueError:  # not two numbers after the keyword
            ok = False
        if not ok:
            raise ConfigurationError(
                f"{what} must be 'uniform a b' with finite a <= b, got {spec!r}"
            )
        return tuple(float(x) for x in rng.uniform(lo, hi, count))
    if isinstance(spec, str) or len(spec) != count or not all(map(math.isfinite, spec)):
        raise ConfigurationError(f"{what} needs one finite value per arm ({count}): {spec!r}")
    return tuple(float(x) for x in spec)


class _RangeEnd:
    """Stands in for a trial's Generator: every uniform draw is one end of its range."""

    def __init__(self, high: bool):
        self.high = high

    def uniform(self, low, high, size):
        return np.full(size, high if self.high else low)


def config_bound(cfg: ExperimentConfig, variances, horizon: int) -> float:
    """The config's bound curve at one horizon, for the given true variances."""
    profile = VarianceProfile(tuple(variances), lower_bound=cfg.lower_bound, proxy=cfg.proxy)
    lambda_min_c = cfg.lambda_min if cfg.policy == "contextual" else None
    return bound_value(cfg.bound, profile, cfg.arm_count, horizon, cfg.p, cfg.dim, lambda_min_c)


def _keyed(key: str, build, *args):
    """build(*args), with a configuration error reworded to name the file key."""
    try:
        return build(*args)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{key}: {exc}") from None


def _canonical_arms(cfg: ExperimentConfig, means) -> tuple[ArmSpec, ...]:
    """Each arm from its family: rademacher and beta variances follow from the family."""
    count = len(cfg.variances)
    families = cfg.families * count if len(cfg.families) == 1 else cfg.families
    shapes = _values(cfg.beta_shapes, count, "beta_shapes")
    return tuple(
        rademacher_arm(mean) if family == Family.RADEMACHER
        else _keyed("beta_shapes", symmetric_beta_arm, mean, shape)
        if family == Family.SYMMETRIC_BETA
        else _keyed("variances", gaussian_arm, mean, variance)
        for family, mean, variance, shape in zip(families, means, cfg.variances, shapes)
    )


def _policy_config(cfg: ExperimentConfig, horizon: int, rng) -> PolicyConfig:
    """One trial's policy inputs, with its means, betas and noise variances drawn from rng."""
    common = dict(
        horizon=horizon,
        p=cfg.p,
        regime=NoiseRegime(Regime(cfg.regime), cfg.proxy),
        lower_bound=cfg.lower_bound if cfg.knows_lower_bound else None,
    )
    if cfg.policy != "contextual":
        means = _values(cfg.means, len(cfg.variances), "means", rng)
        return PolicyConfig(arms=_canonical_arms(cfg, means), **common)
    spec = ContextSpec(dimension=cfg.dim, lambda_min=cfg.lambda_min)
    betas = rng.uniform(cfg.beta_low, cfg.beta_high, (cfg.num_arms, cfg.dim))
    noise_vars = _values(cfg.noise_variances, cfg.num_arms, "noise_variances", rng)
    return PolicyConfig(
        betas=tuple(tuple(b) for b in betas),
        context_spec=spec,
        arms=tuple(_keyed("noise_variances", gaussian_arm, 0.0, v) for v in noise_vars),
        **common,
    )


def _run_one(cfg: ExperimentConfig, horizon: int, trial: int) -> Row:
    # one stream per run: the trial's draws, then every pull of its environment
    rng = np.random.default_rng([cfg.seed, horizon, trial])

    start = time.perf_counter()
    policy_cfg = _policy_config(cfg, horizon, rng)
    # the environment is built and the entry looked up here, so that a wrapper
    # set on this module's run_* names sees every run and times only the run
    env = policy_cfg.environment(rng)
    run = {"nonadaptive": run_nonadaptive, "adaptive": run_adaptive, "contextual": run_contextual}
    trace = run[cfg.policy](policy_cfg, env)
    runtime_ms = round(1000.0 * (time.perf_counter() - start), 3)

    bound_name, bound = "", None
    if cfg.bound:
        bound_name, bound = cfg.bound, config_bound(cfg, env.true_variances, horizon)
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


def run_experiment(cfg: ExperimentConfig) -> list[Row]:
    """Run every (horizon, trial) cell; rows come back in (horizon, trial) order."""
    tasks = [(cfg, t, i) for t in cfg.horizons for i in range(cfg.trials)]
    workers = min(cfg.workers, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # spares serial runs its import
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_one, *zip(*tasks), chunksize=8))
    else:
        rows = [_run_one(*task) for task in tasks]
    if cfg.output:
        fields = [field for _, field, _ in _CSV_SCHEMA]
        write_csv(cfg.output, CSV_COLUMNS, ([getattr(r, f) for f in fields] for r in rows))
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def write_csv(path: str, header, records):
    """A CSV file of the header, then one line per record of cell values:
    None as empty, bools as 1/0, anything else by str (a float's repr)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([_fmt(value) for value in record] for record in records)


def read_csv(path: str) -> list[Row]:
    rows = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
            raise ConfigurationError(f"unexpected CSV columns in {path}")
        for rec in reader:
            if None in rec:  # DictReader files cells beyond the header under None
                raise ConfigurationError(f"{path}, line {reader.line_num}: too many cells")
            values = {}
            for col, field, parse in _CSV_SCHEMA:
                try:
                    values[field] = parse(rec[col])
                except (KeyError, TypeError, ValueError, ConfigurationError):
                    raise ConfigurationError(
                        f"{path}, line {reader.line_num}: bad {col} value {rec[col]!r}"
                    ) from None
            rows.append(Row(**values))
    return rows


def _parse_value_spec(text: str):
    """Either a numeric list or a 'uniform a b' draw-per-trial spec; empty is None."""
    if not text:
        return None
    if text.startswith("uniform"):
        return text
    return tuple(float(x) for x in text.split())


def _optional(parse):
    return lambda text: parse(text) if text else None


# section -> key -> parser of its text; each key sets the ExperimentConfig field it names
_CONFIG_KEYS = {
    "experiment": {
        "name": str, "policy": str, "trials": int, "seed": int, "p": float, "regime": str,
        "horizons": lambda text: tuple(map(int, text.split())),
        "bound": _optional(str), "output": _optional(str),
    },
    "arms": {
        "families": lambda text: tuple(text.split()),
        "variances": _parse_value_spec,
        "means": _parse_value_spec,
        "beta_shapes": _parse_value_spec,
    },
    "knowledge": {"lower_bound": _optional(float), "proxy": _optional(float)},
    "contextual": {
        "num_arms": _optional(int), "dim": _optional(int), "lambda_min": float,
        "beta_low": float, "beta_high": float, "noise_variances": _parse_value_spec,
    },
}


def load_config(path: str) -> ExperimentConfig:
    """Read a sectioned key-value experiment file (sections and keys of
    _CONFIG_KEYS); a key the file leaves out keeps its ExperimentConfig default,
    and the policies know the variance floor when the file sets lower_bound."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = parser.read(path)
        sections = {name: dict(parser[name]) for name in parser.sections()}  # interpolated
    except configparser.Error as exc:
        raise ConfigurationError(f"cannot parse {path}: {exc}") from exc
    if not read:
        raise ConfigurationError(f"cannot read config file {path}")
    if parser.defaults():  # configparser would copy its keys into every section
        raise ConfigurationError(f"unknown section [{parser.default_section}] in {path}")
    fields = {}
    for section, items in sections.items():
        if section not in _CONFIG_KEYS:
            raise ConfigurationError(f"unknown section [{section}] in {path}")
        for key, text in items.items():
            if key not in _CONFIG_KEYS[section]:
                raise ConfigurationError(f"unknown key {key!r} in [{section}] of {path}")
            try:
                fields[key] = _CONFIG_KEYS[section][key](text)
            except ValueError as exc:
                raise ConfigurationError(f"bad value for {key} in {path}: {exc}") from exc
    return ExperimentConfig(**fields, knows_lower_bound="lower_bound" in fields)


def summarize(rows: list[Row]) -> list[dict]:
    """Mean and median regret, and the trial count, per horizon."""
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
            }
        )
    return out
