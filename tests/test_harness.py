"""Bound curves, oracle, slopes, CSV schema, and config handling."""

import concurrent.futures
import csv
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import varalloc.harness as harness
from varalloc import cli
from varalloc.allocation import VarianceProfile
from varalloc.harness import (
    BOUND_NAMES,
    CSV_COLUMNS,
    ExperimentConfig,
    bound_value,
    load_config,
    oracle_best_allocation,
    read_csv,
    run_experiment,
    slope_estimate,
    summarize,
)
from varalloc.errors import ConfigurationError
from varalloc.policies import run_adaptive, run_contextual

INF = math.inf


def _covered_ps(name):
    """The p values the bound table's row for name covers, one per rate."""
    return {"inf": (INF,), "finite": (1.0,), "any": (INF, 1.0)}[harness._BOUNDS[name][0]]


class TestBoundCurves:
    def test_frozen_value_nonadaptive_inf(self):
        profile = VarianceProfile((1.0, 1.0), lower_bound=1.0, proxy=1.0)
        value = bound_value("t1_inf", profile, 2, 3, INF)
        # constant is 16; at T = e, where log T = 1, the value is 16 * e^-1.5
        at_e = bound_value("t1_inf", profile, 2, math.e, INF)
        assert at_e == pytest.approx(16.0 * math.exp(-1.5))
        assert at_e == pytest.approx(3.5701, abs=2e-3)
        assert value == pytest.approx(16.0 * 3.0**-1.5 * math.sqrt(math.log(3.0)))

    def test_frozen_value_adaptive_ssg_finite(self):
        profile = VarianceProfile((1.0, 1.0))
        # constant is 20
        assert bound_value("t7_ssg_adaptive_finite", profile, 2, 100, 1.0) == pytest.approx(
            20.0 * 100.0**-2 * math.log(100.0)
        )

    def test_every_curve_decreasing_in_horizon(self):
        profile = VarianceProfile((1.0, 2.0, 4.0), lower_bound=1.0, proxy=4.0)
        for name in BOUND_NAMES:
            for p in _covered_ps(name):
                values = [
                    bound_value(name, profile, 3, t, p, dim=4, lambda_min_c=1.0)
                    for t in (8, 16, 64, 256, 2048, 10**5)
                ]
                assert all(a > b for a, b in zip(values, values[1:])), (name, p)

    @pytest.mark.parametrize("name", ["t5_contextual", "t8_contextual_ssg"])
    def test_contextual_bounds_reject_p_inf(self, name):
        # neither contextual theorem covers p = inf, where p^2/(p+1) is inf/inf = nan
        profile = VarianceProfile((1.0, 2.0), proxy=2.0)
        with pytest.raises(ConfigurationError, match="covers p = finite only"):
            bound_value(name, profile, 2, 1000, INF, dim=4, lambda_min_c=1.0)

    def test_missing_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            bound_value("t1_inf", VarianceProfile((1.0, 2.0)), 2, 100, INF)
        with pytest.raises(ConfigurationError):
            bound_value("t5_contextual", VarianceProfile((1.0,), proxy=1.0), 1, 100, 1.0)
        with pytest.raises(ConfigurationError, match="needs proxy, dim, lambda_min_c$"):
            bound_value("t5_contextual", VarianceProfile((1.0,)), 1, 100, 1.0)
        with pytest.raises(ConfigurationError):
            bound_value("nope", VarianceProfile((1.0,)), 1, 100, 1.0)
        with pytest.raises(ConfigurationError):
            bound_value("t1_inf", VarianceProfile((1.0, 2.0), 1.0, 2.0), 2, 100, 1.0)


    @pytest.mark.parametrize(
        "name, p, profile",
        [
            ("t3_finite", 2.0, VarianceProfile((1e-200, 1.0), proxy=1.0)),  # power_sum(-4)
            ("t3_finite", 2.0, VarianceProfile((1.0, 2.0), proxy=1e200)),  # proxy**2
            ("t1_inf", INF, VarianceProfile((1.0, 2.0), lower_bound=1e-300, proxy=2.0)),
            ("t1_inf", INF, VarianceProfile((1.0, 2.0), lower_bound=1.0, proxy=1e300)),
        ],
        ids=["t3-tiny-variance", "t3-huge-proxy", "t1-tiny-floor", "t1-huge-proxy"],
    )
    def test_bound_past_the_float_range_rejected(self, name, p, profile):
        with pytest.raises(ConfigurationError, match=name):
            bound_value(name, profile, 2, 1000, p)


class TestOracle:
    def test_known_optima(self):
        assert oracle_best_allocation((1.0, 4.0), INF, 10) == (2, 8)
        assert oracle_best_allocation((1.0, 1.0), 2.0, 10) == (5, 5)
        assert oracle_best_allocation((1.0, 4.0), 1.0, 9) == (3, 6)

    def test_instance_size_guard(self):
        with pytest.raises(ConfigurationError, match="limited"):
            oracle_best_allocation((1.0, 2.0), 1.0, 61)
        with pytest.raises(ConfigurationError, match="limited"):
            oracle_best_allocation((1.0,) * 5, 1.0, 20)


def _rows(table):
    """Rows carrying the (T, regret) pairs of `table`; the other fields are filler."""
    filler = dict(experiment="x", policy="adaptive", regime="ssg", p=INF, num_arms=2, trial=0,
                  seed=0, objective=1.0, optimal_objective=1.0, bound_name="",
                  bound_value=None, good_event=True, runtime_ms=0.0)
    return [harness.Row(horizon=int(t), regret=float(r), **filler) for t, r in table]


class TestSlopeEstimate:
    def test_exact_power_law(self):
        table = _rows((t, 3.0 * t**-2.0) for t in (1000, 2000, 5000, 10_000, 40_000))
        assert slope_estimate(table) == pytest.approx(-2.0, abs=1e-9)

    def test_rate_with_log_factor(self):
        table = _rows(
            (t, 5.0 * t**-1.5 * math.sqrt(math.log(t)))
            for t in np.geomspace(1e3, 1e5, 8).astype(int)
        )
        assert -1.6 < slope_estimate(table) < -1.4

    def test_constant_regret_zero_slope(self):
        table = _rows((t, 0.7) for t in (10, 100, 1000, 10_000))
        assert slope_estimate(table) == pytest.approx(0.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ConfigurationError):
            slope_estimate(_rows([(10, 1.0), (100, 0.5), (1000, -0.1), (10_000, -0.2)]))


def _tiny_config(tmp_path, **overrides):
    cfg = ExperimentConfig(
        name="tiny",
        policy="nonadaptive",
        horizons=(100, 200),
        trials=2,
        seed=11,
        p=INF,
        regime="gaussian",
        variances=(1.0, 2.0),
        means=(0.0, 0.0),
        lower_bound=1.0,
        proxy=2.0,
        knows_lower_bound=True,
        bound="t1_inf",
        output=str(tmp_path / "tiny.csv"),
    )
    return dataclasses.replace(cfg, **overrides)


class TestRunExperiment:
    def test_csv_schema_and_roundtrip(self, tmp_path):
        cfg = _tiny_config(tmp_path)
        rows = run_experiment(cfg)
        with open(cfg.output, newline="") as handle:
            header = next(csv.reader(handle))
        assert tuple(header) == CSV_COLUMNS
        back = read_csv(cfg.output)
        assert len(back) == len(rows) == 4
        assert all(r.regret >= -1e-12 for r in back)
        assert back[0].bound_name == "t1_inf"

    def test_deterministic_modulo_runtime(self, tmp_path):
        def stripped(path):
            with open(path, newline="") as handle:
                rows = list(csv.reader(handle))
            drop = rows[0].index("runtime_ms")
            return [tuple(v for i, v in enumerate(r) if i != drop) for r in rows]

        cfg_a = _tiny_config(tmp_path, trials=1, output=str(tmp_path / "a.csv"))
        cfg_b = _tiny_config(tmp_path, trials=1, output=str(tmp_path / "b.csv"))
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        assert stripped(tmp_path / "a.csv") == stripped(tmp_path / "b.csv")

    def test_worker_pool_matches_serial(self, tmp_path):
        serial = run_experiment(_tiny_config(tmp_path, output=None))
        pooled = run_experiment(_tiny_config(tmp_path, output=None, workers=2))
        strip = lambda rows: [
            (r.horizon, r.trial, r.regret, r.objective, r.good_event) for r in rows
        ]
        assert strip(serial) == strip(pooled)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, tmp_path, workers):
        with pytest.raises(ConfigurationError):
            _tiny_config(tmp_path, output=None, workers=workers)

    def test_pool_capped_at_cpu_count(self, tmp_path, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        # `run_experiment` imports the pool only when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
        rows = run_experiment(_tiny_config(tmp_path, output=None, workers=64))
        assert sizes == [3]
        assert len(rows) == 4

    def test_good_event_union_bound(self, tmp_path):
        cfg = _tiny_config(
            tmp_path, output=None, trials=50, horizons=(500,), p=INF
        )
        rows = run_experiment(cfg)
        held = np.mean([r.good_event for r in rows])
        k, t = 2, 500
        delta = 1.0 / t  # non-adaptive schedule at p = inf
        assert held >= 1.0 - 2 * k * delta * t or held >= 1.0 - 2 * k * delta

    def test_mean_regret_trend_monotone(self, tmp_path):
        cfg = _tiny_config(
            tmp_path,
            output=None,
            trials=30,
            horizons=(500, 1000, 2000, 4000, 8000),
        )
        rows = run_experiment(cfg)
        means = [agg["mean_regret"] for agg in summarize(rows)]
        # Spearman rank correlation of mean regret against the horizon order
        ranks = np.argsort(np.argsort(means))
        rho = np.corrcoef(np.arange(len(means)), ranks)[0, 1]
        assert rho < -0.9


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _count_generators(monkeypatch) -> list:
    """Count the PCG64 bit generators built from here on, by default_rng or directly."""
    built = []

    class Counting(np.random.PCG64):
        def __init__(self, seed=None):
            built.append(self)
            super().__init__(seed)

    def default_rng(seed=None):  # numpy's, routed through the counting PCG64
        if isinstance(seed, np.random.Generator):
            return seed
        return np.random.Generator(Counting(seed))

    monkeypatch.setattr(np.random, "PCG64", Counting)
    monkeypatch.setattr(np.random, "default_rng", default_rng)
    return built


@pytest.mark.parametrize("stem", sorted(path.stem for path in CONFIG_DIR.glob("*.ini")))
def test_one_generator_per_run(stem, monkeypatch):
    # a run's fixed cost: its trial draws, its environment and its policy share one stream
    cfg = load_config(str(CONFIG_DIR / f"{stem}.ini"))
    policy_cfg = harness._policy_config(cfg, cfg.horizons[0], np.random.default_rng(0))
    built = _count_generators(monkeypatch)
    harness._run_one(cfg, cfg.horizons[0], 0)
    assert len(built) == 1
    policy_cfg.environment(5)
    assert len(built) == 2
    run = run_adaptive if policy_cfg.context_spec is None else run_contextual
    run(policy_cfg)  # builds its environment from the config's seed
    assert len(built) == 3


class TestConfigFile:
    def test_roundtrip(self, tmp_path):
        text = """
[experiment]
name = demo
policy = adaptive
horizons = 400 800
trials = 3
seed = 9
p = inf
regime = ssg

[arms]
families = gaussian rademacher
variances = 4 1
means = 0 0
"""
        path = tmp_path / "demo.ini"
        path.write_text(text)
        cfg = load_config(str(path))
        assert cfg.name == "demo"
        assert cfg.policy == "adaptive"
        assert cfg.horizons == (400, 800)
        assert cfg.families == ("gaussian", "rademacher")
        assert cfg.variances == (4.0, 1.0)
        assert not cfg.knows_lower_bound
        rows = run_experiment(cfg)
        assert len(rows) == 6

    def test_override_wins(self, tmp_path):
        path = tmp_path / "demo.ini"
        path.write_text(
            "[experiment]\nname=x\npolicy=nonadaptive\nhorizons=100\n"
            "[arms]\nvariances = 1 2\nmeans = 0 0\n"
            "[knowledge]\nlower_bound = 1\nproxy = 2\n"
        )
        cfg = cli._load(cli.build_parser().parse_args(["simulate", str(path), "--trials", "5"]))
        assert cfg.trials == 5 and cfg.seed == 0

    def test_missing_file(self):
        with pytest.raises(ConfigurationError):
            load_config("/nonexistent/x.ini")

    def test_keys_are_config_fields(self):
        keys = {key for section in harness._CONFIG_KEYS.values() for key in section}
        assert keys <= {field.name for field in dataclasses.fields(ExperimentConfig)}

    @pytest.mark.parametrize(
        "config, horizon",
        [("gaussian_k4_adaptive_ssg", 10**30), ("contextual_k5_ssg", 10**20),
         ("gaussian_k4_gsg", 2**53 + 1)],
    )
    def test_every_horizon_bounded(self, config, horizon):
        # each horizon is checked, not only the smallest
        cfg = load_config(str(Path(__file__).resolve().parents[1] / "configs" / f"{config}.ini"))
        dataclasses.replace(cfg, horizons=(cfg.horizons[0], 2**53))
        with pytest.raises(ConfigurationError, match=r"\bhorizons\b"):
            dataclasses.replace(cfg, horizons=(cfg.horizons[0], horizon))

    def test_dim_checked_before_any_draw(self, monkeypatch):
        # the horizon must cover max(2, dim) pulls per arm; a dim past that is
        # rejected before a (num_arms, dim) beta array is drawn
        monkeypatch.setattr(harness, "_policy_config", lambda *args: pytest.fail("drew"))
        for dim in (10**12, 10**400):
            with pytest.raises(ConfigurationError, match=r"\bdim\b"):
                ExperimentConfig(policy="contextual", horizons=(400,), p=1.0, regime="ssg",
                                 num_arms=2, dim=dim)

    def test_drawn_values_checked_at_both_ends(self):
        # a trial draws each noise variance from its range; construction checks
        # both ends, so no trial can draw a variance a check would reject
        base = dict(
            policy="contextual", horizons=(400,), p=1.0, regime="ssg", num_arms=2, dim=2,
            bound="t8_contextual_ssg", lower_bound=1.0,
        )
        ExperimentConfig(**base, proxy=4.0, noise_variances="uniform 1 4")
        with pytest.raises(ConfigurationError, match="proxy"):
            ExperimentConfig(**base, proxy=2.0, noise_variances="uniform 1 4")
        with pytest.raises(ConfigurationError, match="lower_bound"):
            ExperimentConfig(**base, proxy=4.0, noise_variances="uniform 0.5 4")
        with pytest.raises(ConfigurationError, match="variance"):
            ExperimentConfig(**{**base, "bound": None}, noise_variances="uniform 0 4")


ADAPTIVE_SSG = Path(__file__).resolve().parents[1] / "configs" / "gaussian_k4_adaptive_ssg.ini"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_adaptive_ssg_inf_slope_on_config_grid():
    """The adaptive SSG policy at p = inf must reach the T^-3/2 rate on the
    shipped config's own horizons, in criterion 4's band."""
    cfg = dataclasses.replace(load_config(str(ADAPTIVE_SSG)), trials=40, seed=0, output=None)
    assert -1.8 < slope_estimate(run_experiment(cfg)) < -1.2


_ITEM_1 = pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
# Run settings of each canonical bound row at each p it covers: (bound, p, policy,
# regime, trials).  Criterion 6 checks the contextual rows' rate.
_RATE_RUNS = [
    pytest.param("t1_inf", INF, "nonadaptive", "gsg", 100),
    pytest.param("t2_finite", 1.0, "nonadaptive", "gsg", 100),
    pytest.param("t3_inf", INF, "adaptive", "gsg", 24, marks=_ITEM_1),
    pytest.param("t3_finite", 1.0, "adaptive", "gsg", 24),
    pytest.param("t6_ssg_nonadaptive", INF, "nonadaptive", "ssg", 100),
    pytest.param("t6_ssg_nonadaptive", 1.0, "nonadaptive", "ssg", 100),
    pytest.param("t7_ssg_adaptive_inf", INF, "adaptive", "ssg", 100, marks=_ITEM_1),
    pytest.param("t7_ssg_adaptive_finite", 1.0, "adaptive", "ssg", 100),
]


def test_rate_matrix_covers_every_canonical_bound():
    canonical = [name for name in BOUND_NAMES if "dim" not in harness._BOUNDS[name][1]]
    expected = {(name, p) for name in canonical for p in _covered_ps(name)}
    assert sorted((run.values[0], run.values[1]) for run in _RATE_RUNS) == sorted(expected)


@pytest.mark.parametrize("name, p, policy, regime, trials", _RATE_RUNS)
def test_rate_matrix(name, p, policy, regime, trials):
    """Each canonical bound's policy reaches the bound's T exponent, within 20%,
    from T = 1e5 to 1e8 on Gaussian arms."""
    cfg = ExperimentConfig(
        name=name, policy=policy, regime=regime, p=p, trials=trials, seed=1,
        horizons=(10**5, 10**6, 10**7, 10**8), variances=(1.0, 1.5, 2.0, 2.5),
        means=(0.0,) * 4, lower_bound=1.0, proxy=2.5,
        knows_lower_bound=policy == "nonadaptive", bound=name,
    )
    rows = run_experiment(cfg)
    for agg in summarize(rows):
        bound = next(row.bound_value for row in rows if row.horizon == agg["T"])
        print(f"{name} p={p} T={agg['T']:.0e}: regret/bound {agg['mean_regret'] / bound:.3g}")
    t_exponent = -1.5 if math.isinf(p) else -2.0
    assert 1.2 * t_exponent < slope_estimate(rows) < 0.8 * t_exponent
