"""Bound curves, oracle, slopes, CSV schema, and config handling."""

import csv
import math

import numpy as np
import pytest

import varalloc.harness as harness
from varalloc.allocation import VarianceProfile
from varalloc.harness import (
    BOUND_NAMES,
    CSV_COLUMNS,
    ExperimentConfig,
    apply_overrides,
    bound_value,
    load_config,
    make_bound_curve,
    oracle_best_allocation,
    read_csv,
    run_experiment,
    slope_estimate,
    summarize,
)
from varalloc.errors import ConfigurationError, InstanceTooLargeError

INF = math.inf


class TestBoundCurves:
    def test_frozen_value_nonadaptive_inf(self):
        profile = VarianceProfile((1.0, 1.0), lower_bound=1.0, proxy=1.0)
        value = bound_value("t1_inf", profile, 2, 3, INF)
        # constant is 16; at T = e the value would be 16 * e^-1.5
        curve = make_bound_curve("t1_inf", profile, 2, INF)
        assert curve.leading_constant == pytest.approx(16.0)
        assert curve.leading_constant * math.exp(-1.5) == pytest.approx(3.5701, abs=2e-3)
        assert value == pytest.approx(16.0 * 3.0**-1.5 * math.sqrt(math.log(3.0)))

    def test_frozen_value_adaptive_ssg_finite(self):
        profile = VarianceProfile((1.0, 1.0))
        curve = make_bound_curve("t7_ssg_adaptive_finite", profile, 2, 1.0)
        assert curve.leading_constant == pytest.approx(20.0)
        assert bound_value("t7_ssg_adaptive_finite", profile, 2, 100, 1.0) == pytest.approx(
            20.0 * 100.0**-2 * math.log(100.0)
        )

    def test_every_curve_decreasing_in_horizon(self):
        profile = VarianceProfile((1.0, 2.0, 4.0), lower_bound=1.0, proxy=4.0)
        for name in BOUND_NAMES:
            p = INF if name.endswith("_inf") else 1.0
            values = [
                bound_value(name, profile, 3, t, p, dim=4, lambda_min_c=1.0)
                for t in (8, 16, 64, 256, 2048, 10**5)
            ]
            assert all(a > b for a, b in zip(values, values[1:])), name

    def test_missing_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            bound_value("t1_inf", VarianceProfile((1.0, 2.0)), 2, 100, INF)
        with pytest.raises(ConfigurationError):
            bound_value("t5_contextual", VarianceProfile((1.0,), proxy=1.0), 1, 100, 1.0)
        with pytest.raises(ConfigurationError):
            bound_value("nope", VarianceProfile((1.0,)), 1, 100, 1.0)


class TestOracle:
    def test_known_optima(self):
        assert oracle_best_allocation((1.0, 4.0), INF, 10) == (2, 8)
        assert oracle_best_allocation((1.0, 1.0), 2.0, 10) == (5, 5)
        assert oracle_best_allocation((1.0, 4.0), 1.0, 9) == (3, 6)

    def test_instance_size_guard(self):
        with pytest.raises(InstanceTooLargeError):
            oracle_best_allocation((1.0, 2.0), 1.0, 61)
        with pytest.raises(InstanceTooLargeError):
            oracle_best_allocation((1.0,) * 5, 1.0, 20)


class TestSlopeEstimate:
    def test_exact_power_law(self):
        table = [(t, 3.0 * t**-2.0) for t in (1000, 2000, 5000, 10_000, 40_000)]
        assert slope_estimate(table) == pytest.approx(-2.0, abs=1e-9)

    def test_rate_with_log_factor(self):
        table = [
            (t, 5.0 * t**-1.5 * math.sqrt(math.log(t)))
            for t in np.geomspace(1e3, 1e5, 8).astype(int)
        ]
        assert -1.6 < slope_estimate(table) < -1.4

    def test_constant_regret_zero_slope(self):
        table = [(t, 0.7) for t in (10, 100, 1000, 10_000)]
        assert slope_estimate(table) == pytest.approx(0.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ConfigurationError):
            slope_estimate([(10, 1.0), (100, 0.5), (1000, -0.1), (10_000, -0.2)])


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
    return apply_overrides(cfg, **overrides)


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

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
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

[policy]
batch_growth = 2.5
"""
        path = tmp_path / "demo.ini"
        path.write_text(text)
        cfg = load_config(str(path))
        assert cfg.name == "demo"
        assert cfg.policy == "adaptive"
        assert cfg.horizons == (400, 800)
        assert cfg.families == ("gaussian", "rademacher")
        assert cfg.variances == (4.0, 1.0)
        assert cfg.batch_growth == 2.5
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
        cfg = apply_overrides(load_config(str(path)), trials=5, seed=None)
        assert cfg.trials == 5 and cfg.seed == 0

    def test_missing_file(self):
        with pytest.raises(ConfigurationError):
            load_config("/nonexistent/x.ini")
