"""End-to-end checks of the command-line interface and its exit codes."""

import csv
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import varalloc
from varalloc.cli import main
from varalloc.errors import ConfigurationError
from varalloc.harness import CSV_COLUMNS, load_config, read_csv

CONFIG_TEXT = """
[experiment]
name = cli-demo
policy = nonadaptive
horizons = 200 400
trials = 2
seed = 31
p = inf
regime = gaussian
bound = t1_inf

[arms]
variances = 1 2
means = 0 0

[knowledge]
lower_bound = 1
proxy = 2
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "demo.ini"
    path.write_text(CONFIG_TEXT)
    return str(path)


def test_simulate_writes_csv(config_path, tmp_path, capsys):
    out = str(tmp_path / "rows.csv")
    assert main(["simulate", config_path, "--output", out]) == 0
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 4
    assert rows[0]["experiment"] == "cli-demo"
    assert "mean regret" in capsys.readouterr().out


def test_bounds_emits_values(config_path, tmp_path, capsys):
    out = str(tmp_path / "bounds.csv")
    assert main(["bounds", config_path, "--output", out]) == 0
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [r["T"] for r in rows] == ["200", "400"]
    assert float(rows[0]["bound_value"]) > float(rows[1]["bound_value"])


def test_oracle_reports_gap(capsys):
    assert main(["oracle", "1,4", "--p", "inf", "--T", "10"]) == 0
    out = capsys.readouterr().out
    assert "(2, 8)" in out


def test_oracle_at_p_past_half_the_float_range(capsys):
    # 2p overflows for p above about 9e307, while q = 2p / (p + 1) is near 2
    assert main(["oracle", "1,4", "--T", "10", "--p", "1e308"]) == 0
    assert "(2, 8)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, counts",
    [(["1,4", "--T", "4", "--p", "inf"], "(1, 3)"), (["1e308,1e308", "--T", "10"], "(5, 5)")],
    ids=["share-below-one-pull", "power-sum-past-the-float-range"],
)
def test_oracle_rounds_to_the_exhaustive_optimum(argv, counts, capsys):
    assert main(["oracle", *argv]) == 0
    out = capsys.readouterr().out
    assert f"exhaustive optimum : {counts}" in out and f"rounded closed form: {counts}" in out


def test_slopes_from_csv(config_path, tmp_path, capsys):
    out = str(tmp_path / "rows.csv")
    main(["simulate", config_path, "--output", out,
          "--horizons", "200", "400", "800", "1600", "--trials", "20"])
    assert main(["slopes", out]) == 0
    assert "slope" in capsys.readouterr().out


def test_selftest_small_battery(capsys):
    digests = []
    for _ in range(2):
        assert main(["selftest", "--configs", "25", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "0 failures" in out
        digests.append(re.search(r"trace digest ([0-9a-f]{64})$", out.strip()).group(1))
    assert digests[0] == digests[1]


def test_selftest_trace_digest_pinned(capsys):
    # the digest hashes every trace of the battery, so a change that moves no
    # decision of any policy keeps it; a change to a decision or to the
    # random stream re-pins it
    assert main(["selftest", "--configs", "200", "--seed", "2024"]) == 0
    digest = re.search(r"trace digest ([0-9a-f]{64})$", capsys.readouterr().out.strip()).group(1)
    assert digest == "ec661cc9c460bff607b035c2eeb53d22230121678871316a8a22dc2bea6f321c"


def test_configuration_error_exit_code(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nname=x\npolicy=unknown\nhorizons=100\n")
    assert main(["simulate", str(bad)]) == 2


def test_bad_worker_count_exit_code(config_path):
    assert main(["simulate", config_path, "--workers", "0"]) == 2


@pytest.mark.parametrize("argv", [["oracle", "1,x"], ["oracle", "1,4", "--p", "abc"]])
def test_malformed_oracle_input_exit_code(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["--seed", "-1", "--configs", "1"], ["--configs", "0"], ["--configs", "-1"]],
    ids=["seed-negative", "configs-zero", "configs-negative"],
)
def test_selftest_argument_out_of_range_exit_code(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", *argv])
    assert exc.value.code == 2
    assert "must be an integer >=" in capsys.readouterr().err


def _ini(
    policy="adaptive", regime="ssg", means="0 0", families="gaussian", knowledge="", extra="",
    variances="1 2", horizons="400",
):
    p = "1" if policy == "contextual" else "inf"
    return (
        f"[experiment]\nname = x\npolicy = {policy}\nhorizons = {horizons}\ntrials = 1\n"
        f"p = {p}\nregime = {regime}\n[arms]\nfamilies = {families}\nvariances = {variances}\n"
        f"means = {means}\n"
        f"[knowledge]\n{knowledge}\n{extra}\n"
    )


CONTEXTUAL = "[contextual]\nnum_arms = 2\ndim = 2\n"
# case -> (the key or field the error names, file text)
BAD_VALUE_INIS = {
    "proxy": ("proxy", _ini(regime="gsg", knowledge="proxy = nan")),
    "mean": ("means", _ini(means="nan 0")),
    "lower_bound": (
        "lower_bound", _ini(policy="nonadaptive", knowledge="lower_bound = nan\nproxy = 2")
    ),
    "lambda_min": (
        "lambda_min",
        _ini(policy="contextual", extra="[contextual]\nnum_arms = 2\ndim = 2\nlambda_min = nan"),
    ),
    "families": ("families", _ini(families="cauchy")),
    "beta_shapes": ("beta_shapes", _ini(families="symmetric_beta\nbeta_shapes = 2")),
    "means": ("means", _ini(means="uniform nan 1")),
    "noise_variances": (
        "noise_variances",
        _ini(policy="contextual", extra=CONTEXTUAL + "noise_variances = uniform 3 1"),
    ),
    "beta_low": ("beta_low", _ini(policy="contextual", extra=CONTEXTUAL + "beta_low = nan")),
    "beta_high": (
        "beta_high", _ini(policy="contextual", extra=CONTEXTUAL + "beta_low = 3\nbeta_high = 1")
    ),
    "variances": ("variances", _ini(variances="uniform 1 2", means="uniform -1 1")),
    "unknown-section": ("knowlege", _ini(extra="[knowlege]\nlower_bound = 1")),
    "unknown-key": ("lower_bund", _ini(knowledge="lower_bund = 1")),
    "policy-section": ("policy", _ini(extra="[policy]\nbatch_growth = 2")),
    "beta-variances": (
        "variances", _ini(families="symmetric_beta\nbeta_shapes = 1 2", variances="5 5")
    ),
    "beta-no-shapes": ("beta_shapes", _ini(families="symmetric_beta", variances="0.2 0.2")),
    "families-count": ("families", _ini(families="gaussian rademacher gaussian")),
    "means-count": ("means", _ini(means="0 0 0")),
    "nonadaptive-no-floor": ("lower_bound", _ini(policy="nonadaptive")),
    "floor-without-proxy": ("proxy", _ini(knowledge="lower_bound = 1")),
    "num_arms": (
        "num_arms", _ini(policy="contextual", extra="[contextual]\nnum_arms = 0\ndim = 2")
    ),
    "dim": ("dim", _ini(policy="contextual", extra="[contextual]\nnum_arms = 2\ndim = -1")),
    "dim-above-horizon": (
        "dim", _ini(policy="contextual", extra="[contextual]\nnum_arms = 2\ndim = 1000000")
    ),
    "dim-past-float": (
        "dim", _ini(policy="contextual", extra=f"[contextual]\nnum_arms = 2\ndim = {10**400}")
    ),
    "horizons-past-float": ("horizons", _ini(policy="contextual", extra=CONTEXTUAL,
                                             horizons=f"400 {10**400}")),
    "noise_variances-zero": (
        "noise_variances",
        _ini(policy="contextual", extra=CONTEXTUAL + "noise_variances = uniform 0 4"),
    ),
    "variances-zero": ("variances", _ini(variances="0 1")),
    "horizons-past-2**53": ("horizons", _ini(horizons=f"400 {2**53 + 1}")),
    "default-section": ("DEFAULT", "[DEFAULT]\nfoo = 1\n" + _ini()),
    "beta_shapes-uniform": (
        "beta_shapes", _ini(families="symmetric_beta\nbeta_shapes = uniform 1 2")
    ),
    "means-one-end": ("means", _ini(means="uniform 1")),
    "lower_bound-above-proxy": (
        "lower_bound",
        _ini(policy="nonadaptive", variances="3 4", knowledge="lower_bound = 3\nproxy = 2.5"),
    ),
    # checked without a bound curve too
    "lower_bound-above-variance": (
        "lower_bound",
        _ini(policy="nonadaptive", regime="gsg", variances="1 1.5 2 2.5", means="0 0 0 0",
             knowledge="lower_bound = 2\nproxy = 2.2"),
    ),
    "proxy-below-variance": ("proxy", _ini(regime="gsg", knowledge="proxy = 1.5")),
}


def _names(err: str, key: str) -> bool:
    """Whether an error message names `key` as a whole word."""
    return re.search(rf"\b{re.escape(key)}\b", err) is not None


@pytest.mark.parametrize("field, text", BAD_VALUE_INIS.values(), ids=BAD_VALUE_INIS.keys())
def test_bad_config_value_exit_code(field, text, tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert main(["simulate", str(path), "--workers", "1"]) == 2
    assert _names(capsys.readouterr().err, field)


@pytest.mark.parametrize("field, text", BAD_VALUE_INIS.values(), ids=BAD_VALUE_INIS.keys())
def test_bounds_rejects_bad_config_value(field, text, tmp_path, capsys):
    # every check is made when the file is loaded, so `bounds` rejects what `simulate` does
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert main(["bounds", str(path), "--bound", "t7_ssg_adaptive_inf"]) == 2
    assert _names(capsys.readouterr().err, field)


def test_lower_bound_above_proxy_rejected_at_load(tmp_path):
    # the floor must not exceed the proxy; the file fails when it is loaded,
    # not in its first trial
    path = tmp_path / "floor.ini"
    floor = "lower_bound = {}\nproxy = 2.5"
    path.write_text(_ini(policy="nonadaptive", variances="3 4", knowledge=floor.format(3)))
    with pytest.raises(ConfigurationError, match="lower_bound"):
        load_config(str(path))
    path.write_text(_ini(policy="nonadaptive", variances="2.5 2.5", knowledge=floor.format(2.5)))
    assert load_config(str(path)).lower_bound == 2.5


def test_gsg_proxy_past_the_square_range_runs(tmp_path):
    # phase 1's 64 * proxy^2 * log T overflows the float range; its length is then T // K
    path = tmp_path / "gsg.ini"
    path.write_text(_ini(regime="gsg", variances="1e200 1e200", knowledge="proxy = 1e200"))
    out = tmp_path / "rows.csv"
    assert main(["simulate", str(path), "--workers", "1", "--output", str(out)]) == 0
    assert all(math.isfinite(row.regret) for row in read_csv(str(out)))


# The magnitude grid: each float key a base file sets is replaced in turn by
# one magnitude, on every arm for a per-arm key, with alternating signs for means.
GRID_BASES = {
    "adaptive-ssg": "policy = adaptive\np = inf\nregime = ssg\n"
    "[arms]\nvariances = 1 2\nmeans = 0 0\n",
    "adaptive-gsg-t3": "policy = adaptive\np = 2\nregime = gsg\nbound = t3_finite\n"
    "[arms]\nvariances = 1 2\nmeans = 0 0\n[knowledge]\nproxy = 2.5\n",
    "nonadaptive-gsg-t1": "policy = nonadaptive\np = inf\nregime = gsg\nbound = t1_inf\n"
    "[arms]\nvariances = 1 2\nmeans = 0 0\n[knowledge]\nlower_bound = 1\nproxy = 2.5\n",
    "contextual-t8": "policy = contextual\np = 1\nregime = ssg\nbound = t8_contextual_ssg\n"
    "[knowledge]\nlower_bound = 1\nproxy = 4\n[contextual]\nnum_arms = 2\ndim = 2\n"
    "lambda_min = 1\nbeta_low = -2\nbeta_high = 2\nnoise_variances = 1 4\n",
}
GRID_FLOAT_KEYS = {
    "p", "variances", "means", "lower_bound", "proxy",
    "lambda_min", "beta_low", "beta_high", "noise_variances",
}
GRID_MAGNITUDES = tuple(f"1e{sign}{exponent}" for sign in "+-" for exponent in (1, 50, 150, 200, 300, 306, 308))


def _grid_keys(text: str) -> list[str]:
    return [key for key in re.findall(r"^(\w+) = ", text, re.M) if key in GRID_FLOAT_KEYS]


def _grid_cases():
    for base, text in GRID_BASES.items():
        for key in _grid_keys(text):
            for magnitude in GRID_MAGNITUDES:
                yield pytest.param(base, key, magnitude, id=f"{base}-{key}-{magnitude}")


@pytest.mark.parametrize("base, key, magnitude", _grid_cases())
def test_magnitude_grid(base, key, magnitude, tmp_path, capsys):
    # any magnitude runs to finite cells, or exits 2 naming a float key of the
    # file or its bound; it never ends in a traceback
    if key == "means":
        value = f"{magnitude} -{magnitude}"
    else:
        value = f"{magnitude} {magnitude}" if key.endswith("variances") else magnitude
    text = re.sub(rf"^{key} = .*$", f"{key} = {value}", GRID_BASES[base], flags=re.M)
    path, out = tmp_path / "grid.ini", tmp_path / "rows.csv"
    path.write_text("[experiment]\nname = grid\nhorizons = 400 2000\ntrials = 1\nseed = 3\n" + text)
    bound = re.findall(r"^bound = (\w+)", text, re.M)
    names = _grid_keys(text) + bound
    commands = [["simulate", str(path), "--workers", "1", "--output", str(out)]]
    if bound:
        commands.append(["bounds", str(path)])
    for argv in commands:
        code = main(argv)
        err = capsys.readouterr().err
        if code != 0:
            assert code == 2 and any(_names(err, name) for name in names), err
        elif argv[0] == "simulate":
            for row in read_csv(str(out)):  # which also rejects a non-finite cell
                cells = (row.regret, row.objective, row.optimal_objective, row.bound_value or 0.0)
                assert all(map(math.isfinite, cells))


def test_oracle_checks_its_limit_first():
    # the exhaustive search is limited to T <= 60; past it the command exits
    # before it computes anything, at any T
    src = Path(varalloc.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "varalloc.cli", "oracle", "1,4", "--T", str(10**30)],
        cwd=src, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "T <= 60" in done.stderr and "Traceback" not in done.stderr


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))
# the shipped files whose bound curve is evaluated over fixed variances
BOUNDED_CONFIGS = {"gaussian_k4_gsg", "gaussian_k4_adaptive_ssg", "rademacher_gaussian_ssg"}


@pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=lambda path: path.stem)
def test_shipped_config_runs(config, tmp_path):
    smallest = load_config(str(config)).horizons[0]
    argv = ["simulate", str(config), "--trials", "1", "--workers", "1",
            "--horizons", str(smallest), "--output", str(tmp_path / "rows.csv")]
    assert main(argv) == 0
    if config.stem in BOUNDED_CONFIGS:
        assert main(["bounds", str(config), "--output", str(tmp_path / "bounds.csv")]) == 0


def test_bounds_leaves_the_simulate_csv_alone(tmp_path, monkeypatch):
    # a shipped config's `output` names simulate's per-trial CSV; `bounds`
    # writes its own CSV only under --output
    config = tmp_path / "rademacher_gaussian_ssg.ini"
    config.write_bytes((SHIPPED_CONFIGS[0].parent / config.name).read_bytes())
    monkeypatch.chdir(tmp_path)
    cfg = load_config(str(config))
    assert main(["simulate", str(config), "--trials", "2", "--workers", "1",
                 "--horizons", "1000", "2000", "4000", "8000"]) == 0
    written = Path(cfg.output).read_bytes()
    assert main(["bounds", str(config)]) == 0
    assert Path(cfg.output).read_bytes() == written
    assert main(["slopes", cfg.output]) == 0


def test_bounds_needs_a_bound_over_fixed_variances(tmp_path, capsys):
    path = tmp_path / "x.ini"
    path.write_text(_ini())
    assert main(["bounds", str(path)]) == 2
    assert "no bound curve" in capsys.readouterr().err
    # the shipped contextual file draws its noise variances per trial
    assert main(["bounds", str(SHIPPED_CONFIGS[0].parent / "contextual_k5_ssg.ini")]) == 2
    assert "fixed variance profile" in capsys.readouterr().err


# `bounds --output` of each bounded shipped config, byte for byte
BOUNDS_PINS = {
    "gaussian_k4_gsg": """\
experiment,bound_name,K,p,T,bound_value
gaussian-k4-gsg,t1_inf,4,inf,2000,0.011438117571736536
gaussian-k4-gsg,t1_inf,4,inf,5000,0.0030630932110636347
gaussian-k4-gsg,t1_inf,4,inf,10000,0.0011261722200538958
gaussian-k4-gsg,t1_inf,4,inf,20000,0.00041287259475294324
gaussian-k4-gsg,t1_inf,4,inf,50000,0.00010917448309063054
gaussian-k4-gsg,t1_inf,4,inf,100000,3.9816200679200924e-05
""",
    "gaussian_k4_adaptive_ssg": """\
experiment,bound_name,K,p,T,bound_value
gaussian-k4-adaptive-ssg,t7_ssg_adaptive_inf,4,inf,2000,0.0023574181813451043
gaussian-k4-adaptive-ssg,t7_ssg_adaptive_inf,4,inf,5000,0.0006313094424522407
gaussian-k4-adaptive-ssg,t7_ssg_adaptive_inf,4,inf,10000,0.00023210627537532588
gaussian-k4-adaptive-ssg,t7_ssg_adaptive_inf,4,inf,20000,8.509384130259025e-05
gaussian-k4-adaptive-ssg,t7_ssg_adaptive_inf,4,inf,50000,2.250107238036828e-05
gaussian-k4-adaptive-ssg,t7_ssg_adaptive_inf,4,inf,100000,8.206196063692253e-06
""",
    "rademacher_gaussian_ssg": """\
experiment,bound_name,K,p,T,bound_value
rademacher-gaussian-ssg,t7_ssg_adaptive_inf,2,inf,1000,0.02636300969037652
""",
}


@pytest.mark.parametrize("stem", sorted(BOUNDED_CONFIGS))
def test_bounds_csv_pinned(stem, tmp_path):
    out = tmp_path / "bounds.csv"
    config = SHIPPED_CONFIGS[0].parent / f"{stem}.ini"
    assert main(["bounds", str(config), "--output", str(out)]) == 0
    assert out.read_bytes() == BOUNDS_PINS[stem].replace("\n", "\r\n").encode()


UNPARSABLE_INIS = {
    "repeated-section": _ini() + "[experiment]\nname = y\n",
    "no-section-header": "name = x\n" + _ini(),
    "bad-interpolation": _ini().replace("name = x", "name = 50%"),
}


@pytest.mark.parametrize("text", UNPARSABLE_INIS.values(), ids=UNPARSABLE_INIS.keys())
def test_unparsable_config_exit_code(text, tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert main(["simulate", str(path), "--workers", "1"]) == 2
    err = capsys.readouterr().err
    assert "cannot parse" in err and str(path) in err


PINS = Path(__file__).resolve().parent / "simulate_pins.csv"


@pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=lambda path: path.stem)
def test_simulate_rows_pinned(config, tmp_path):
    # every CSV column but runtime_ms, at 2 trials on the config's first horizon
    out = tmp_path / "rows.csv"
    first = load_config(str(config)).horizons[0]
    argv = ["simulate", str(config), "--trials", "2", "--workers", "1",
            "--horizons", str(first), "--output", str(out)]
    assert main(argv) == 0
    with open(out, newline="") as handle:
        rows = [row[:-1] for row in csv.reader(handle)][1:]
    with open(PINS, newline="") as handle:
        pinned = [row[1:] for row in csv.reader(handle) if row[0] == config.stem]
    assert CSV_COLUMNS[-1] == "runtime_ms"
    assert rows == pinned


@pytest.mark.parametrize("stem", ["gaussian_k4_gsg", "gaussian_k4_adaptive_ssg"])
def test_simulate_runtime_is_never_zero(stem, tmp_path):
    # runtime_ms keeps microseconds, so even a sub-millisecond run reads above 0
    out = tmp_path / "rows.csv"
    config = SHIPPED_CONFIGS[0].parent / f"{stem}.ini"
    assert main(["simulate", str(config), "--trials", "4", "--workers", "1",
                 "--output", str(out)]) == 0
    assert all(row.runtime_ms > 0 for row in read_csv(str(out)))


VALID_ROW = "x,adaptive,ssg,inf,2,400,0,1,0.001,0.01,0.009,,,1,3"
MALFORMED_ROWS = {
    "regret": VALID_ROW.replace("0.001", "abc"),
    "good_event": VALID_ROW.replace(",1,3", ",2,3"),
    "runtime_ms": VALID_ROW.rsplit(",", 1)[0],
}


@pytest.mark.parametrize("column, bad", MALFORMED_ROWS.items(), ids=MALFORMED_ROWS.keys())
def test_slopes_malformed_cell_exit_code(column, bad, tmp_path, capsys):
    path = tmp_path / "rows.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n" + VALID_ROW + "\n" + bad + "\n")
    assert main(["slopes", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and _names(err, column)


def _with_cell(column: str, text: str) -> str:
    cells = VALID_ROW.split(",")
    cells[CSV_COLUMNS.index(column)] = text
    return ",".join(cells)


BAD_NUMBER_CELLS = {
    "regret-inf": ("regret", "inf"),
    "regret-nan": ("regret", "nan"),
    "objective-inf": ("objective", "-inf"),
    "optimal_objective-nan": ("optimal_objective", "nan"),
    "bound_value-inf": ("bound_value", "inf"),
    "p-nan": ("p", "nan"),
    "p-below-one": ("p", "0.5"),
    "good_event-empty": ("good_event", ""),
    "T-zero": ("T", "0"),
    "T-negative": ("T", "-400"),
    "K-zero": ("K", "0"),
}


@pytest.mark.parametrize("column, text", BAD_NUMBER_CELLS.values(), ids=BAD_NUMBER_CELLS.keys())
def test_slopes_bad_number_cell_exit_code(column, text, tmp_path, capsys):
    path = tmp_path / "rows.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n" + VALID_ROW + "\n" + _with_cell(column, text) + "\n")
    assert main(["slopes", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and _names(err, column)


def _four_horizons(tmp_path, edit_third) -> str:
    """A CSV that `slopes` can fit, with its third data row (line 4) edited."""
    rows = [_with_cell("T", str(t)) for t in (400, 800, 1600, 3200)]
    rows[2] = edit_third(rows[2])
    path = tmp_path / "rows.csv"
    path.write_text("\n".join([",".join(CSV_COLUMNS), *rows]) + "\n")
    return str(path)


def test_slopes_rejects_inf_regret_instead_of_nan_slope(tmp_path, capsys):
    path = _four_horizons(tmp_path, lambda row: row.replace("0.001", "inf"))
    assert main(["slopes", path]) == 2
    out, err = capsys.readouterr()
    assert "nan" not in out and "line 4" in err and _names(err, "regret")


def test_slopes_names_dropped_horizons(tmp_path, capsys):
    # a horizon whose mean regret is not positive stays out of the fit, and
    # `slopes` says so under the slope line
    def csv_of(table):
        rows = [_with_cell("T", str(t)).replace("0.001", regret) for t, regret in table]
        path = tmp_path / f"rows{len(table)}.csv"
        path.write_text("\n".join([",".join(CSV_COLUMNS), *rows]) + "\n")
        return str(path)

    kept = [(400, "0.004"), (800, "0.002"), (3200, "0.0004"), (6400, "0.0002")]
    assert main(["slopes", csv_of(kept)]) == 0
    [slope_line] = capsys.readouterr().out.splitlines()
    assert main(["slopes", csv_of(kept + [(1600, "-0.001"), (12800, "0")])]) == 0
    assert capsys.readouterr().out.splitlines() == [
        slope_line, "  dropped T=1600, 12800: mean regret <= 0"
    ]


def test_slopes_extra_cell_exit_code(tmp_path, capsys):
    assert main(["slopes", _four_horizons(tmp_path, lambda row: row + ",junk")]) == 2
    assert "line 4" in capsys.readouterr().err


def test_missing_config_exit_code():
    assert main(["simulate", "/does/not/exist.ini"]) == 2


def test_io_error_exit_code(config_path):
    assert main(["simulate", config_path, "--output", "/no/such/dir/out.csv"]) == 3


def test_selftest_failure_exit_code(monkeypatch):
    import varalloc.cli as cli

    monkeypatch.setattr(cli, "run_selftest", lambda *a, **k: ["synthetic failure"])
    assert main(["selftest", "--configs", "1"]) == 4


def test_import_leaves_the_process_pool_unloaded():
    # only `simulate --workers` above 1 needs the pool, so no other command
    # pays for importing it at start-up
    code = (
        "import sys, varalloc, varalloc.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('concurrent', 'multiprocessing')))"
    )
    src = Path(varalloc.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True,
        timeout=120,
    ).stdout
    assert out.strip() == "[]"
