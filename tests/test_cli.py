"""End-to-end checks of the command-line interface and its exit codes."""

import csv
import re
import subprocess
import sys
from pathlib import Path

import pytest

import varalloc
from varalloc.cli import main
from varalloc.harness import CSV_COLUMNS, load_config

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
    variances="1 2",
):
    p = "1" if policy == "contextual" else "inf"
    return (
        f"[experiment]\nname = x\npolicy = {policy}\nhorizons = 400\ntrials = 1\n"
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
    "batch_growth": ("batch_growth", _ini(extra="[policy]\nbatch_growth = nan")),
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
    "phase3_ucb": ("phase3_ucb", _ini(extra="[policy]\nphase3_ucb = yes")),
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
    "noise_variances-zero": (
        "noise_variances",
        _ini(policy="contextual", extra=CONTEXTUAL + "noise_variances = uniform 0 4"),
    ),
    "variances-zero": ("variances", _ini(variances="0 1")),
    "default-section": ("DEFAULT", "[DEFAULT]\nfoo = 1\n" + _ini()),
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
