"""End-to-end checks of the command-line interface and its exit codes."""

import csv

import pytest

from varalloc.cli import main

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
    assert main(["selftest", "--configs", "25", "--seed", "7"]) == 0
    assert "0 failures" in capsys.readouterr().out


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


def test_missing_config_exit_code():
    assert main(["simulate", "/does/not/exist.ini"]) == 2


def test_io_error_exit_code(config_path):
    assert main(["simulate", config_path, "--output", "/no/such/dir/out.csv"]) == 3


def test_selftest_failure_exit_code(monkeypatch):
    import varalloc.cli as cli

    monkeypatch.setattr(cli, "run_selftest", lambda *a, **k: ["synthetic failure"])
    assert main(["selftest", "--configs", "1"]) == 4
