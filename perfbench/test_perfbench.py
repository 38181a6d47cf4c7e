"""Self-tests of the benchmark: metric names, span arithmetic, checks, tracing."""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracing import Span, Tracer, find_targets, group_stats, self_times  # noqa: E402
from workloads import WORKLOADS, RunLog, check_run, run_unit  # noqa: E402


def _declared(kind):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in spec[kind]}


def test_printed_metric_names_match_benchmark_json(capsys):
    argv = ["--workload", "contextual", "--seed", "3", "--seconds", "0.2", "--trace", "0"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("policies.run", 0.0, 10.0, -1),
        Span("arms.pull", 1.0, 4.0, 0),
        Span("arms.sample", 2.0, 3.0, 1),
        Span("concentration.ci", 3.0, 6.0, 0),  # overlaps the pull span
        Span("allocation.round", 8.0, 12.0, 0),  # runs past its parent
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])
    stats = group_stats(spans, {"arms": lambda n: n.startswith("arms.")})["arms"]
    assert (stats.calls, stats.busy_s, stats.self_s) == (1, pytest.approx(3.0), pytest.approx(3.0))


def _stub_trace(counts):
    return SimpleNamespace(counts=counts, realized_regret=0.1, optimal_objective=1.0)


def test_run_short_of_the_horizon_counts_as_failed():
    assert check_run(10, _stub_trace((5, 5))) == []
    assert check_run(10, _stub_trace((5, 4)))  # sums to T - 1

    log = RunLog()
    policy = log.wrap(lambda cfg: _stub_trace((5, 4)))
    stub = SimpleNamespace(
        expected_runs=1,
        work=lambda seed, index: policy(SimpleNamespace(horizon=10)),
        check=lambda outputs, runs: [],
    )
    unit = run_unit(stub, log, seed=0, index=0)
    assert (unit.expected, unit.failed) == (1, 1)


NONZERO_EVERYWHERE = (
    "arms.pull_calls_per_run",
    "arms.busy_s",
    "concentration.calls_per_run",
    "allocation.calls_per_run",
    "policies.self_s",
    "policies.segments_per_run",
)
MOMENTS = ("estimation.moments_calls_per_run", "estimation.moments_busy_s")
RIDGE = (
    "estimation.ridge_update_busy_s",
    "estimation.ridge_solves_per_run",
    "estimation.residual_calls_per_run",
    "estimation.residual_rows_scanned_per_run",
)
CLI = ("harness.self_s", "harness.csv_write_s", "harness.csv_read_s", "cli.self_s")


@pytest.mark.parametrize(
    "name, nonzero, zero",
    [
        ("config-sweep", MOMENTS + CLI, RIDGE),
        ("long-horizon", MOMENTS, RIDGE + CLI + ("harness.busy_s",)),
        ("contextual", RIDGE + CLI, MOMENTS),
    ],
)
def test_each_layer_is_traced_where_it_runs(tmp_path, name, nonzero, zero):
    program = run.Program(run.ROOT)
    workload = WORKLOADS[name](program, run.ROOT, tmp_path)
    targets = find_targets()
    log = RunLog()
    with run.patched(log.replacements(targets)):
        workload.setup(5)
        log.take()
        metrics, _, attempted, failed, spans = run.measure_traced(
            workload, log, Tracer(targets), seed=5, seconds=0.0, min_pairs=2
        )
    assert attempted > 0 and failed == 0  # includes exact repeat of counts and traces
    assert set(metrics) == _declared("per_layer")  # what --trace 1 prints
    assert spans and metrics["tracing.overhead_ratio"] > 0
    for key in NONZERO_EVERYWHERE + nonzero:
        assert metrics[key] > 0, key
    for key in zero:
        assert metrics[key] == 0, key
