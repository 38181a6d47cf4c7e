"""varalloc benchmark: one workload per fresh process, end to end or traced.

    python3 perfbench/run.py --workload config-sweep --seed 1 --seconds 30 --trace 0

Run from a checkout.  The program is imported from the checkout's ``src/``
and nothing under it is changed.  With ``--trace 0`` the run reports the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it alternates
untraced and traced blocks of the same seeded work and reports the
per-layer metrics, including the tracing overhead.  The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics; the
lines before it give machine info, sample counts and failed_frac, and the
same record, spans included, is written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import COUNT_METRICS, Tracer, find_targets, layer_metrics, patched
from workloads import WORKLOADS, RunLog, run_unit, trace_record

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"
# A percentile is reported only with at least 10 samples beyond it.
MIN_RUNS_FOR_P90 = 100
# Setup is sampled in this many fresh processes besides the measuring one.
SETUP_PROBES = 6
MIN_TRACED_PAIRS = 3


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Program:
    """The varalloc modules the workloads call, imported from ROOT/src."""

    def __init__(self, root: Path):
        src = root / "src"
        if not (src / "varalloc" / "__init__.py").is_file():
            raise BenchError(f"no varalloc sources under {src}")
        sys.path.insert(0, str(src))
        import varalloc
        from varalloc import arms, cli, harness, policies

        if not Path(varalloc.__file__).resolve().is_relative_to(src.resolve()):
            raise BenchError(f"varalloc was imported from {varalloc.__file__}, not {src}")
        self.arms, self.cli, self.harness, self.policies = arms, cli, harness, policies


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print setup_s and exit")
    return parser.parse_args(argv)


def machine_info() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next(line.split(":", 1)[1].strip()
                         for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "platform": platform.platform(),
    }


def percentile(values, q: int) -> float:
    """The q-th percentile of `values` (q in 1..99)."""
    return statistics.quantiles(values, n=100)[q - 1]


def measure(workload, log, seed: int, seconds: float):
    """Closed-loop units until `seconds` pass, then a rerun of unit 0."""
    durations = []
    busy = rows = rounds = 0.0
    attempted = failed = 0
    reference = None
    start = time.perf_counter()
    index = 0
    while True:
        unit = run_unit(workload, log, seed, index)
        if index == 0:
            reference = [trace_record(t) for _, t, _ in unit.runs]
        attempted += unit.expected
        failed += unit.failed
        durations.extend(s for _, _, s in unit.runs)
        busy += unit.seconds
        rows += len(unit.runs)
        rounds += sum(t for t, _, _ in unit.runs)
        index += 1
        if time.perf_counter() - start >= seconds and len(durations) >= MIN_RUNS_FOR_P90:
            break
    elapsed = time.perf_counter() - start
    rerun = run_unit(workload, log, seed, 0)
    attempted += rerun.expected
    reproduced = [trace_record(t) for _, t, _ in rerun.runs] == reference
    if not reproduced:
        print("check failed: rerun of unit 0 did not reproduce its traces", file=sys.stderr)
    failed += rerun.failed if reproduced else rerun.expected
    metrics = {
        "rows_per_s": rows / busy,
        "rounds_per_s": rounds / busy,
        "run_ms_p50": 1e3 * percentile(durations, 50),
        "run_ms_p90": 1e3 * percentile(durations, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"units": index, "run_ms_samples": len(durations), "measured_s": elapsed,
               "rerun_reproduced": reproduced}
    return metrics, samples, attempted, failed


def measure_traced(workload, log, tracer, seed: int, seconds: float,
                   min_pairs: int = MIN_TRACED_PAIRS):
    """Alternate untraced and traced blocks of the same units until `seconds` pass.

    Every block repeats the same seeded units, so its counts must repeat
    exactly and its traces must equal those of the untraced block.
    """
    block = range(workload.block_units)
    plain_walls, traced_walls, timings = [], [], []
    counts = first_spans = None
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        plain = [run_unit(workload, log, seed, i) for i in block]
        with tracer.installed():
            traced = [run_unit(workload, log, seed, i) for i in block]
        spans = list(tracer.spans)
        for unit in plain + traced:
            attempted += unit.expected
            failed += unit.failed
        runs = [(t, trace) for unit in traced for t, trace, _ in unit.runs]
        metrics = layer_metrics(spans, runs)
        block_counts = {k: metrics[k] for k in COUNT_METRICS}
        same = [trace_record(t) for u in plain for _, t, _ in u.runs] == [
            trace_record(t) for _, t in runs
        ]
        if counts is None:
            counts, first_spans = block_counts, spans
        if not same or block_counts != counts:
            print("check failed: a traced block did not reproduce its traces and counts",
                  file=sys.stderr)
            failed += sum(u.expected for u in traced)
        plain_walls.append(sum(u.seconds for u in plain))
        traced_walls.append(sum(u.seconds for u in traced))
        timings.append(metrics)
        if time.perf_counter() - start >= seconds and len(timings) >= min_pairs:
            break
    result = {k: statistics.median(m[k] for m in timings) for k in timings[0]}
    result.update(counts)
    result["tracing.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(
        plain_walls
    )
    samples = {"block_pairs": len(timings), "policy_runs_per_block": len(runs),
                "spans_per_block": len(first_spans)}
    return result, samples, attempted, failed, first_spans


def setup_probes(args) -> list[float]:
    """setup_s of fresh processes that set up the same workload and exit."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"setup probe exited with {proc.returncode}: {proc.stderr[-2000:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def write_record(args, record: dict):
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)


def declared_units() -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def report(args, info, samples, metrics: dict, attempted: int, failed: int):
    units = declared_units()
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace}")
    print("# info " + json.dumps(info))
    print("# samples " + json.dumps(samples))
    for name, value in metrics.items():
        print(f"#   {name:<44} {value:.6g} {units[name]}")
    print(f"#   {'failed_frac':<44} {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def run(args, work_dir: Path) -> int:
    setup_start = time.perf_counter()
    program = Program(ROOT)
    work_dir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](program, ROOT, work_dir)
    targets = find_targets()
    log = RunLog()
    with patched(log.replacements(targets)):
        workload.setup(args.seed)
        setup_s = time.perf_counter() - setup_start
        log.take()  # warm-up runs are not measured
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            metrics, samples, attempted, failed, spans = measure_traced(
                workload, log, Tracer(targets), args.seed, args.seconds)
        else:
            measured, samples, attempted, failed = measure(workload, log, args.seed, args.seconds)
    info = machine_info()
    if args.trace:
        origin = spans[0].start if spans else 0.0
        record_spans = [[s.name, s.start - origin, s.end - origin, s.parent, s.arg, s.error]
                        for s in spans]
    else:
        setups = [setup_s] + setup_probes(args)
        samples["setup_samples"] = len(setups)
        metrics = {"setup_s": statistics.median(setups), **measured}
        record_spans = None
    samples.update(seed=args.seed, seconds=args.seconds, attempted=attempted, failed=failed)
    write_record(args, {"workload": args.workload, "trace": args.trace, "info": info,
                        "samples": samples, "metrics": metrics, "spans": record_spans})
    report(args, info, samples, metrics, attempted, failed)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    work_dir = STATE / f"work-{os.getpid()}"
    try:
        return run(args, work_dir)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
