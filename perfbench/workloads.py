"""The benchmark's workloads, the policy-run timer and the output checks.

Every workload is closed loop with one caller and runs serially: the next
policy run starts when the previous one returns.  Work is grouped in units
(one call per config into ``varalloc.cli.main``, or a few direct policy
runs), and every input of unit ``i`` is derived from the workload seed and
``i`` alone, so a unit can be rerun and must reproduce its traces exactly.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import hashlib
import io
import math
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

POLICY_ENTRIES = ("run_nonadaptive", "run_adaptive", "run_contextual")


def derive_seed(seed: int, *keys) -> int:
    """A 32-bit seed fixed by the workload seed and `keys`."""
    digest = hashlib.sha256(repr((seed,) + keys).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def check_run(horizon: int, trace) -> list[str]:
    """Invariants every policy run must satisfy, whatever its random stream."""
    problems = []
    if sum(trace.counts) != horizon:
        problems.append(f"counts sum to {sum(trace.counts)}, not T={horizon}")
    if min(trace.counts) < 2:
        problems.append(f"an arm has fewer than 2 pulls: {trace.counts}")
    regret, optimal = trace.realized_regret, trace.optimal_objective
    if regret is None or optimal is None or not math.isfinite(regret):
        problems.append(f"regret is not finite: {regret}")
    elif regret < -1e-9 * optimal:
        problems.append(f"regret {regret} is below -1e-9 * optimal ({optimal})")
    return problems


class RunLog:
    """Times each policy-entry call with perf_counter and keeps its trace."""

    def __init__(self):
        self.runs: list[tuple[int, object, float]] = []  # (T, trace, seconds)

    def wrap(self, fn):
        runs = self.runs

        @functools.wraps(fn)
        def timed(cfg, *args, **kwargs):
            start = time.perf_counter()
            trace = fn(cfg, *args, **kwargs)
            runs.append((cfg.horizon, trace, time.perf_counter() - start))
            return trace

        return timed

    def replacements(self, targets):
        """Wrap the policy entry points in every namespace that binds them."""
        out = []
        for name in POLICY_ENTRIES:
            owners = targets[f"policies.{name}"]
            timed = self.wrap(vars(owners[0][0])[owners[0][1]])
            out.extend((owner, attr, timed) for owner, attr in owners)
        return out

    def take(self):
        runs = list(self.runs)
        self.runs.clear()
        return runs


class Unit(NamedTuple):
    seconds: float  # wall time of the program calls, checks excluded
    runs: list  # (T, trace, seconds) per policy run
    expected: int  # policy runs the unit should have made
    failed: int  # policy runs that failed a check or never returned


def run_unit(workload, log: RunLog, seed: int, index: int) -> Unit:
    """Run and check one unit; any failed unit-level check fails all its runs."""
    problems = []
    start = time.perf_counter()
    try:
        outputs = workload.work(seed, index)
    except Exception:  # a crashing program is a failed unit, not a crashed benchmark
        traceback.print_exc()
        outputs, problems = None, ["raised"]
    seconds = time.perf_counter() - start
    runs = log.take()
    if outputs is not None:
        problems += workload.check(outputs, runs)
    if len(runs) != workload.expected_runs:
        problems.append(f"{len(runs)} policy runs, expected {workload.expected_runs}")
    run_problems = [check_run(t, trace) for t, trace, _ in runs]
    for p in (problems + [p for ps in run_problems for p in ps])[:5]:
        print(f"check failed (unit {index}): {p}", file=sys.stderr)
    failed = workload.expected_runs if problems else sum(1 for ps in run_problems if ps)
    return Unit(seconds, runs, workload.expected_runs, failed)


def trace_record(trace) -> tuple:
    """Everything a policy run returns, for exact reproduction checks."""
    return dataclasses.astuple(trace)


class Sweep:
    """Experiment configs driven through the CLI: `simulate`, then `slopes`."""

    def __init__(self, program, configs: list[Path], trials: int, out_dir: Path, block_units: int):
        self.program = program
        self.configs = configs
        self.trials = trials
        self.out_dir = out_dir
        self.block_units = block_units
        self.horizons: list[tuple[int, ...]] = []

    @property
    def expected_runs(self) -> int:
        return sum(len(h) for h in self.horizons) * self.trials

    def _cli(self, argv) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.program.cli.main(argv)
        return code, buf.getvalue()

    def _simulate(self, config: Path, seed: int, trials: int, extra=()) -> tuple[int, Path]:
        out = self.out_dir / f"{config.stem}.csv"
        argv = ["simulate", str(config), "--trials", str(trials), "--seed", str(seed),
                "--output", str(out), "--workers", "1", *extra]
        return self._cli(argv)[0], out

    def setup(self, seed: int):
        """Parse every config, then one warm-up run per config at its smallest T."""
        self.horizons = [self.program.harness.load_config(str(c)).horizons for c in self.configs]
        for j, (config, grid) in enumerate(zip(self.configs, self.horizons)):
            code, _ = self._simulate(
                config, derive_seed(seed, "warm-up", j), 1, ("--horizons", str(grid[0]))
            )
            if code != 0:
                raise RuntimeError(f"warm-up simulate of {config.name} exited with {code}")

    def work(self, seed: int, index: int):
        outputs = []
        for j, config in enumerate(self.configs):
            code, out = self._simulate(config, derive_seed(seed, index, j), self.trials)
            slopes = None
            if code == 0 and len(self.horizons[j]) >= 4:  # slopes needs 4 horizons
                slopes = self._cli(["slopes", str(out)])
            outputs.append((code, out, slopes))
        return outputs

    def check(self, outputs, runs) -> list[str]:
        problems, pos = [], 0
        for (code, out, slopes), config, grid in zip(outputs, self.configs, self.horizons):
            n = len(grid) * self.trials
            mine, pos = runs[pos : pos + n], pos + n
            if code != 0:
                problems.append(f"simulate {config.name} exited with {code}")
                continue
            if slopes is not None and (slopes[0] != 0 or "slope" not in slopes[1]):
                problems.append(f"slopes on {config.name} exited with {slopes[0]}")
            with open(out, newline="", encoding="utf-8") as handle:
                rows = list(csv.DictReader(handle))
            if len(rows) != n or len(mine) != n:
                problems.append(f"{config.name}: {len(rows)} CSV rows, {len(mine)} runs, want {n}")
                continue
            for row, (t, trace, _) in zip(rows, mine):
                if int(row["T"]) != t or float(row["regret"]) != trace.realized_regret:
                    problems.append(f"{config.name}: CSV row {row['T']}/{row['trial']} != trace")
                    break
        return problems


class LongHorizon:
    """Direct `run_adaptive` calls: SSG, p = inf, four Gaussian arms, T = 1e6."""

    HORIZON = 1_000_000
    VARIANCES = (1.0, 1.5, 2.0, 2.5)
    RUNS_PER_UNIT = 4
    expected_runs = RUNS_PER_UNIT
    block_units = 2

    def __init__(self, program):
        self.program = program

    def _config(self, seed: int):
        v = self.program
        return v.policies.PolicyConfig(
            horizon=self.HORIZON,
            p=math.inf,
            regime=v.arms.NoiseRegime(v.arms.Regime.SSG, None),
            arms=tuple(v.arms.gaussian_arm(0.0, var) for var in self.VARIANCES),
            seed=seed,
        )

    def setup(self, seed: int):
        self.program.policies.run_adaptive(self._config(derive_seed(seed, "warm-up")))

    def work(self, seed: int, index: int):
        for j in range(self.RUNS_PER_UNIT):
            self.program.policies.run_adaptive(self._config(derive_seed(seed, index, j)))
        return ()

    def check(self, outputs, runs) -> list[str]:
        return []


# name -> factory(program, checkout root, scratch directory); BENCHMARK.json
# says why each workload is there.
WORKLOADS = {
    "config-sweep": lambda program, root, out: Sweep(
        program,
        [root / "configs" / f"{name}.ini" for name in (
            "gaussian_k4_gsg", "gaussian_k4_adaptive_ssg", "beta_k4_ssg",
            "rademacher_gaussian_ssg")],
        trials=4, out_dir=out, block_units=1,
    ),
    "long-horizon": lambda program, root, out: LongHorizon(program),
    "contextual": lambda program, root, out: Sweep(
        program, [root / "configs" / "contextual_k5_ssg.ini"],
        trials=4, out_dir=out, block_units=2,
    ),
}
