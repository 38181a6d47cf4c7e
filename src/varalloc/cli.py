"""Command-line front end.

Subcommands:
  simulate <config>   run an experiment config, write per-trial CSV rows
  bounds <config>     evaluate the configured bound curve over the horizons,
                      and write it as CSV under --output
  oracle <profile>    exhaustive small-instance allocation check
  slopes <csv>        log-log rate estimation from a results CSV; names the
                      horizons it leaves out for a mean regret <= 0
  selftest            randomized structural-invariant battery

Exit codes: 0 success, 2 configuration error, 3 I/O error,
4 selftest/acceptance failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys
from dataclasses import replace

from .allocation import VarianceProfile, objective_rp, optimal_allocation
from .errors import VarallocError
from .harness import (
    config_bound,
    load_config,
    oracle_best_allocation,
    read_csv,
    run_experiment,
    slope_estimate,
    summarize,
    write_csv,
)
from .selftest import run_selftest

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_CHECK = 4


def _variances(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value
    return parse


# simulate's options, each overriding the ExperimentConfig field of its name
_OVERRIDES = {
    "trials": dict(type=int), "seed": dict(type=int), "horizons": dict(type=int, nargs="+"),
    "output": {}, "workers": dict(type=int), "bound": {},
}


def _load(args):
    """The config file with the subcommand's override options applied; the
    result is validated again."""
    given = {name: getattr(args, name, None) for name in _OVERRIDES}
    return replace(load_config(args.config), **{k: v for k, v in given.items() if v is not None})


def _cmd_simulate(args) -> int:
    cfg = _load(args)
    rows = run_experiment(cfg)
    if cfg.output:
        print(f"wrote {len(rows)} rows to {cfg.output}")
    for agg in summarize(rows):
        print(
            f"T={agg['T']:>8d}  mean regret {agg['mean_regret']:.6g}  "
            f"median {agg['median_regret']:.6g}  (n={agg['trials']})"
        )
    return EXIT_OK


def _cmd_bounds(args) -> int:
    cfg = _load(args)
    if not cfg.bound:
        raise VarallocError("config has no bound curve; set [experiment] bound =")
    variances = cfg.noise_variances if cfg.policy == "contextual" else cfg.variances
    if variances is None or isinstance(variances, str):
        raise VarallocError("bound curves need a fixed variance profile")
    rows = []
    for horizon in cfg.horizons:
        value = config_bound(cfg, variances, horizon)
        rows.append((cfg.name, cfg.bound, cfg.arm_count, cfg.p, horizon, value))
        print(f"T={horizon:>8d}  {cfg.bound} = {value:.6g}")
    if args.output:  # the config's own `output` names simulate's CSV
        write_csv(args.output, ("experiment", "bound_name", "K", "p", "T", "bound_value"), rows)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    variances, p = args.profile, args.p
    best = oracle_best_allocation(variances, p, args.T)  # checks the size limit first
    plan = optimal_allocation(VarianceProfile(variances), p, args.T)
    value_best = objective_rp(best, variances, p)
    value_plan = objective_rp(plan.counts, variances, p)
    print(f"exhaustive optimum : {best}  objective {value_best:.6g}")
    print(f"rounded closed form: {plan.counts}  objective {value_plan:.6g}")
    gap = (value_plan - value_best) / value_best
    print(f"relative gap       : {gap:.3%}")
    return EXIT_OK


def _cmd_slopes(args) -> int:
    rows = read_csv(args.csv)
    groups: dict[tuple, list] = {}
    for row in rows:
        groups.setdefault((row.experiment, row.policy, row.p), []).append(row)
    for (name, policy, p), grp in sorted(groups.items(), key=lambda kv: str(kv[0])):
        dropped = []
        slope = slope_estimate(grp, dropped)
        p_text = "inf" if math.isinf(p) else f"{p:g}"
        print(f"{name} [{policy}, p={p_text}]  slope {slope:+.3f}")
        if dropped:
            print(f"  dropped T={', '.join(map(str, dropped))}: mean regret <= 0")
    return EXIT_OK


def _cmd_selftest(args) -> int:
    def progress(done, total, bad):
        print(f"  {done}/{total} configs checked, {bad} failures", flush=True)

    digest = hashlib.sha256()
    failures = run_selftest(
        args.configs, args.seed, progress if args.verbose else None, digest
    )
    for line in failures[:50]:
        print(f"FAIL {line}")
    print(
        f"selftest: {len(failures)} failures over {args.configs} configs, "
        f"trace digest {digest.hexdigest()}"
    )
    return EXIT_CHECK if failures else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The subcommand parser, built once per process; every call returns the
    same object, so callers parse with it and do not modify it."""
    parser = argparse.ArgumentParser(
        prog="varalloc",
        description="Budget-allocation policies for multi-group mean estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run an experiment config")
    sim.add_argument("config")
    for name, kwargs in _OVERRIDES.items():
        sim.add_argument(f"--{name}", **kwargs)
    sim.set_defaults(func=_cmd_simulate)

    bounds = sub.add_parser("bounds", help="emit bound-curve values")
    bounds.add_argument("config")
    bounds.add_argument("--output", default=None)
    bounds.add_argument("--bound", default=None)
    bounds.set_defaults(func=_cmd_bounds)

    oracle = sub.add_parser("oracle", help="exhaustive small-instance check")
    oracle.add_argument("profile", type=_variances, help="comma-separated variances, e.g. 1,4")
    oracle.add_argument("--p", type=float, default="inf")
    oracle.add_argument("--T", type=int, default=30)
    oracle.set_defaults(func=_cmd_oracle)

    slopes = sub.add_parser("slopes", help="log-log rate estimation from CSV")
    slopes.add_argument("csv")
    slopes.set_defaults(func=_cmd_slopes)

    selftest = sub.add_parser("selftest", help="structural invariant battery")
    selftest.add_argument("--configs", type=_int_at_least(1), default=1000)
    selftest.add_argument("--seed", type=_int_at_least(0), default=2024)
    selftest.add_argument("--verbose", action="store_true")
    selftest.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except VarallocError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
