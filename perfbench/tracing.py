"""Span tracer that instruments varalloc from outside the package.

Nothing under ``src/`` is edited.  While a ``Tracer`` is installed, every
public function and method the layer modules define is replaced, in every
layer namespace that binds it, by a wrapper that records one span (name,
start, end, parent, argument, error).  Names bound at import time
(``policies`` imports ``concentration`` and ``allocation`` functions by name,
``harness`` imports ``run_*``) are therefore wrapped where the caller looks
them up, and methods are wrapped on their class.  Leaving the context
restores every original attribute.

Spans stay in memory; ``layer_metrics`` reduces them to per-layer counts and
busy/self times, and the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from typing import NamedTuple

LAYERS = ("arms", "estimation", "concentration", "allocation", "policies", "harness", "cli")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    arg: int | None = None  # draws for pull, rows scanned for residual_variance
    error: str | None = None  # exception class name when the call raised


def _pulled(args, kwargs):
    return args[2] if len(args) > 2 else kwargs.get("m", 1)


def _rows(args, kwargs):
    return args[0].n


# Span argument recorded per wrapped name (all others record None).
_ARG_OF = {
    "arms.CanonicalEnv.pull": _pulled,
    "arms.ContextualEnv.pull": _pulled,
    "estimation.RidgeState.residual_variance": _rows,
}


def find_targets() -> dict[str, list[tuple[object, str]]]:
    """Span name -> every (owner, attribute) that binds that function or method.

    Functions and classes count when a layer module defines them under a
    public name; owners are the layer modules themselves and the classes.
    """
    modules = [importlib.import_module(f"varalloc.{layer}") for layer in LAYERS]
    names: dict[int, str] = {}
    targets: dict[str, list[tuple[object, str]]] = {}
    for layer, mod in zip(LAYERS, modules):
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                names[id(obj)] = f"{layer}.{attr}"
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        targets[f"{layer}.{attr}.{meth}"] = [(obj, meth)]
    for mod in modules:
        for attr, obj in vars(mod).items():
            name = names.get(id(obj))
            if name is not None:
                targets.setdefault(name, []).append((mod, attr))
    return targets


@contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class Tracer:
    """Collects spans from the wrappers it installs."""

    def __init__(self, targets: dict[str, list[tuple[object, str]]]):
        self.targets = targets
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        arg_of = _ARG_OF.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            arg = arg_of(args, kwargs) if arg_of else None
            error = None
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, arg, error)

        return traced

    @contextmanager
    def installed(self):
        """Record spans for the duration of the block; spans restart empty."""
        self.spans.clear()
        self._stack.clear()
        replacements = []
        for name, owners in self.targets.items():
            wrapped: dict[int, object] = {}  # one wrapper per distinct current value
            for owner, attr in owners:
                current = vars(owner)[attr]
                if id(current) not in wrapped:
                    wrapped[id(current)] = self.wrap(name, current)
                replacements.append((owner, attr, wrapped[id(current)]))
        with patched(replacements):
            yield self


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of `intervals`, clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        (s.end - s.start) - _covered(s.start, s.end, children.get(i, ()))
        for i, s in enumerate(spans)
    ]


class GroupStats(NamedTuple):
    calls: int  # entries into the group: spans with no ancestor in it
    busy_s: float  # summed duration of those entries
    self_s: float  # summed self time of every span in the group
    arg: int  # summed span arguments over entries
    errors: dict  # exception name -> entries that raised it


def group_stats(spans: list[Span], groups: dict[str, callable]) -> dict[str, GroupStats]:
    """Aggregate spans into named groups given by predicates on span names.

    A span nested (at any depth) inside another span of the same group adds
    only its self time, so calls and busy time are not counted twice.
    """
    selfs = self_times(spans)
    member: dict[str, frozenset] = {}
    for s in spans:
        if s.name not in member:
            member[s.name] = frozenset(g for g, pred in groups.items() if pred(s.name))
    # groups of each span's ancestors; parents precede their children
    above: list[frozenset] = []
    union: dict[tuple, frozenset] = {}
    acc = {g: [0, 0.0, 0.0, 0, {}] for g in groups}
    for i, s in enumerate(spans):
        if s.parent < 0:
            outer = frozenset()
        else:
            key = (above[s.parent], member[spans[s.parent].name])
            outer = union.get(key) or union.setdefault(key, key[0] | key[1])
        above.append(outer)
        for g in member[s.name]:
            a = acc[g]
            a[2] += selfs[i]
            if g in outer:
                continue
            a[0] += 1
            a[1] += s.end - s.start
            a[3] += s.arg or 0
            if s.error is not None:
                a[4][s.error] = a[4].get(s.error, 0) + 1
    return {g: GroupStats(*a) for g, a in acc.items()}


def _layer(layer):
    return lambda name: name.split(".", 1)[0] == layer


def _named(*names):
    return lambda name: name in names


GROUPS = {
    **{layer: _layer(layer) for layer in LAYERS},
    "pull": lambda name: name.startswith("arms.") and name.endswith(".pull"),
    "moments": _named("estimation.RunningMoments.update_many", "estimation.RunningMoments.update"),
    "ridge_update": _named("estimation.RidgeState.update_many", "estimation.RidgeState.update"),
    "ridge_solve": _named("estimation.RidgeState.estimate"),
    "residual": _named("estimation.RidgeState.residual_variance"),
    "csv_write": _named("harness.write_csv"),
    "csv_read": _named("harness.read_csv"),
}


def layer_metrics(spans: list[Span], runs: list) -> dict[str, float]:
    """Per-layer metrics for one traced block of policy runs.

    `runs` holds the (horizon, trace) of every policy run in the block.
    Times are seconds per policy run; counts are per run unless the name
    says otherwise.
    """
    g = group_stats(spans, GROUPS)
    n = len(runs)
    pull = g["pull"]
    return {
        "arms.pull_calls_per_run": pull.calls / n,
        "arms.draws_per_call": pull.arg / pull.calls if pull.calls else 0.0,
        "arms.busy_s": g["arms"].busy_s / n,
        "arms.ns_per_draw": 1e9 * pull.busy_s / pull.arg if pull.arg else 0.0,
        "estimation.moments_calls_per_run": g["moments"].calls / n,
        "estimation.moments_busy_s": g["moments"].busy_s / n,
        "estimation.ridge_update_busy_s": g["ridge_update"].busy_s / n,
        "estimation.ridge_solves_per_run": g["ridge_solve"].calls / n,
        "estimation.ridge_solve_busy_s": g["ridge_solve"].busy_s / n,
        "estimation.ridge_singular": g["ridge_solve"].errors.get("SingularSystemError", 0),
        "estimation.residual_calls_per_run": g["residual"].calls / n,
        "estimation.residual_rows_scanned_per_run": g["residual"].arg / n,
        "estimation.residual_busy_s": g["residual"].busy_s / n,
        "concentration.calls_per_run": g["concentration"].calls / n,
        "concentration.busy_s": g["concentration"].busy_s / n,
        "allocation.calls_per_run": g["allocation"].calls / n,
        "allocation.busy_s": g["allocation"].busy_s / n,
        "policies.busy_s": g["policies"].busy_s / n,
        "policies.self_s": g["policies"].self_s / n,
        "policies.segments_per_run": sum(len(t.pull_order) for _, t in runs) / n,
        "policies.phase1_share": sum(sum(t.phase1_ends) for _, t in runs) / sum(h for h, _ in runs),
        "policies.truncated_runs": sum(1 for _, t in runs if t.truncated),
        "policies.clamped_runs": sum(1 for _, t in runs if t.budget_clamped),
        "harness.busy_s": g["harness"].busy_s / n,
        "harness.self_s": g["harness"].self_s / n,
        "harness.csv_write_s": g["csv_write"].busy_s / n,
        "harness.csv_read_s": g["csv_read"].busy_s / n,
        "cli.self_s": g["cli"].self_s / n,
    }


# Metrics that are exact for a fixed seed; the others are timings.
COUNT_METRICS = (
    "arms.pull_calls_per_run",
    "arms.draws_per_call",
    "estimation.moments_calls_per_run",
    "estimation.ridge_solves_per_run",
    "estimation.ridge_singular",
    "estimation.residual_calls_per_run",
    "estimation.residual_rows_scanned_per_run",
    "concentration.calls_per_run",
    "allocation.calls_per_run",
    "policies.segments_per_run",
    "policies.phase1_share",
    "policies.truncated_runs",
    "policies.clamped_runs",
)
