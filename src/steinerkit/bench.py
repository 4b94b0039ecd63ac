"""Benchmark harness: ratio metrics, per-instance rows, aggregate tables.

Three ratios, one per reference, all computed by ``cost_ratio``: Gain
divides by the classic baseline, R by the published/known optimum, B by a
reduction's YES-bound.  Rows carry wall times for orientation only;
nothing downstream keys on them, and emission can zero them out so
repeated runs byte-match.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from .graph import StpInstance
from .qnet import QNetParams
from .rl import active_search, greedy_rollout
from .solvers import DW_TERMINAL_CAP, SteinerTree, dreyfus_wagner, kmb, verify_tree

METHODS = ("classic", "exact", "agent", "active")
REFERENCES = ("classic", "exact", "opt", "bound")


def cost_ratio(cost: float, reference: float) -> float:
    """Cost over a reference cost: Gain against the classic baseline (< 1
    beats it), R against a known optimum (1 means optimal), B against a
    reduction's YES-bound (<= 1 certifies YES).  Every ratio the package
    reports comes from here.  A reference of 0, which every solver reaches
    on a single-terminal instance, leaves the ratio undefined, so 0/0 is an
    error too."""
    if not reference > 0:
        raise ValueError(f"reference cost {reference:g} is not positive, "
                         f"so the cost ratio is undefined")
    return cost / reference


@dataclass(frozen=True)
class BenchRow:
    instance: str
    method: str
    cost: float
    reference: float
    ratio: float
    wall_time: float


@dataclass
class BenchReport:
    reference_kind: str
    rows: list[BenchRow]

    def methods(self) -> list[str]:
        seen = dict.fromkeys(r.method for r in self.rows)
        return list(seen)

    def mean_ratio(self, method: str) -> float:
        ratios = [r.ratio for r in self.rows if r.method == method]
        if not ratios:
            raise ValueError(f"no rows for method {method!r}")
        return float(np.mean(ratios))

    def aggregates(self) -> dict[str, float]:
        return {m: self.mean_ratio(m) for m in self.methods()}

    def to_dict(self, include_timing: bool = True) -> dict:
        rows = []
        for r in self.rows:
            d = asdict(r)
            if not include_timing:
                d["wall_time"] = 0.0
            rows.append(d)
        return {
            "reference": self.reference_kind,
            "rows": rows,
            "aggregates": self.aggregates(),
        }

    def write_json(self, path, include_timing: bool = True) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(include_timing), fh, indent=1)
            fh.write("\n")

    def write_csv(self, path, include_timing: bool = True) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["instance", "method", "cost", "reference", "ratio",
                        "wall_time"])
            for r in self.rows:
                w.writerow([r.instance, r.method, repr(r.cost),
                            repr(r.reference), repr(r.ratio),
                            repr(r.wall_time if include_timing else 0.0)])


def solve_with_method(instance: StpInstance, method: str,
                      params: QNetParams | None = None,
                      active_budget: int = 2000,
                      seed: int = 0) -> tuple[SteinerTree, float]:
    """Run one solver; returns the verified tree and elapsed wall seconds."""
    t0 = time.perf_counter()
    if method == "classic":
        tree = kmb(instance)
    elif method == "exact":
        tree = dreyfus_wagner(instance)
    elif method == "agent":
        if params is None:
            raise ValueError("method 'agent' needs trained parameters")
        tree = greedy_rollout(instance, params)
    elif method == "active":
        if params is None:
            raise ValueError("method 'active' needs trained parameters")
        tree, _ = active_search(instance, params, active_budget, seed=seed)
    else:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    wall = time.perf_counter() - t0
    tree = verify_tree(instance, tree.edges)
    return tree, wall


def reference_cost(instance: StpInstance, kind: str) -> float:
    if kind == "classic":
        return kmb(instance).cost
    if kind == "exact":
        return dreyfus_wagner(instance).cost
    if kind == "opt":
        if instance.known_opt is None:
            raise ValueError(f"instance {instance.name!r} has no known optimum")
        return float(instance.known_opt)
    if kind == "bound":
        if instance.bound is None:
            raise ValueError(f"instance {instance.name!r} has no bound")
        return float(instance.bound)
    raise ValueError(f"unknown reference {kind!r}; expected one of {REFERENCES}")


def _bench_one(args) -> list[BenchRow]:
    instance, methods, reference, params, active_budget, seed = args

    def solve(method):
        return solve_with_method(instance, method, params=params,
                                 active_budget=active_budget, seed=seed)

    # A reference that is also a method is priced by that method's run, made
    # first, where reference_cost would have run, so errors keep their order.
    runs = {}
    if reference in methods:
        runs[reference] = solve(reference)
        ref = runs[reference][0].cost
    else:
        ref = reference_cost(instance, reference)
    rows = []
    for method in methods:
        tree, wall = runs[method] if method in runs else solve(method)
        try:
            ratio = cost_ratio(tree.cost, ref)
        except ValueError as exc:
            raise ValueError(f"instance {instance.id}: {exc}") from None
        rows.append(BenchRow(instance=instance.id, method=method,
                             cost=tree.cost, reference=ref,
                             ratio=ratio, wall_time=wall))
    return rows


def run_bench(instances, methods, reference: str = "classic",
              params: QNetParams | None = None, active_budget: int = 2000,
              seed: int = 0, workers: int = 1) -> BenchReport:
    """Benchmark every method on every instance against one reference.

    ``workers`` > 1 fans instances out over processes; row order is by
    instance then method either way, so reports don't depend on scheduling.
    Instances over the exact solver's terminal cap are rejected up front,
    all in one error, before any solver runs.
    """
    instances = list(instances)
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; expected one of {METHODS}")
    if "exact" in methods or reference == "exact":
        over = [f"{inst.id} ({len(inst.terminals)} terminals)" for inst in instances
                if len(inst.terminals) > DW_TERMINAL_CAP]
        if over:
            raise ValueError(f"instances exceed the exact-solver cap of "
                             f"{DW_TERMINAL_CAP} terminals: {', '.join(over)}")
    jobs = [(inst, tuple(methods), reference, params, active_budget, seed + i)
            for i, inst in enumerate(instances)]
    rows: list[BenchRow] = []
    if workers > 1:
        # imported here: it costs every `import steinerkit` otherwise
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for chunk in pool.map(_bench_one, jobs):
                rows.extend(chunk)
    else:
        for job in jobs:
            rows.extend(_bench_one(job))
    return BenchReport(reference_kind=reference, rows=rows)
