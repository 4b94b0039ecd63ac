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
from .solvers import (
    SteinerTree,
    cost_ratio,
    dreyfus_wagner,
    kmb,
    over_exact_cap,
    verify_tree,
)

METHODS = ("classic", "exact", "agent", "active")
PARAM_METHODS = ("agent", "active")  # the methods that need trained parameters
ACTIVE_BUDGET = 2000  # default active-search rounds
SOLVER_REFERENCES = ("classic", "exact")
REFERENCES = (*SOLVER_REFERENCES, "opt", "bound")


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

    def aggregates(self) -> dict[str, float]:
        """Mean ratio per method, methods in order of first appearance."""
        ratios: dict[str, list[float]] = {}
        for r in self.rows:
            ratios.setdefault(r.method, []).append(r.ratio)
        return {m: float(np.mean(rs)) for m, rs in ratios.items()}

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
                      active_budget: int = ACTIVE_BUDGET,
                      seed: int = 0) -> tuple[SteinerTree, float]:
    """Run one solver; returns the verified tree and elapsed wall seconds."""
    if method in PARAM_METHODS and params is None:
        raise ValueError(f"method {method!r} needs trained parameters")
    t0 = time.perf_counter()
    if method == "classic":
        tree = kmb(instance)
    elif method == "exact":
        tree = dreyfus_wagner(instance)
    elif method == "agent":
        tree = greedy_rollout(instance, params)
    elif method == "active":
        tree, _ = active_search(instance, params, active_budget, seed=seed)
    else:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    wall = time.perf_counter() - t0
    tree = verify_tree(instance, tree.edges)
    return tree, wall


def reference_cost(instance: StpInstance, kind: str) -> float:
    """The ``opt`` or ``bound`` reference, known before any solver runs; a
    ``classic`` or ``exact`` reference is priced by that solver's run."""
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

    # a solver reference is one verified run, made first, reused as its row
    runs = {}
    if reference in SOLVER_REFERENCES:
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
              params: QNetParams | None = None, active_budget: int = ACTIVE_BUDGET,
              seed: int = 0, workers: int = 1) -> BenchReport:
    """Benchmark every method on every instance against one reference.

    ``workers`` must be at least 1; more fan instances out over processes.
    Row order is by instance then method either way, so reports don't
    depend on scheduling.
    Instances over the exact solver's terminal cap, and instances whose
    reference cost is 0 so that no ratio is defined, are rejected up front,
    all in one error per cause, before any solver runs.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    instances = list(instances)
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; expected one of {METHODS}")
    if "exact" in methods or reference == "exact":
        over, cap = over_exact_cap(instances)
        if over:
            named = ", ".join(f"{inst.id} ({len(inst.terminals)} terminals)" for inst in over)
            raise ValueError(f"instances exceed the exact-solver cap of {cap} terminals: {named}")
    if reference in SOLVER_REFERENCES:  # positive weights: a tree costs 0 iff |T| = 1
        zero = [inst.id for inst in instances if len(inst.terminals) == 1]
    else:
        zero = [inst.id for inst in instances if not reference_cost(inst, reference) > 0]
    if zero:
        label = "instances" if len(zero) > 1 else "instance"
        raise ValueError(f"{label} {', '.join(zero)}: reference cost 0 is not positive, "
                         f"so the cost ratio is undefined")
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
