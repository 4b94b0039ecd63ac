"""Acceptance gate: nine checks that pin the toolkit's core guarantees.

Each test records one PASS/FAIL line (see conftest) before asserting, so
a red run still reports every criterion's standing and measured numbers.
"""

import itertools
import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import record_criterion
from oracles import (
    brute_force_min_cover,
    brute_force_sat,
    brute_force_steiner_cost,
    brute_force_x3c,
    finite_difference_grads,
    max_relative_error,
    random_instance,
)

from steinerkit.cli import main
from steinerkit.generators import GeneratorConfig, generate
from steinerkit.graph import StpInstance
from steinerkit.qnet import NetInput, grad, init_params
from steinerkit.reductions import reduce_mvc, reduce_sat, reduce_x3c
from steinerkit.rl import DdqnConfig, active_search, greedy_rollout, reset, step, train
from steinerkit.solvers import dreyfus_wagner, kmb, verify_tree
from steinerkit.steinlib import parse_steinlib_file

pytestmark = pytest.mark.acceptance

SEED = 7
TRAIN_BASE = GeneratorConfig(model="rr", n=30, terminal_ratio=0.2,
                             weight_range=(1.0, 5.0), seed=0)
VAL_OFFSET = 1_000_000
EVAL_OFFSET = 2_000_000


class Criterion:
    """Guarantees exactly one summary line per criterion, pass or fail, with
    the seconds spent inside the ``with`` block (shared fixtures excluded)."""

    def __init__(self, number, name):
        self.number = number
        self.name = name
        self.recorded = False

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None and not self.recorded:
            record_criterion(self.number, self.name, False,
                             f"unexpected {exc_type.__name__}: {exc}", self.seconds())
        return False

    def seconds(self):
        return time.perf_counter() - self.started

    def conclude(self, passed, detail=""):
        self.recorded = True
        record_criterion(self.number, self.name, passed, detail, self.seconds())
        assert passed, f"criterion {self.number} ({self.name}): {detail}"


def test_criterion_1_exact_matches_brute_force():
    with Criterion(1, "exact oracle vs brute force") as c:
        rng = np.random.default_rng(SEED)
        t0 = time.perf_counter()
        mismatches = 0
        for _ in range(500):
            inst = random_instance(rng, n_lo=4, n_hi=10, t_max=4, w_max=5)
            if dreyfus_wagner(inst).cost != brute_force_steiner_cost(inst):
                mismatches += 1
        elapsed = time.perf_counter() - t0
        c.conclude(mismatches == 0 and elapsed < 60.0,
                   f"{mismatches} mismatches over 500 instances, {elapsed:.1f}s")


def test_criterion_2_classic_approximation_guarantee():
    with Criterion(2, "classic 2-approximation bound") as c:
        rng = np.random.default_rng(SEED + 1)
        t0 = time.perf_counter()
        ratios = []
        violations = 0
        models = itertools.cycle(("er", "rr", "ws"))
        for i in range(200):
            n = int(rng.integers(10, 41))
            t = int(rng.integers(2, 11))
            drawn = generate(GeneratorConfig(
                model=next(models), n=n, terminal_ratio=t / n,
                weight_range=(1.0, 5.0), seed=int(rng.integers(1 << 30))))
            # pin |T| exactly at t <= 10 by subsampling the vertex set
            terminals = frozenset(int(v) for v in
                                  rng.choice(n, size=t, replace=False))
            inst = StpInstance(graph=drawn.graph, terminals=terminals)
            ratio = kmb(inst).cost / dreyfus_wagner(inst).cost
            ratios.append(ratio)
            if not 1.0 - 1e-9 <= ratio <= 2.0 + 1e-9:
                violations += 1
        elapsed = time.perf_counter() - t0
        mean = float(np.mean(ratios))
        c.conclude(violations == 0 and mean <= 1.3 and elapsed < 120.0,
                   f"mean ratio {mean:.4f}, worst {max(ratios):.4f}, "
                   f"{violations} outside [1,2], {elapsed:.1f}s")


def test_criterion_3_gradient_fidelity():
    with Criterion(3, "analytic vs finite-difference gradients") as c:
        rng = np.random.default_rng(SEED + 2)
        t0 = time.perf_counter()
        worst = 0.0
        for trial in range(100):
            p_dim = 2 if trial % 2 == 0 else 8
            params = init_params(p_dim, 2, seed=trial)
            inst = random_instance(rng, n_lo=4, n_hi=8, t_max=3)
            n = inst.graph.vertex_count
            adjacency = inst.graph.adjacency_matrix()
            inp = NetInput(x=rng.uniform(0, 1, size=(n, 2)),
                           s_bits=(rng.random(n) < 0.4).astype(float),
                           t_bits=(rng.random(n) < 0.4).astype(float),
                           adjacency=adjacency, degrees=adjacency.sum(axis=1))
            v = int(rng.integers(n))
            target = float(rng.normal())
            _, analytic = grad(params, inp, v, target)
            numeric = finite_difference_grads(params, inp, v, target)
            worst = max(worst, max_relative_error(analytic, numeric))
        elapsed = time.perf_counter() - t0
        c.conclude(worst <= 1e-4 and elapsed < 60.0,
                   f"max relative error {worst:.2e} over 100 fixtures, "
                   f"{elapsed:.1f}s")


def test_criterion_4_mdp_invariants():
    with Criterion(4, "episode tree/frontier invariants") as c:
        rng = np.random.default_rng(SEED + 3)
        failures = 0
        for episode in range(1000):
            inst = random_instance(rng, n_lo=4, n_hi=12, t_max=5,
                                   extra_edges=int(rng.integers(0, 8)))
            g = inst.graph
            state = reset(inst, rng=rng)
            steps = 0
            while not state.done:
                v = state.frontier[int(rng.integers(len(state.frontier)))]
                state, _ = step(state, v)
                steps += 1
                in_s = set(np.flatnonzero(state.in_tree).tolist())
                # frontier recomputed from scratch must agree
                oracle_frontier = {u for w in in_s
                                   for u, _ in g.neighbors(w)} - in_s
                # the new edge must be the cheapest attachment available
                a, b, w = state.chosen_edges[-1]
                prev = in_s - {v}
                cheapest = min(wt for u, wt in g.neighbors(v) if u in prev)
                ok = (state.frontier == tuple(sorted(oracle_frontier))
                      and len(state.chosen_edges) == len(in_s) - 1
                      and w == cheapest
                      and state.cost == pytest.approx(
                          sum(e[2] for e in state.chosen_edges)))
                if not ok or steps > g.vertex_count:
                    failures += 1
                    break
            tree_vertices = set(np.flatnonzero(state.in_tree).tolist())
            if not state.done or not inst.terminals <= tree_vertices:
                failures += 1
            elif len(inst.terminals) > 1:
                verify_tree(inst, state.chosen_edges)
        c.conclude(failures == 0, f"{failures} failures over 1000 episodes")


@pytest.fixture(scope="module")
def trained_setup():
    """Criterion-5 training run, shared by criteria 5, 6 and 7."""
    cfg = DdqnConfig(seed=SEED)
    stream = (generate(replace(TRAIN_BASE, seed=SEED + i))
              for i in itertools.count())
    validation = [generate(replace(TRAIN_BASE, seed=SEED + VAL_OFFSET + i))
                  for i in range(20)]
    t0 = time.perf_counter()
    params, _ = train(stream, cfg, validation_instances=validation)
    train_time = time.perf_counter() - t0
    untrained = init_params(cfg.p_dim, cfg.k,
                            np.random.SeedSequence(SEED).spawn(3)[0])
    return params, untrained, train_time


def _mean_gain(instances, params):
    gains = [greedy_rollout(inst, params).cost / kmb(inst).cost
             for inst in instances]
    return float(np.mean(gains))


@pytest.mark.slow
def test_criterion_5_training_efficacy(trained_setup):
    with Criterion(5, "trained Gain on held-out n=30") as c:
        params, untrained, train_time = trained_setup
        held_out = [generate(replace(TRAIN_BASE, seed=SEED + EVAL_OFFSET + i))
                    for i in range(200)]
        gain = _mean_gain(held_out, params)
        gain_untrained = _mean_gain(held_out, untrained)
        c.conclude(gain <= 1.10 and gain < gain_untrained
                   and train_time <= 7200.0,
                   f"trained {gain:.4f} (target <= 1.10), untrained "
                   f"{gain_untrained:.4f}, train {train_time:.0f}s")


@pytest.mark.slow
def test_criterion_6_generalization(trained_setup):
    with Criterion(6, "same params on n=50") as c:
        params, _, _ = trained_setup
        held_out = [generate(replace(TRAIN_BASE, n=50,
                                     seed=SEED + EVAL_OFFSET + i))
                    for i in range(200)]
        gain = _mean_gain(held_out, params)
        c.conclude(gain <= 1.15, f"gain {gain:.4f} (target <= 1.15)")


def _steinlib_file(name):
    candidates = []
    env = os.environ.get("STEINLIB_DIR")
    if env:
        candidates.append(Path(env) / name)
    candidates.append(Path(__file__).parent / "data" / "steinlib" / name)
    for cand in candidates:
        if cand.is_file():
            return cand
    return None


@pytest.mark.slow
def test_criterion_7_steinlib_b05(request):
    with Criterion(7, "active search on SteinLib b05") as c:
        path = _steinlib_file("b05.stp")
        if path is None:
            c.conclude(False, (
                "b05.stp not found: the SteinLib archive is not bundled and "
                "could not be fetched in this environment; place the file at "
                "tests/data/steinlib/b05.stp or set STEINLIB_DIR to run this "
                "criterion"))
        inst = parse_steinlib_file(path)
        params, _, _ = request.getfixturevalue("trained_setup")
        tree, _ = active_search(inst, params, budget_rounds=2000, seed=SEED)
        opt = inst.known_opt if inst.known_opt is not None else 61.0
        reached_62 = tree.cost <= 62.0 + 1e-9
        c.conclude(opt - 1e-9 <= tree.cost <= 64.0 + 1e-9,
                   f"cost {tree.cost:g} in [61, 64]; value 62 reached: "
                   f"{'yes' if reached_62 else 'no'}")


def test_criterion_8_reduction_soundness():
    with Criterion(8, "reduction YES-bound equivalences") as c:
        rng = np.random.default_rng(SEED + 4)
        failures = 0

        def check(red, source_yes):
            nonlocal failures
            tree = dreyfus_wagner(red.instance)
            meets = tree.cost <= red.bound + 1e-9
            if meets != source_yes:
                failures += 1
                return
            if meets:
                if not red.verify_witness(red.decode_witness(tree)):
                    failures += 1

        for _ in range(50):  # SAT, <= 4 variables
            n_vars = int(rng.integers(1, 5))
            clauses = []
            for _ in range(int(rng.integers(1, 5))):
                size = int(rng.integers(1, min(4, n_vars) + 1))
                vs = rng.choice(n_vars, size=size, replace=False) + 1
                clauses.append([int(v) if rng.random() < 0.5 else -int(v)
                                for v in vs])
            red = reduce_sat(n_vars, clauses)
            check(red, brute_force_sat(n_vars, clauses) is not None)

        for _ in range(25):  # MVC
            n = int(rng.integers(3, 6))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            m = int(rng.integers(2, min(8, len(pairs)) + 1))
            idx = rng.choice(len(pairs), size=m, replace=False)
            edges = [pairs[i] for i in sorted(idx)]
            k = int(rng.integers(0, n + 1))
            red = reduce_mvc(n, edges, k)
            check(red, brute_force_min_cover(n, edges, k) is not None)

        for _ in range(25):  # X3C
            n_el = 3 * int(rng.integers(1, 3))
            triples = sorted({tuple(sorted(int(v) for v in
                                           rng.choice(n_el, 3, replace=False)))
                              for _ in range(int(rng.integers(1, 6)))})
            red = reduce_x3c(n_el, triples)
            check(red, brute_force_x3c(n_el, triples) is not None)

        c.conclude(failures == 0,
                   f"{failures} failures over 50 SAT + 50 MVC/X3C instances")


def test_criterion_9_determinism(tmp_path):
    with Criterion(9, "repeat runs byte-identical") as c:
        spec = "er:n=8,m=0.4,w=1:4"
        train_flags = ["--rounds", "8", "--p-dim", "2", "--batch", "4",
                       "--validation", "2", "--seed", "11"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["train", spec, *train_flags, "--out", str(a)]) == 0
        assert main(["train", spec, *train_flags, "--out", str(b)]) == 0
        ckpt_same = (tmp_path / "a.ckpt.json").read_bytes() == \
                    (tmp_path / "b.ckpt.json").read_bytes()
        curve_same = (tmp_path / "a.curve.csv").read_bytes() == \
                     (tmp_path / "b.curve.csv").read_bytes()

        bench_flags = ["bench", spec, "--methods", "classic,exact,agent",
                       "--checkpoint", str(tmp_path / "a.ckpt.json"),
                       "--trials", "4", "--seed", "11", "--no-timing"]
        x, y = tmp_path / "x", tmp_path / "y"
        assert main([*bench_flags, "--out", str(x)]) == 0
        assert main([*bench_flags, "--out", str(y)]) == 0
        bench_same = all(
            (tmp_path / f"x{ext}").read_bytes() ==
            (tmp_path / f"y{ext}").read_bytes()
            for ext in (".csv", ".json"))
        c.conclude(ckpt_same and curve_same and bench_same,
                   f"checkpoints identical: {ckpt_same}, curves: {curve_same}, "
                   f"bench reports: {bench_same}")
