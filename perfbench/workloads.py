"""The four workloads: seeded inputs, one timed unit of work, output checks.

Every workload is a closed loop with one caller: the next unit starts when
the previous one has returned and been checked.  Inputs are made in
``setup`` from the workload seed only; the package sees nothing but those
inputs.  Checks run between units, outside the unit's timer, and any
unit that raises or fails a check counts as failed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import steinerkit.bench as bench
import steinerkit.generators as generators
import steinerkit.qnet as qnet
import steinerkit.reductions as reductions
import steinerkit.rl as rl
import steinerkit.solvers as solvers
import steinerkit.steinlib as steinlib
from steinerkit.graph import StpInstance

import reduction_oracles as oracles
from tracing import span

EPS = 1e-9

TRAIN_SPEC = "rr:n=30,m=0.2,w=1:5"
TRAIN_ROUNDS_PER_PASS = 50

# Trained once by the command in MANIFEST.json; checked by hash before use.
CHECKPOINT_DIR = Path(__file__).resolve().parent / "checkpoint"

# solve: held-out rr instances, two at the training size then one at
# n=100, so the median unit is an n=30 instance and the tail an n=100 one.
# Terminal counts are the generator's mean (0.2 n).  Seeds start far above
# the checkpoint's training and validation streams.  The pool holds
# SOLVE_BLOCKS_PER_SECOND blocks per second of run, about three times what
# the loop uses at this commit; a run that uses it up ends early rather
# than repeat an instance.
SOLVE_MIX = (("rr:n=30,w=1:5", 6),) * 2 + (("rr:n=100,w=1:5", 20),)
SOLVE_SEED_BASE = 10_000_000
SOLVE_BLOCKS_PER_SECOND = 16

# exact: generated er instances at n=100 alternate with SAT / MVC / X3C
# reductions (n of 15 to 21); (kind, terminal count) per position.  The
# two er11 positions hold the median unit.  The 13-terminal SAT
# reduction is the slowest input and fills three of the twelve positions,
# so the tail (ten units beyond it) falls inside that one class.
EXACT_PLAN = (("er", 10), ("sat", 10), ("er", 11), ("mvc", 11),
              ("er", 12), ("x3c", 10), ("er", 10), ("sat", 13),
              ("er", 11), ("sat", 13), ("er", 12), ("sat", 13))
EXACT_ER_SPEC = "er:n=100,w=1:5"
EXACT_CYCLES = 2

# classic: three generator models at n=300, 600 and 1000, as .stp text,
# (model, n) per position.  er at n=1000 is the slowest input and fills
# three of the eleven positions, so the tail falls inside that class and
# the median inside er at n=600.
CLASSIC_PLAN = (("rr", 300), ("er", 300), ("ws", 300),
                ("rr", 600), ("er", 600), ("ws", 600),
                ("rr", 1000), ("ws", 1000), ("er", 1000), ("er", 1000), ("er", 1000))
CLASSIC_TERMINAL_RATIO = 0.1


class CheckFailed(Exception):
    """A unit's output broke an invariant the benchmark checks."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Outcome:
    """What one pass of the closed loop did."""

    times: list[float] = field(default_factory=list)
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    gains: list[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.times)

    def fail(self, unit, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"unit {unit}: {message}")


def closed_loop(items, unit, verify, stop, tracer, stride: int, group) -> Outcome:
    """Run ``unit`` on each item until ``stop(units_done, elapsed)`` or the
    items run out; ``verify`` checks each result outside the timer.

    ``stop`` is asked only every ``stride`` units, so a run always holds
    whole cycles of a workload's input mix and its median and tail do not
    depend on where in the mix the clock ran out.  ``group(item)`` names
    the item's input class for the per-class self-time shares.
    """
    out = Outcome()
    start = time.perf_counter()
    for i, item in enumerate(items):
        if i % stride == 0 and stop(i, time.perf_counter() - start):
            break
        if tracer is not None:
            tracer.start_unit(i, group(item))
        t0 = time.perf_counter()
        try:
            result = unit(item)
            error = None
        except Exception:  # a raising unit is a failed unit; keep measuring
            result, error = None, traceback.format_exc(limit=3)
        out.times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end_unit()
        if error is not None:
            out.fail(i, error)
            continue
        try:
            verify(item, result, out)
        except (CheckFailed, ValueError) as exc:
            out.fail(i, f"{type(exc).__name__}: {exc}")
    return out


def with_terminals(spec: str, seed: int, count: int):
    """Generated instance from ``spec`` whose terminal set is replaced by
    ``count`` vertices drawn from the same seed.  A fixed terminal count
    keeps the work per instance, which grows with |T|, from swinging with
    the seed; generated graphs are connected, so any draw is valid."""
    inst = generators.generate(generators.parse_generator_spec(spec, seed=seed))
    rng = np.random.default_rng(np.random.SeedSequence([seed, count]))
    terminals = rng.choice(inst.graph.vertex_count, size=count, replace=False)
    return StpInstance(graph=inst.graph, terminals=frozenset(int(t) for t in terminals),
                       name=inst.name)


def _verify_tree_bounds(instance, tree, classic_cost: float) -> None:
    """tree is a valid Steiner tree and respects the KMB guarantee."""
    checked = solvers.verify_tree(instance, tree.edges)
    check(abs(checked.cost - tree.cost) < EPS, "tree cost disagrees with its edges")
    check(tree.cost <= classic_cost + EPS,
          f"exact cost {tree.cost} above classic {classic_cost}")
    check(classic_cost <= 2 * tree.cost + EPS,
          f"classic cost {classic_cost} above twice exact {tree.cost}")


class _StopTraining(Exception):
    pass


class Train:
    name = "train"

    def setup(self, seed: int, seconds: float):
        # The workload seed picks the instance stream only.  The learner
        # keeps the default config and its seed: the initial weights decide
        # how long early episodes run, and with them the work per round.
        base = generators.parse_generator_spec(TRAIN_SPEC, seed=100_000 * seed)
        return base, rl.DdqnConfig()

    def run(self, inputs, stop, tracer) -> Outcome:
        """train() with the default config, one round per unit, in passes
        of TRAIN_ROUNDS_PER_PASS rounds that each start a fresh learner on
        the next slice of the instance stream.

        Work per round changes as the learner improves, so a run that
        trained for as long as the clock allowed would time a different
        mix of rounds on a faster or slower machine; whole passes keep the
        mix fixed.
        """
        base, config = inputs
        out = Outcome()
        start = time.perf_counter()
        for first in itertools.count(0, TRAIN_ROUNDS_PER_PASS):
            if stop(len(out.times), time.perf_counter() - start):
                break
            self._one_pass(base, first, config, out, tracer)
        return out

    def _one_pass(self, base, first: int, config, out: Outcome, tracer) -> None:
        """Rounds are timed between calls of the train hook, which also
        checks that parameters stay finite and ends the pass by raising."""
        stream = (generators.generate(replace(base, seed=base.seed + first + i))
                  for i in itertools.count())
        clock = [time.perf_counter()]

        def hook(round_idx, params):
            now = time.perf_counter()
            if tracer is not None:
                tracer.end_unit()
            out.times.append(now - clock[0])
            if not all(np.all(np.isfinite(a)) for a in params.as_dict().values()):
                out.fail(first + round_idx, "non-finite parameters")
            if round_idx + 1 == TRAIN_ROUNDS_PER_PASS:
                raise _StopTraining
            if tracer is not None:
                tracer.start_unit(len(out.times))
            clock[0] = time.perf_counter()

        if tracer is not None:
            tracer.start_unit(len(out.times))
        try:
            rl.train(stream, config, validation_instances=None, train_hook=hook)
        except _StopTraining:
            pass
        except Exception:  # a crashed round is a failed unit; report it
            if tracer is not None and tracer.active:
                tracer.end_unit()
            out.times.append(time.perf_counter() - clock[0])
            out.fail(len(out.times) - 1, traceback.format_exc(limit=3))


def _load_checkpoint():
    manifest = json.loads((CHECKPOINT_DIR / "MANIFEST.json").read_text())
    path = CHECKPOINT_DIR / manifest["file"]
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    if digest != manifest["sha256"]:
        raise SystemExit(f"checkpoint {path.name} has sha256 {digest}, "
                         f"expected {manifest['sha256']}")
    params, _ = qnet.load_checkpoint(path)
    return params


class Solve:
    """Forward-only inference: a learner change should leave it unchanged.
    At n=30 per-step Python work is a large share; at n=100 the dense
    adjacency product in q_values dominates."""

    name = "solve"

    def setup(self, seed: int, seconds: float):
        params = _load_checkpoint()
        blocks = max(1, math.ceil(SOLVE_BLOCKS_PER_SECOND * seconds))
        first = SOLVE_SEED_BASE + 100_000 * seed
        instances = [with_terminals(spec, first + i, count)
                     for i, (spec, count) in enumerate(SOLVE_MIX * blocks)]
        return params, instances

    def run(self, inputs, stop, tracer) -> Outcome:
        params, instances = inputs

        def unit(inst):
            return bench.run_bench([inst], ["classic", "agent"],
                                   reference="classic", params=params)

        def verify(inst, report, out):
            classic, agent = report.rows
            check((classic.method, agent.method) == ("classic", "agent"), "row order")
            check(classic.cost == classic.reference, "classic row differs from reference")
            check(math.isfinite(agent.cost) and agent.cost > 0, f"agent cost {agent.cost}")
            # any Steiner tree costs at least OPT >= classic / 2
            check(agent.cost >= classic.reference / 2 - EPS,
                  f"agent cost {agent.cost} below half the classic cost")
            out.gains.append(agent.cost / classic.reference)

        # Instances are never repeated: a repeat would hit instance_static's cache.
        return closed_loop(instances, unit, verify, stop, tracer, len(SOLVE_MIX),
                           lambda inst: f"n={inst.graph.vertex_count}")


class Exact:
    name = "exact"

    def setup(self, seed: int, seconds: float):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
        items = []
        for i, (kind, terminals) in enumerate(EXACT_PLAN * EXACT_CYCLES):
            if kind == "er":
                items.append((kind, with_terminals(EXACT_ER_SPEC, 100_000 * seed + i, terminals)))
            else:
                items.append((kind, oracles.SOURCES[kind](terminals, rng)))
        return items

    def run(self, inputs, stop, tracer) -> Outcome:
        def unit(item):
            kind, payload = item
            if kind == "er":
                tree, _ = bench.solve_with_method(payload, "exact")
                return payload, tree, None
            # the `reduce --check` path
            red = getattr(reductions, f"reduce_{kind}")(*payload)
            steinlib.write_steinlib(red.instance)
            tree = solvers.dreyfus_wagner(red.instance)
            yes = tree.cost <= red.bound + EPS
            with span(tracer, "reductions.decode"):
                witness = red.decode_witness(tree)
            witness_ok = red.verify_witness(witness) if yes else None
            return red.instance, tree, (yes, witness_ok)

        def verify(item, result, out):
            kind, payload = item
            instance, tree, verdict = result
            _verify_tree_bounds(instance, tree, solvers.kmb(instance).cost)
            if verdict is not None:
                yes, witness_ok = verdict
                check(yes == oracles.VERDICTS[kind](*payload),
                      f"{kind} verdict {yes} disagrees with brute force")
                check(witness_ok in (None, True), f"{kind} YES witness rejected")

        # Dreyfus-Wagner keeps no cache, so cycling the inputs repeats work exactly.
        return closed_loop(itertools.cycle(inputs), unit, verify, stop, tracer,
                           len(EXACT_PLAN), lambda item: item[0])


class Classic:
    """The only workload where Dijkstra, kmb and .stp parsing do most of
    the work, at n=300 to 1000 and three sparsities."""

    name = "classic"

    def setup(self, seed: int, seconds: float):
        items = []
        for i, (model, n) in enumerate(CLASSIC_PLAN):
            inst = with_terminals(f"{model}:n={n},w=1:5", 100_000 * seed + i,
                                  round(CLASSIC_TERMINAL_RATIO * n))
            items.append((i, model, inst, steinlib.write_steinlib(inst)))
        return items

    def run(self, inputs, stop, tracer) -> Outcome:
        first_cost: dict[int, float] = {}

        def unit(item):
            text = item[3]
            inst = steinlib.parse_steinlib(text)
            return inst, bench.run_bench([inst], ["classic"], reference="classic")

        def verify(item, result, out):
            key, _, source, _ = item
            inst, report = result
            check(inst.graph == source.graph and inst.terminals == source.terminals,
                  "parsed instance differs from the one written")
            (row,) = report.rows
            check(row.cost == row.reference and row.cost > 0,
                  f"classic cost {row.cost} vs reference {row.reference}")
            # kmb is deterministic: the same text must give the same cost
            check(first_cost.setdefault(key, row.cost) == row.cost,
                  "classic cost changed between repeats")

        # Every unit parses fresh text into new objects, so repeats share no cache.
        return closed_loop(itertools.cycle(inputs), unit, verify, stop, tracer,
                           len(inputs), lambda item: item[1])


WORKLOADS = {w.name: w for w in (Train(), Solve(), Exact(), Classic())}
