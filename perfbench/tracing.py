"""Outside-in span tracing for the benchmark's traced run.

Nothing in ``steinerkit`` is edited.  For the traced run the benchmark
swaps the module-level names each layer is called through (for example
``steinerkit.rl.q_values`` or ``steinerkit.bench.kmb``) for wrappers that
open a span, call the original and close the span, and puts every name
back afterwards.  Spans stay in memory as ``[name, start, end, parent,
unit]`` rows and are written out once the run ends.  A span's self time
is its duration minus the time covered by its child spans.

Counters that only array shapes or arguments can give (floating-point
work of a forward pass, DW table sizes, distinct Dijkstra sources) are
gathered by per-layer hooks at the same boundaries and are labelled as
computed, not measured, in ``METRIC_NOTES``.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from math import comb

import steinerkit.bench as bench
import steinerkit.generators as generators
import steinerkit.graph as graph
import steinerkit.qnet as qnet
import steinerkit.reductions as reductions
import steinerkit.rl as rl
import steinerkit.solvers as solvers
import steinerkit.steinlib as steinlib

BYTES_PER_FLOAT = 8


class Tracer:
    """Span recorder: a stack of open spans plus per-name aggregates."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._child_s: list[float] = []
        self.unit = None
        self.active = False
        self.stats: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.unit_groups: dict = {}         # unit -> label of its input class
        self.dijkstra_keys: set = set()
        self.forward_calls = 0
        self.forward_flop = 0.0
        self.forward_bytes = 0.0
        self.dw_calls = 0
        self.dw_merges = 0
        self.dw_table_mb = 0.0
        self.parse_bytes = 0
        self.finished_episodes: list = []
        self.unit_count = 0

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self._child_s.append(0.0)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.unit])

    def end(self) -> None:
        end = time.perf_counter()
        span = self.spans[self._stack.pop()]
        child = self._child_s.pop()
        span[2] = end
        duration = end - span[1]
        agg = self.stats.setdefault(span[0], [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child
        if self._child_s:
            self._child_s[-1] += duration

    def start_unit(self, unit, group: str | None = None) -> None:
        """Open the root span of one unit of work; layer spans nest under it."""
        self.unit = unit
        if group is not None:
            self.unit_groups[unit] = group
        self.active = True
        self.begin("unit")

    def end_unit(self) -> None:
        self.end()
        self.active = False
        if self.unit != "setup":
            self.unit_count += 1

    def write(self, path) -> None:
        """Dump every span, one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def forward_cost(n: int, p: int, k: int) -> tuple[float, float]:
    """FLOPs and bytes of one dense forward pass over an n-vertex graph.

    Computed from the shapes in ``qnet.forward`` and the decoder in
    ``qnet.q_values``: one multiply-add counts as two FLOPs, and bytes
    count every input, parameter and intermediate array once.
    """
    macs = (n * 2 * p + n * k * p      # encoder
            + n * n * p + n * p         # neighbourhood difference
            + n * 2 * p * p + n * p * p  # processor MLP
            + p * p + n * p * p          # decoder pooled and candidate mixes
            + n * 2 * p)                 # readout
    floats = (n * k + 3 * n + n * n              # x, bits, degrees, adjacency
              + 5 * p * p + p * k + 6 * p        # parameters
              + 2 * n + 13 * n * p + n)          # intermediates and q
    return 2.0 * macs, float(BYTES_PER_FLOAT * floats)


def dw_cost(t: int, n: int) -> tuple[int, float]:
    """Merges and table megabytes of one Dreyfus-Wagner call.

    With r = t - 1 non-root terminals, a mask of popcount j >= 2 merges
    the 2^(j-1) - 1 splits that hold its lowest bit, one length-n vector
    each.  Tables are dp (float64) plus two int32 back-pointer arrays over
    2^r x n, and the n x n distance matrix.
    """
    r = max(t - 1, 0)
    merges = sum(comb(r, j) * (2 ** (j - 1) - 1) for j in range(2, r + 1))
    table_bytes = (2 ** r) * n * (8 + 4 + 4) + n * n * 8
    return merges, table_bytes / 1e6


def _on_forward(tracer: Tracer, args, result) -> None:
    params, inp = args[0], args[1]
    n, k = inp.x.shape
    flop, nbytes = forward_cost(n, params.p_dim, k)
    tracer.forward_calls += 1
    tracer.forward_flop += flop
    tracer.forward_bytes += nbytes


def _on_dijkstra(tracer: Tracer, args, result) -> None:
    g, source = args[0], args[1]
    tracer.dijkstra_keys.add((tracer.unit, id(g), int(source)))


def _on_dw(tracer: Tracer, args, result) -> None:
    instance = args[0]
    merges, table_mb = dw_cost(len(instance.terminals),
                               instance.graph.vertex_count)
    tracer.dw_calls += 1
    tracer.dw_merges += merges
    tracer.dw_table_mb = max(tracer.dw_table_mb, table_mb)


def _on_parse(tracer: Tracer, args, result) -> None:
    tracer.parse_bytes += len(args[0].encode())


def _on_step(tracer: Tracer, args, result) -> None:
    state = result[0]
    if state.done:
        tracer.finished_episodes.append((state.instance,
                                         tuple(state.chosen_edges)))


# (module or class, attribute, span name, counter hook run after the call)
SWAPS = [
    (rl, "q_values", "qnet.q_values", _on_forward),
    (rl, "grad", "qnet.grad", _on_forward),
    (rl, "sgd_step", "qnet.sgd_step", None),
    (rl, "add_grads", "qnet.add_grads", None),
    (qnet, "load_checkpoint", "qnet.load_checkpoint", None),
    (rl, "train_step", "rl.train_step", None),
    (rl, "ddqn_target", "rl.ddqn_target", None),
    (rl.ReplayBuffer, "sample", "rl.replay_sample", None),
    (rl, "instance_static", "rl.instance_static", None),
    (rl, "reset", "rl.reset", None),
    (rl, "step", "rl.step", _on_step),
    (rl, "select_action", "rl.select_action", None),
    (rl, "frontier_q_values", "rl.frontier_q_values", None),
    (bench, "greedy_rollout", "rl.greedy_rollout", None),
    (rl, "knn_features", "features.knn", None),
    (rl, "terminal_distance_matrix", "features.distance_table", None),
    (graph, "shortest_paths_with_parents", "graph.dijkstra", _on_dijkstra),
    (solvers, "shortest_paths_with_parents", "graph.dijkstra", _on_dijkstra),
    (solvers, "all_pairs_shortest_paths", "graph.apsp", None),
    (bench, "kmb", "solvers.kmb", None),
    (bench, "dreyfus_wagner", "solvers.dw", _on_dw),
    (solvers, "dreyfus_wagner", "solvers.dw", _on_dw),
    (solvers, "verify_tree", "solvers.verify_tree", None),
    (bench, "verify_tree", "solvers.verify_tree", None),
    (rl, "verify_tree", "solvers.verify_tree", None),
    (solvers, "prune", "solvers.prune", None),
    (rl, "prune", "solvers.prune", None),
    (steinlib, "parse_steinlib", "steinlib.parse", _on_parse),
    (steinlib, "write_steinlib", "steinlib.write", None),
    (generators, "generate", "generators.generate", None),
    (reductions, "reduce_sat", "reductions.reduce", None),
    (reductions, "reduce_mvc", "reductions.reduce", None),
    (reductions, "reduce_x3c", "reductions.reduce", None),
    (bench, "run_bench", "bench.run_bench", None),
]


def _wrap(tracer: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if hook is not None:
            hook(tracer, args, result)
        return result
    return traced


@contextmanager
def traced_layers(tracer: Tracer):
    """Swap every name in SWAPS for its wrapper; restore them on exit."""
    originals = []
    try:
        for owner, attr, name, hook in SWAPS:
            fn = getattr(owner, attr)
            originals.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tracer, name, fn, hook))
        yield tracer
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)


@contextmanager
def span(tracer: Tracer | None, name: str):
    """Span around a call the benchmark makes itself (e.g. a bound method)."""
    if tracer is None or not tracer.active:
        yield
        return
    tracer.begin(name)
    try:
        yield
    finally:
        tracer.end()


def _calls(tracer: Tracer, name: str) -> int:
    return tracer.stats.get(name, [0, 0.0, 0.0])[0]


def _self_s(tracer: Tracer, name: str) -> float:
    return tracer.stats.get(name, [0, 0.0, 0.0])[2]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Metric name -> (unit, how it is obtained).  "computed" marks numbers
# derived from array shapes or argument identity rather than timed.
METRIC_NOTES = {
    "qnet.forward.mflop": ("MFLOP", "computed: mean per forward pass from (n, P, K)"),
    "qnet.forward.mbytes": ("MB", "computed: mean per forward pass from (n, P, K)"),
    "solvers.dw.merges": ("count", "computed: mean per DW call from t"),
    "solvers.dw.table_mb": ("MB", "computed: largest DW table from (t, n)"),
    "graph.dijkstra.redundancy": ("ratio", "computed: calls / distinct (unit, graph, source)"),
    "solvers.kmb.calls_per_instance": ("ratio", "computed: kmb calls / units"),
    "rl.instance_static.hit_ratio": ("ratio", "computed: lru_cache hits / lookups"),
    "rl.step.kept_ratio": ("ratio", "computed: pruned-tree edges / steps of finished episodes"),
    "rl.episode_steps": ("count", "computed: step calls / episodes"),
}


def layer_metrics(tracer: Tracer, cache_before, cache_after) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    Layers a workload never enters report zero calls and zero time.
    ``cache_before``/``cache_after`` are ``rl.instance_static.cache_info()``
    snapshots taken around the traced units.
    """
    m: dict[str, tuple[float, str]] = {}

    def calls(metric, name):
        m[metric] = (_calls(tracer, name), "count")

    def self_s(metric, name):
        m[metric] = (_self_s(tracer, name), "s")

    m["units"] = (tracer.unit_count, "count")
    self_s("unit.self_s", "unit")

    calls("qnet.q_values.calls", "qnet.q_values")
    self_s("qnet.q_values.self_s", "qnet.q_values")
    calls("qnet.grad.calls", "qnet.grad")
    self_s("qnet.grad.self_s", "qnet.grad")
    self_s("qnet.sgd_step.self_s", "qnet.sgd_step")
    self_s("qnet.add_grads.self_s", "qnet.add_grads")
    self_s("qnet.load_checkpoint.self_s", "qnet.load_checkpoint")
    m["qnet.forward.calls"] = (tracer.forward_calls, "count")
    m["qnet.forward.mflop"] = (_ratio(tracer.forward_flop, tracer.forward_calls) / 1e6, "MFLOP")
    m["qnet.forward.mbytes"] = (_ratio(tracer.forward_bytes, tracer.forward_calls) / 1e6, "MB")

    calls("rl.train_step.calls", "rl.train_step")
    self_s("rl.train_step.self_s", "rl.train_step")
    self_s("rl.ddqn_target.self_s", "rl.ddqn_target")
    self_s("rl.replay_sample.self_s", "rl.replay_sample")
    calls("rl.instance_static.calls", "rl.instance_static")
    hits = cache_after.hits - cache_before.hits
    lookups = hits + cache_after.misses - cache_before.misses
    m["rl.instance_static.hits"] = (hits, "count")
    m["rl.instance_static.lookups"] = (lookups, "count")
    m["rl.instance_static.hit_ratio"] = (_ratio(hits, lookups), "ratio")
    calls("rl.reset.calls", "rl.reset")
    calls("rl.step.calls", "rl.step")
    self_s("rl.step.self_s", "rl.step")
    self_s("rl.select_action.self_s", "rl.select_action")
    self_s("rl.frontier_q_values.self_s", "rl.frontier_q_values")
    calls("rl.greedy_rollout.calls", "rl.greedy_rollout")
    m["rl.episode_steps"] = (_ratio(_calls(tracer, "rl.step"),
                                    _calls(tracer, "rl.reset")), "count")
    steps, kept = _kept_edges(tracer)
    m["rl.step.finished_steps"] = (steps, "count")
    m["rl.step.kept_edges"] = (kept, "count")
    m["rl.step.kept_ratio"] = (_ratio(kept, steps), "ratio")

    calls("features.knn.calls", "features.knn")
    self_s("features.knn.self_s", "features.knn")
    calls("features.distance_table.calls", "features.distance_table")
    self_s("features.distance_table.self_s", "features.distance_table")

    calls("graph.dijkstra.calls", "graph.dijkstra")
    self_s("graph.dijkstra.self_s", "graph.dijkstra")
    m["graph.dijkstra.distinct"] = (len(tracer.dijkstra_keys), "count")
    m["graph.dijkstra.redundancy"] = (_ratio(_calls(tracer, "graph.dijkstra"),
                                             len(tracer.dijkstra_keys)), "ratio")
    self_s("graph.apsp.self_s", "graph.apsp")

    calls("solvers.kmb.calls", "solvers.kmb")
    m["solvers.kmb.calls_per_instance"] = (_ratio(_calls(tracer, "solvers.kmb"),
                                                  tracer.unit_count), "ratio")
    self_s("solvers.kmb.self_s", "solvers.kmb")
    calls("solvers.dw.calls", "solvers.dw")
    self_s("solvers.dw.self_s", "solvers.dw")
    m["solvers.dw.merges"] = (_ratio(tracer.dw_merges, tracer.dw_calls), "count")
    m["solvers.dw.table_mb"] = (tracer.dw_table_mb, "MB")
    self_s("solvers.verify_tree.self_s", "solvers.verify_tree")
    self_s("solvers.prune.self_s", "solvers.prune")

    self_s("steinlib.parse.self_s", "steinlib.parse")
    m["steinlib.parse.mb"] = (tracer.parse_bytes / 1e6, "MB")
    self_s("steinlib.write.self_s", "steinlib.write")

    calls("generators.generate.calls", "generators.generate")
    self_s("generators.generate.self_s", "generators.generate")

    self_s("reductions.reduce.self_s", "reductions.reduce")
    self_s("reductions.decode.self_s", "reductions.decode")

    calls("bench.run_bench.calls", "bench.run_bench")
    self_s("bench.run_bench.self_s", "bench.run_bench")
    return m


def _kept_edges(tracer: Tracer) -> tuple[int, int]:
    """Steps and pruned-tree edges over every episode that finished.

    Pruning runs here, after the traced units and outside any span, so
    the workloads that never prune (training) report the same ratio.
    """
    steps = kept = 0
    for instance, edges in tracer.finished_episodes:
        tree = solvers.prune(solvers.verify_tree(instance, edges), instance.terminals)
        steps += len(edges)
        kept += len(tree.edges)
    return steps, kept


def self_time_shares(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Share of traced unit time (set-up excluded) in each span's own code,
    over all units and per input class ("n=30", "er", ...)."""
    child_s = [0.0] * len(tracer.spans)
    for _, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            child_s[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for (name, start, end, _, unit), child in zip(tracer.spans, child_s):
        if unit == "setup":
            continue
        for group in {"all", tracer.unit_groups.get(unit, "all")}:
            by_name = totals.setdefault(group, {})
            by_name[name] = by_name.get(name, 0.0) + (end - start - child)
    shares = {}
    for group, by_name in totals.items():
        total = sum(by_name.values())
        shares[group] = {name: by_name[name] / total
                         for name in sorted(by_name, key=lambda n: -by_name[n])}
    return shares
