"""Steiner tree construction, verification, and baseline solvers.

Two reference solvers live here: the metric-closure / MST 2-approximation
(cost at most (2 - 2/t) times optimal, t the optimal tree's leaf count)
and the exact dynamic program over terminal subsets (exponential in the
terminal count only).  All tie-breaking is lexicographic so outputs are
deterministic and reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .graph import (
    StpInstance,
    all_pairs_shortest_paths,
    reconstruct_path,
    shortest_paths_with_parents,  # noqa: F401  (unused; perfbench's tracer swaps this name)
)

DW_TERMINAL_CAP = 14
# Element budget of each temporary array one merge rectangle or relaxation
# block of the Dreyfus-Wagner subset DP builds (merge candidates,
# relaxation sums).
_DW_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class SteinerTree:
    """A verified solution: tree edges with weights, total cost, covered vertices.

    ``edges`` are canonical ``(u, v, w)`` triples with ``u < v``, sorted.
    An empty edge tuple is the degenerate single-terminal solution.
    """

    edges: tuple[tuple[int, int, float], ...]
    cost: float
    vertices: frozenset[int]

    def __repr__(self) -> str:
        return f"SteinerTree(cost={self.cost:g}, |E|={len(self.edges)})"


class TreeVerificationError(ValueError):
    pass


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


def verify_tree(instance: StpInstance, edges) -> SteinerTree:
    """Check tree invariants and terminal coverage; reject anything else.

    Accepts ``(u, v)`` pairs or ``(u, v, w)`` triples; weights are taken
    from (and checked against) the instance graph.  The empty edge set is
    valid exactly for single-terminal instances.
    """
    g = instance.graph
    triples = []
    seen = set()
    for e in edges:
        if len(e) == 2:
            u, v = e
        else:
            u, v, _ = e
        u, v = (int(u), int(v)) if u < v else (int(v), int(u))
        if not g.has_edge(u, v):
            raise TreeVerificationError(f"edge ({u},{v}) is not a graph edge")
        if (u, v) in seen:
            raise TreeVerificationError(f"duplicate edge ({u},{v})")
        if len(e) == 3 and float(e[2]) != g.weight(u, v):
            raise TreeVerificationError(f"edge ({u},{v}) carries weight {e[2]}, graph has {g.weight(u, v)}")
        seen.add((u, v))
        triples.append((u, v, g.weight(u, v)))
    triples.sort()

    if not triples:
        if len(instance.terminals) != 1:
            raise TreeVerificationError("terminal uncovered: empty edge set with multiple terminals")
        return SteinerTree(edges=(), cost=0.0, vertices=frozenset(instance.terminals))

    vertices = {u for u, _, _ in triples} | {v for _, v, _ in triples}
    join = _union_find()
    for u, v, _ in triples:
        if not join(u, v):
            raise TreeVerificationError(f"cycle found when adding edge ({u},{v})")
    if len(triples) != len(vertices) - 1:
        raise TreeVerificationError("edge set is disconnected")
    uncovered = sorted(t for t in instance.terminals if t not in vertices)
    if uncovered:
        raise TreeVerificationError(f"terminal uncovered: {uncovered}")

    cost = float(sum(w for _, _, w in triples))
    return SteinerTree(edges=tuple(triples), cost=cost, vertices=frozenset(vertices))


def prune(tree: SteinerTree, terminals) -> SteinerTree:
    """Iteratively remove non-terminal leaves; never increases cost.

    The greedy episode construction and the approximation's final MST can
    both strand non-terminal leaves, which are pure waste.
    """
    terminals = set(terminals)
    adj: dict[int, dict[int, float]] = {}
    for u, v, w in tree.edges:
        adj.setdefault(u, {})[v] = w
        adj.setdefault(v, {})[u] = w
    queue = deque(sorted(v for v in adj if len(adj[v]) == 1 and v not in terminals))
    while queue:
        leaf = queue.popleft()
        if leaf not in adj or len(adj[leaf]) != 1:
            continue
        (nbr, _), = adj[leaf].items()
        del adj[leaf]
        del adj[nbr][leaf]
        if len(adj[nbr]) == 1 and nbr not in terminals:
            queue.append(nbr)
    kept = [(u, v, w) for u, v, w in tree.edges if u in adj and v in adj[u]]
    cost = float(sum(w for _, _, w in kept))
    vertices = frozenset(adj) if kept else frozenset(sorted(terminals)[:1])
    return SteinerTree(edges=tuple(sorted(kept)), cost=cost, vertices=vertices)


def kmb(instance: StpInstance) -> SteinerTree:
    """Metric-closure 2-approximation.

    Pipeline: pairwise terminal shortest paths, MST of that closure,
    expansion of closure edges back into graph paths, MST of the expanded
    subgraph, then leaf pruning.  MST ties break on
    (weight, lower endpoint, higher endpoint).
    """
    terms = instance.terminal_list
    if len(terms) == 1:
        return verify_tree(instance, ())

    # closure edges join terminal indices; they order as the terminals do
    dist, parent = instance.terminal_paths
    between = dist[:, terms].tolist()  # finite: StpInstance keeps T in one component
    closure = [(between[i][j], i, j) for i in range(len(terms)) for j in range(i + 1, len(terms))]

    closure_mst = _kruskal(closure)

    sub_edges = set().union(*(_path_edges(instance.graph, parent[i], terms[i], terms[j])
                              for i, j in closure_mst))

    sub_mst = _kruskal([(w, u, v) for u, v, w in sub_edges])
    tree = verify_tree(instance, sub_mst)
    return prune(tree, instance.terminals)


def _kruskal(weighted_edges) -> list[tuple[int, int]]:
    """MST edge pairs via Kruskal over (weight, u, v)-sorted candidates."""
    join = _union_find()
    return [(u, v) for _, u, v in sorted(weighted_edges) if join(u, v)]


def _union_find():
    """``join(u, v)`` over a fresh union-find: merges the sets of ``u`` and
    ``v`` and says whether they were apart (False means the pair closes a cycle)."""
    parent: dict[int, int] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def join(u, v) -> bool:
        ru, rv = find(u), find(v)
        parent[ru] = rv
        return ru != rv

    return join


def _path_edges(graph, parent, source: int, target: int) -> set[tuple[int, int, float]]:
    """Canonical ``(u, v, w)`` edges of the shortest path from ``source`` to
    ``target`` along the Dijkstra parent row ``parent`` of ``source``."""
    path = reconstruct_path(parent, source, target)
    return {(min(u, v), max(u, v), graph.weight(u, v)) for u, v in zip(path, path[1:])}


def over_exact_cap(instances) -> tuple[list[StpInstance], int]:
    """The instances over ``DW_TERMINAL_CAP`` terminals, and the cap, read at each call."""
    cap = DW_TERMINAL_CAP
    return [inst for inst in instances if len(inst.terminals) > cap], cap


def dreyfus_wagner(instance: StpInstance) -> SteinerTree:
    """Exact minimum Steiner tree via the terminal-subset dynamic program.

    State: dp[mask][v] = cheapest tree spanning {v} and the terminals in
    ``mask`` (bitmask over all terminals except a fixed root).  Each mask
    is solved by merging two sub-splits at a common vertex, then relaxing
    through the all-pairs shortest-path metric.  O(3^t n + 2^t n^2) time,
    exponential only in the terminal count, hence ``DW_TERMINAL_CAP``.

    Masks are solved one popcount level at a time, since a mask depends
    only on smaller ones.  Each level builds one table of its splits
    (``_dw_halves``), merges the whole level in rectangles of that table,
    then relaxes it in blocks of masks.  Every rectangle and block holds at
    most ``_DW_BLOCK_ELEMENTS`` elements (the merge gathers and the
    relaxation sums reuse two buffers of that size); past the ``(2^t, n)``
    table and the ``n x n`` metric, the largest arrays are one level's
    split table and merge result.  The table keeps 8 bytes per entry, the
    cost alone: reconstruction recovers the relaxation vertex and the
    split at each ``(mask, vertex)`` it visits (``_dw_backtrack``).  Ties
    resolve as a scalar loop would: the lowest relaxation vertex and the
    first split in descending submask order win.
    """
    over, cap = over_exact_cap([instance])
    if over:
        raise ValueError(f"{len(over[0].terminals)} terminals exceed the exact-solver cap of {cap}")
    terms = instance.terminal_list
    if len(terms) == 1:
        return verify_tree(instance, ())

    g = instance.graph
    n = g.vertex_count
    dist, parents = all_pairs_shortest_paths(g)  # finite between terminals: see StpInstance

    root = terms[0]
    others = terms[1:]
    t = len(others)
    full = (1 << t) - 1

    dp = np.full((1 << t, n), np.inf)
    for i, term in enumerate(others):
        dp[1 << i] = dist[term]

    dist_t = np.ascontiguousarray(dist.T)
    # gather and relaxation buffers, reused so rectangles and blocks fault
    # in no fresh pages; each needs at least one n-row
    scratch = np.empty((2, max(_DW_BLOCK_ELEMENTS, n)))
    every_mask = np.arange(1 << t)
    popcount = sum((every_mask >> i) & 1 for i in range(t))
    per_relax = max(1, _DW_BLOCK_ELEMENTS // (n * n))
    for k in range(2, t + 1):
        level = np.flatnonzero(popcount == k)
        tmp = _dw_merge(dp, level, _dw_halves(level, k), scratch)
        for a in range(0, len(level), per_relax):
            dp[level[a:a + per_relax]] = _dw_relax(tmp[a:a + per_relax], dist_t, scratch[0])

    edges: set[tuple[int, int, float]] = set()
    stack = [(full, root)]
    while stack:
        mask, v = stack.pop()
        if mask & (mask - 1) == 0:  # one terminal: dp holds its distance
            u = others[mask.bit_length() - 1]
        else:
            u, sub = _dw_backtrack(dp, dist_t, mask, v, scratch)
            stack += [(sub, u), (mask ^ sub, u)]
        edges |= _path_edges(g, parents[u], u, v)

    tree = prune(verify_tree(instance, edges), instance.terminals)
    if not abs(tree.cost - float(dp[full][root])) < 1e-9:
        raise RuntimeError(f"reconstruction cost mismatch: tree {tree.cost}, "
                           f"table {float(dp[full][root])}")
    return tree


def _dw_merge(dp: np.ndarray, masks: np.ndarray, halves: np.ndarray,
              scratch: np.ndarray) -> np.ndarray:
    """Cheapest merge of two disjoint halves at each vertex, for one level
    of masks with their ``_dw_halves`` table (inf where no merge is finite).

    Only the minimum is kept, so the order of the splits does not matter;
    which split attains it is recomputed for the few ``(mask, vertex)``
    pairs a tree uses (``_dw_backtrack``).  The table is gathered in rectangles
    of split rows by mask columns, split-major, ``(splits, masks, n)``, so
    each minimum is an elementwise fold over contiguous ``(masks, n)`` slabs.
    """
    (s, c), n = halves.shape, dp.shape[1]
    rest = masks ^ halves
    rows = min(s, max(1, _DW_BLOCK_ELEMENTS // n))
    cols = min(c, max(1, _DW_BLOCK_ELEMENTS // (rows * n)))
    tmp = np.empty((c, n))
    for b in range(0, c, cols):
        best = tmp[b:b + cols]
        for a in range(0, s, rows):
            subs = halves[a:a + rows, b:b + cols]
            # indices are in range; mode="clip" lets take fill `out` directly
            shape, size = subs.shape + (n,), subs.size * n
            cand = np.take(dp, subs, axis=0, mode="clip", out=scratch[0, :size].reshape(shape))
            cand += np.take(dp, rest[a:a + rows, b:b + cols], axis=0, mode="clip",
                            out=scratch[1, :size].reshape(shape))
            if a == 0:
                cand.min(axis=0, out=best)
            else:
                np.minimum(best, cand.min(axis=0), out=best)
    return tmp


def _dw_backtrack(dp: np.ndarray, dist_t: np.ndarray, mask: int, v: int,
                  scratch: np.ndarray) -> tuple[int, int]:
    """The relaxation vertex ``u`` and the split half (holding the lowest
    bit) that solved ``dp[mask][v]``.  Merging ``mask`` again alone gives
    the sums the relaxation minimised, so their first minimum is the lowest
    winning ``u``; the split is the first cheapest ``dp[sub][u] +
    dp[mask ^ sub][u]`` in descending submask order, as a scalar loop visits."""
    masks = np.array([mask])
    halves = _dw_halves(masks, mask.bit_count())
    merged = _dw_merge(dp, masks, halves, scratch)[0]
    u = int((merged + dist_t[v]).argmin())
    subs = halves[::-1, 0]
    return u, int(subs[(dp[subs, u] + dp[mask ^ subs, u]).argmin()])


def _dw_halves(masks: np.ndarray, k: int) -> np.ndarray:
    """``(2^(k-1) - 1, len(masks))`` table of the halves of each popcount-k
    mask (a column) that hold its lowest bit, the mask itself excluded, in
    ascending order.  Row ``i`` adds to the lowest bit the mask's other
    bits picked by the binary digits of ``i``, built by doubling."""
    halves = np.empty((1 << (k - 1), len(masks)), dtype=np.int64)
    rest = masks.copy()
    halves[0] = rest & -rest
    rest ^= halves[0]
    for j in range(k - 1):
        bit = rest & -rest
        rest ^= bit
        np.add(halves[:1 << j], bit, out=halves[1 << j:2 << j])
    return halves[:-1]  # the last row holds every bit: the mask itself


def _dw_relax(tmp: np.ndarray, dist_t: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """min over u of tmp[:, u] + dist[u, v] for every row of ``tmp`` and
    vertex v; ``dist_t`` is dist transposed."""
    c, n = tmp.shape
    cost = np.empty((c, n))
    chunk = max(1, _DW_BLOCK_ELEMENTS // (c * n))
    for b in range(0, n, chunk):
        part = dist_t[b:b + chunk]
        relax = np.add(tmp[:, None, :], part,
                       out=scratch[:c * part.size].reshape(c, *part.shape))
        # argmin and a flat take outrun min(axis=2) on these blocks
        at = relax.argmin(axis=2)
        at += np.arange(0, relax.size, n).reshape(at.shape)
        cost[:, b:b + chunk] = np.take(relax, at)
    return cost
