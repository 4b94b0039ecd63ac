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
    shortest_paths_with_parents,
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

    @property
    def edge_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((u, v) for u, v, _ in self.edges)

    def __repr__(self) -> str:
        return f"SteinerTree(cost={self.cost:g}, |E|={len(self.edges)})"


class TreeVerificationError(ValueError):
    pass


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
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in triples:
        ru, rv = find(u), find(v)
        if ru == rv:
            raise TreeVerificationError(f"cycle found when adding edge ({u},{v})")
        parent[ru] = rv
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
    kept = []
    for u, v, w in tree.edges:
        if u in adj and v in adj[u]:
            kept.append((u, v, w))
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

    dists, parents = {}, {}
    for t in terms:
        dists[t], parents[t] = shortest_paths_with_parents(instance.graph, t)
    closure = []
    for i, a in enumerate(terms):
        for b in terms[i + 1:]:
            d = dists[a][b]
            if not np.isfinite(d):
                raise ValueError(f"terminals {a} and {b} are not mutually reachable")
            closure.append((d, a, b))

    closure_mst = _kruskal(closure)

    sub_edges: set[tuple[int, int, float]] = set()
    for a, b in closure_mst:
        path = reconstruct_path(parents[a], a, b)
        for u, v in zip(path, path[1:]):
            uu, vv = (u, v) if u < v else (v, u)
            sub_edges.add((uu, vv, instance.graph.weight(uu, vv)))

    sub_mst = _kruskal([(w, u, v) for u, v, w in sub_edges])
    tree = verify_tree(instance, sub_mst)
    return prune(tree, instance.terminals)


def _kruskal(weighted_edges) -> list[tuple[int, int]]:
    """MST edge pairs via Kruskal over (weight, u, v)-sorted candidates."""
    parent: dict[int, int] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    picked = []
    for w, u, v in sorted(weighted_edges):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            picked.append((u, v))
    return picked


def dreyfus_wagner(instance: StpInstance, max_terminals: int = DW_TERMINAL_CAP) -> SteinerTree:
    """Exact minimum Steiner tree via the terminal-subset dynamic program.

    State: dp[mask][v] = cheapest tree spanning {v} and the terminals in
    ``mask`` (bitmask over all terminals except a fixed root).  Each mask
    is solved by merging two sub-splits at a common vertex, then relaxing
    through the all-pairs shortest-path metric.  O(3^t n + 2^t n^2) time,
    exponential only in the terminal count, hence the cap.

    Masks are solved one popcount level at a time, since a mask depends
    only on smaller ones.  Each level builds one table of its splits
    (``_dw_halves``), merges the whole level in rectangles of that table,
    then relaxes it in blocks of masks.  Every rectangle and block holds at
    most ``_DW_BLOCK_ELEMENTS`` elements (the merge gathers and the
    relaxation sums reuse two buffers of that size); past the ``(2^t, n)``
    tables and the ``n x n`` metric, the largest arrays are one level's
    split table and merge result.  The tables keep 12 bytes per entry: the
    cost and the relaxation's source vertex.  The merge keeps only its
    minimum; reconstruction recomputes the split at each vertex it visits
    (see ``_dw_split``).  Ties resolve as a scalar loop would: the first
    split in descending submask order and the lowest relaxation vertex win.
    """
    terms = instance.terminal_list
    if len(terms) > max_terminals:
        raise ValueError(
            f"{len(terms)} terminals exceed the exact-solver cap of {max_terminals}"
        )
    if len(terms) == 1:
        return verify_tree(instance, ())

    g = instance.graph
    n = g.vertex_count
    dist, parents = all_pairs_shortest_paths(g)
    for t in terms[1:]:
        if not np.isfinite(dist[terms[0], t]):
            raise ValueError(f"terminals {terms[0]} and {t} are not mutually reachable")

    root = terms[0]
    others = terms[1:]
    t = len(others)
    full = (1 << t) - 1

    dp = np.full((1 << t, n), np.inf)
    # grow_u[mask][v]: vertex the final metric relaxation came from
    grow_u = np.full((1 << t, n), -1, dtype=np.int32)
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
            masks = level[a:a + per_relax]
            dp[masks], grow_u[masks] = _dw_relax(tmp[a:a + per_relax], dist_t, scratch[0])

    edges: set[tuple[int, int, float]] = set()

    def add_path(src: int, dst: int) -> None:
        path = reconstruct_path(parents[src], src, dst)
        for u, v in zip(path, path[1:]):
            uu, vv = (u, v) if u < v else (v, u)
            edges.add((uu, vv, g.weight(uu, vv)))

    stack = [(full, root)]
    while stack:
        mask, v = stack.pop()
        if mask & (mask - 1) == 0:
            add_path(others[mask.bit_length() - 1], v)
            continue
        u = int(grow_u[mask][v])
        add_path(u, v)
        sub = _dw_split(dp, mask, u)
        stack.append((sub, u))
        stack.append((mask ^ sub, u))

    tree = verify_tree(instance, edges)
    tree = prune(tree, instance.terminals)
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
    pairs a tree uses (``_dw_split``).  The table is gathered in rectangles
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


def _dw_split(dp: np.ndarray, mask: int, u: int) -> int:
    """The half of ``mask`` holding its lowest bit that the merge at vertex
    ``u`` took: the first cheapest ``dp[sub][u] + dp[mask ^ sub][u]`` in
    descending submask order, the order a scalar submask loop visits."""
    subs = _dw_halves(np.array([mask]), mask.bit_count())[::-1, 0]
    return int(subs[(dp[subs, u] + dp[mask ^ subs, u]).argmin()])


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


def _dw_relax(tmp: np.ndarray, dist_t: np.ndarray,
              scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """min over u of tmp[:, u] + dist[u, v] for every row of ``tmp`` and
    vertex v, with the lowest minimizing u; ``dist_t`` is dist transposed."""
    c, n = tmp.shape
    cost = np.empty((c, n))
    grow = np.empty((c, n), dtype=np.int32)
    chunk = max(1, _DW_BLOCK_ELEMENTS // (c * n))
    for b in range(0, n, chunk):
        part = dist_t[b:b + chunk]
        relax = np.add(tmp[:, None, :], part,
                       out=scratch[:c * part.size].reshape(c, *part.shape))
        at = relax.argmin(axis=2)
        grow[:, b:b + chunk] = at
        at += np.arange(0, relax.size, n).reshape(at.shape)  # flat indices
        cost[:, b:b + chunk] = np.take(relax, at)
    return cost, grow
