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
    # split_sub[mask][v]: canonical half of the merge applied at that vertex
    grow_u = np.full((1 << t, n), -1, dtype=np.int32)
    split_sub = np.zeros((1 << t, n), dtype=np.int32)
    for i, term in enumerate(others):
        dp[1 << i] = dist[term]

    for mask in range(1, full + 1):
        if mask & (mask - 1) == 0:
            continue  # single-terminal base case set above
        low = mask & -mask
        tmp = np.full(n, np.inf)
        choice = np.zeros(n, dtype=np.int32)
        sub = (mask - 1) & mask
        while sub:
            if sub & low:
                cand = dp[sub] + dp[mask ^ sub]
                better = cand < tmp
                tmp[better] = cand[better]
                choice[better] = sub
            sub = (sub - 1) & mask
        relax = tmp[:, None] + dist
        grow = relax.argmin(axis=0)
        dp[mask] = relax[grow, np.arange(n)]
        grow_u[mask] = grow
        split_sub[mask] = choice

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
        sub = int(split_sub[mask][u])
        stack.append((sub, u))
        stack.append((mask ^ sub, u))

    tree = verify_tree(instance, edges)
    tree = prune(tree, instance.terminals)
    if not abs(tree.cost - float(dp[full][root])) < 1e-9:
        raise RuntimeError(f"reconstruction cost mismatch: tree {tree.cost}, "
                           f"table {float(dp[full][root])}")
    return tree
