"""Independent reference implementations used only to check the package.

Nothing here imports solver internals: the Steiner oracle enumerates
vertex subsets, the Dreyfus-Wagner reference walks submasks one at a time,
the network oracle is plain-Python scalar arithmetic, and gradients come
from central finite differences.  Deliberately slow and simple.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from steinerkit.graph import StpInstance, reconstruct_path, shortest_paths_with_parents
from steinerkit.qnet import NetInput, QNetParams, forward
from steinerkit.solvers import SteinerTree, prune, verify_tree


def _mst_cost_over(vertices, edges):
    """Kruskal over the induced edge set; None when it cannot span ``vertices``."""
    vs = set(vertices)
    parent = {v: v for v in vs}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    usable = sorted((w, u, v) for u, v, w in edges if u in vs and v in vs)
    cost, picked = 0.0, 0
    for w, u, v in usable:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            cost += w
            picked += 1
    if picked != len(vs) - 1:
        return None
    return cost


def brute_force_steiner_cost(instance: StpInstance) -> float:
    """Minimum over terminal supersets W of the MST cost of G[W].

    Any Steiner tree spans its own vertex set, so its cost is at least the
    MST of that induced subgraph; conversely every connected induced MST
    is a feasible tree.  Exponential in |V| - |T|; keep instances tiny.
    """
    terms = set(instance.terminals)
    others = [v for v in range(instance.graph.vertex_count) if v not in terms]
    edges = instance.graph.edges
    best = math.inf
    for r in range(len(others) + 1):
        for extra in combinations(others, r):
            cost = _mst_cost_over(terms | set(extra), edges)
            if cost is not None and cost < best:
                best = cost
    return best


def submask_loop_dreyfus_wagner(instance: StpInstance) -> SteinerTree:
    """Dreyfus-Wagner as a loop over masks and their submasks, one vertex
    row at a time.  Ties keep the first strictly better split in
    ``sub = (sub - 1) & mask`` order and the lowest relaxation vertex, so
    ``solvers.dreyfus_wagner`` must return exactly this tree.  The metric
    comes from one heap Dijkstra per source and each split is stored as it
    is found, so neither the lockstep all-pairs Dijkstra nor the solver's
    split recovery is reused here."""
    terms = instance.terminal_list
    if len(terms) == 1:
        return verify_tree(instance, ())
    g = instance.graph
    n = g.vertex_count
    runs = [shortest_paths_with_parents(g, s) for s in range(n)]
    dist = np.array([d for d, _ in runs])
    parents = [p for _, p in runs]
    root, others = terms[0], terms[1:]
    full = (1 << len(others)) - 1
    dp = np.full((full + 1, n), np.inf)
    grow_u = np.full((full + 1, n), -1)
    split_sub = np.zeros((full + 1, n), dtype=int)
    for i, term in enumerate(others):
        dp[1 << i] = dist[term]
    for mask in range(1, full + 1):
        if mask & (mask - 1) == 0:
            continue
        low = mask & -mask
        tmp = np.full(n, np.inf)
        choice = np.zeros(n, dtype=int)
        sub = (mask - 1) & mask
        while sub:
            if sub & low:
                cand = dp[sub] + dp[mask ^ sub]
                better = cand < tmp
                tmp[better] = cand[better]
                choice[better] = sub
            sub = (sub - 1) & mask
        relax = tmp[:, None] + dist
        grow_u[mask] = relax.argmin(axis=0)
        dp[mask] = relax[grow_u[mask], np.arange(n)]
        split_sub[mask] = choice

    edges = set()
    stack = [(full, root)]
    while stack:
        mask, v = stack.pop()
        if mask & (mask - 1) == 0:
            u = others[mask.bit_length() - 1]
        else:
            u = int(grow_u[mask][v])
            sub = int(split_sub[mask][u])
            stack += [(sub, u), (mask ^ sub, u)]
        path = reconstruct_path(parents[u], u, v)
        for a, b in zip(path, path[1:]):
            edges.add((min(a, b), max(a, b)))
    return prune(verify_tree(instance, edges), instance.terminals)


def edge_subset_steiner_cost(instance: StpInstance) -> float:
    """Literal minimum over all edge subsets that connect the terminals.

    2^|E| work; only for cross-checking the vertex-subset oracle on graphs
    with a handful of edges.
    """
    edges = instance.graph.edges
    terms = set(instance.terminals)
    if len(terms) == 1:
        return 0.0
    best = math.inf
    for r in range(1, len(edges) + 1):
        for subset in combinations(edges, r):
            vs = {u for u, _, _ in subset} | {v for _, v, _ in subset}
            if not terms <= vs:
                continue
            parent = {v: v for v in vs}

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for u, v, _ in subset:
                parent[find(u)] = find(v)
            roots = {find(v) for v in vs}
            if len(roots) == 1:
                best = min(best, sum(w for _, _, w in subset))
    return best


def relu(v: float) -> float:
    return v if v > 0 else 0.0


def scalar_q_value(params: QNetParams, inp: NetInput, v: int) -> float:
    """The full network as nested Python loops over matrix entries."""
    p, k = params.p_dim, params.k
    n = inp.x.shape[0]
    mu = [[0.0] * p for _ in range(n)]
    for u in range(n):
        for i in range(p):
            acc = (params.theta1[i][0] * float(inp.s_bits[u])
                   + params.theta1[i][1] * float(inp.t_bits[u]))
            for j in range(k):
                acc += params.theta2[i][j] * float(inp.x[u][j])
            mu[u][i] = relu(acc)

    mu_p = [[0.0] * p for _ in range(n)]
    for u in range(n):
        agg = [0.0] * p
        for w in range(n):
            if inp.adjacency[u][w]:
                for i in range(p):
                    agg[i] += mu[u][i] - mu[w][i]
        z = [relu(c) for c in mu[u]] + [relu(c) for c in agg]
        h = []
        for i in range(p):
            acc = float(params.b1[i])
            for j in range(2 * p):
                acc += params.w1[i][j] * z[j]
            h.append(relu(acc))
        for i in range(p):
            acc = float(params.b2[i])
            for j in range(p):
                acc += params.w2[i][j] * h[j]
            mu_p[u][i] = relu(acc)

    pooled = [sum(mu_p[u][i] for u in range(n)) for i in range(p)]
    left = []
    for i in range(p):
        acc = 0.0
        for j in range(p):
            acc += params.theta4[i][j] * pooled[j]
        left.append(relu(acc))
    right = []
    for i in range(p):
        acc = 0.0
        for j in range(p):
            acc += params.theta5[i][j] * mu_p[v][j]
        right.append(relu(acc))
    q = 0.0
    for i, val in enumerate(left + right):
        q += float(params.theta3[i]) * val
    return q


def _loss(params: QNetParams, inp: NetInput, v: int, target: float) -> float:
    c = forward(params, inp)
    g4 = params.theta4 @ c.pooled
    v5 = params.theta5 @ c.mu_p[v]
    qr = np.maximum(np.concatenate([g4, v5]), 0.0)
    q = float(params.theta3 @ qr)
    return (q - target) ** 2


def finite_difference_grads(params: QNetParams, inp: NetInput, v: int,
                            target: float, step: float = 1e-5):
    """Central differences of the squared loss, coordinate by coordinate."""
    out = {}
    for name, arr in params.as_dict().items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + step
            hi = _loss(params, inp, v, target)
            flat[idx] = keep - step
            lo = _loss(params, inp, v, target)
            flat[idx] = keep
            gflat[idx] = (hi - lo) / (2 * step)
        out[name] = g
    return out


def max_relative_error(analytic: dict, numeric: dict) -> float:
    worst = 0.0
    for name, a in analytic.items():
        f = numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1.0)
        worst = max(worst, float((np.abs(a - f) / denom).max()))
    return worst


def random_instance(rng, n_lo=4, n_hi=10, t_max=4, w_max=5,
                    extra_edges=None) -> StpInstance:
    """Random connected instance: spanning tree plus extra edges, integer
    weights in 1..w_max, between 2 and t_max terminals."""
    from steinerkit.graph import WeightedGraph

    n = int(rng.integers(n_lo, n_hi + 1))
    edges = {}
    order = list(rng.permutation(n))
    for i in range(1, n):
        u, v = order[i], order[int(rng.integers(i))]
        key = (min(u, v), max(u, v))
        edges[key] = float(rng.integers(1, w_max + 1))
    if extra_edges is None:
        extra_edges = int(rng.integers(0, n))
    for _ in range(extra_edges * 3):
        if len(edges) >= n - 1 + extra_edges:
            break
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key not in edges:
            edges[key] = float(rng.integers(1, w_max + 1))
    n_terms = int(rng.integers(2, min(t_max, n) + 1))
    terms = frozenset(int(v) for v in rng.choice(n, size=n_terms, replace=False))
    graph = WeightedGraph(n, [(u, v, w) for (u, v), w in edges.items()])
    return StpInstance(graph=graph, terminals=terms)


def brute_force_min_cover(n: int, edges, k: int):
    """Smallest vertex cover up to size k, or None when none exists."""
    for size in range(0, k + 1):
        for cand in combinations(range(n), size):
            cs = set(cand)
            if all(u in cs or v in cs for u, v in edges):
                return sorted(cs)
    return None


def brute_force_sat(n_vars: int, clauses):
    """First satisfying assignment in lexicographic order, or None."""
    for bits in range(1 << n_vars):
        assign = [(bits >> i) & 1 == 1 for i in range(n_vars)]
        if all(any(assign[abs(l) - 1] == (l > 0) for l in c) for c in clauses):
            return assign
    return None


def brute_force_x3c(n_elements: int, triples):
    """Indices of an exact cover by disjoint triples, or None."""
    q = n_elements // 3
    for cand in combinations(range(len(triples)), q):
        covered = set()
        ok = True
        for j in cand:
            t = set(triples[j])
            if covered & t:
                ok = False
                break
            covered |= t
        if ok and covered == set(range(n_elements)):
            return list(cand)
    return None
