"""Tiny reduction sources drawn from a seed, and brute-force verdicts for them.

The ``exact`` workload reduces these sources with ``steinerkit.reductions``
and certifies the reduced instance with Dreyfus-Wagner.  The verdicts here
enumerate the source directly (assignments, covers, triple subsets) and
share no code with the package, so a wrong reduction or a wrong exact
solver shows up as a disagreement.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

# Reduced-instance terminal count -> source size.  SAT: n_vars + 1 + clauses
# terminals; MVC: 1 + |E|; X3C: 1 + 3q.
SAT_SIZES = {10: (3, 6), 13: (4, 8)}
MVC_VERTICES = 6
X3C_EXTRA_TRIPLES = 2


def sat_source(terminals: int, rng: np.random.Generator):
    """Random CNF over distinct variables per clause, widths 1-3."""
    n_vars, n_clauses = SAT_SIZES[terminals]
    clauses = []
    for _ in range(n_clauses):
        width = int(rng.choice([1, 2, 3], p=[0.1, 0.3, 0.6]))
        variables = rng.choice(np.arange(1, n_vars + 1), size=width, replace=False)
        clauses.append([int(v) if rng.random() < 0.5 else -int(v) for v in variables])
    return n_vars, clauses


def mvc_source(terminals: int, rng: np.random.Generator):
    """Random graph with terminals - 1 edges; the budget k is the minimum
    cover size or one less, so YES and NO verdicts both occur."""
    pairs = list(combinations(range(MVC_VERTICES), 2))
    picked = rng.choice(len(pairs), size=terminals - 1, replace=False)
    edges = [pairs[int(i)] for i in sorted(picked)]
    k = min_cover_size(MVC_VERTICES, edges) - int(rng.integers(2))
    return MVC_VERTICES, edges, k


def x3c_source(terminals: int, rng: np.random.Generator):
    """3q elements and q + 2 triples, half the time with a planted cover."""
    q = (terminals - 1) // 3
    n_elements = 3 * q
    triples = []
    if rng.random() < 0.5:
        perm = rng.permutation(n_elements)
        triples = [tuple(int(x) for x in perm[3 * j:3 * j + 3]) for j in range(q)]
        extra = X3C_EXTRA_TRIPLES
    else:
        extra = q + X3C_EXTRA_TRIPLES
    for _ in range(extra):
        triples.append(tuple(int(x) for x in rng.choice(n_elements, size=3, replace=False)))
    order = rng.permutation(len(triples))
    return n_elements, [triples[int(i)] for i in order]


def sat_verdict(n_vars: int, clauses) -> bool:
    for assignment in product((False, True), repeat=n_vars):
        if all(any(assignment[abs(l) - 1] == (l > 0) for l in c) for c in clauses):
            return True
    return False


def min_cover_size(n: int, edges) -> int:
    for size in range(n + 1):
        for cover in combinations(range(n), size):
            chosen = set(cover)
            if all(u in chosen or v in chosen for u, v in edges):
                return size
    return n


def mvc_verdict(n: int, edges, k: int) -> bool:
    return min_cover_size(n, edges) <= k


def x3c_verdict(n_elements: int, triples) -> bool:
    q = n_elements // 3
    for chosen in combinations(triples, q):
        covered = set()
        for t in chosen:
            covered |= set(t)
        if len(covered) == n_elements:
            return True
    return False


SOURCES = {"sat": sat_source, "mvc": mvc_source, "x3c": x3c_source}
VERDICTS = {"sat": sat_verdict, "mvc": mvc_verdict, "x3c": x3c_verdict}
