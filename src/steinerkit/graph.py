"""Undirected positive-weighted graphs and Steiner tree problem instances."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

INF = math.inf


class WeightedGraph:
    """Undirected graph with strictly positive edge weights.

    Vertices are the integers ``0 .. vertex_count - 1``.  Edges are stored
    canonically as ``(u, v, w)`` with ``u < v``, at most one edge per pair,
    no self loops.  Instances are treated as immutable after construction
    and are safe to share between workers.
    """

    __slots__ = ("vertex_count", "edges", "_adj", "_weights", "_adj_matrix")

    def __init__(self, vertex_count: int, edges) -> None:
        if vertex_count < 1:
            raise ValueError(f"vertex_count must be >= 1, got {vertex_count}")
        self.vertex_count = int(vertex_count)
        canonical = []
        seen = set()
        adj: list[list[tuple[int, float]]] = [[] for _ in range(self.vertex_count)]
        weights: dict[tuple[int, int], float] = {}
        for u, v, w in edges:
            u, v = int(u), int(v)
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u},{v}) out of vertex range 0..{self.vertex_count - 1}")
            if u == v:
                raise ValueError(f"self loop at vertex {u}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            w = float(w)
            if not w > 0 or not math.isfinite(w):
                raise ValueError(f"edge ({u},{v}) has non-positive weight {w}")
            seen.add((u, v))
            canonical.append((u, v, w))
            weights[(u, v)] = w
        canonical.sort()
        self.edges: tuple[tuple[int, int, float], ...] = tuple(canonical)
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        self._adj = tuple(tuple(sorted(nbrs)) for nbrs in adj)
        self._weights = weights
        self._adj_matrix: np.ndarray | None = None

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[tuple[int, float], ...]:
        """Sorted ``(neighbor, weight)`` pairs incident to ``v``."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def weight(self, u: int, v: int) -> float:
        """Weight of edge ``{u, v}``; raises ``KeyError`` if absent."""
        if u > v:
            u, v = v, u
        return self._weights[(u, v)]

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self._weights

    def adjacency_matrix(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix (float64), built once and cached."""
        if self._adj_matrix is None:
            a = np.zeros((self.vertex_count, self.vertex_count))
            for u, v, _ in self.edges:
                a[u, v] = 1.0
                a[v, u] = 1.0
            self._adj_matrix = a
        return self._adj_matrix

    def mean_edge_weight(self) -> float:
        if not self.edges:
            return 0.0
        return sum(w for _, _, w in self.edges) / len(self.edges)

    def component_of(self, start: int) -> set[int]:
        """Vertex set of the connected component containing ``start``."""
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v, _ in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    def is_connected(self) -> bool:
        return len(self.component_of(0)) == self.vertex_count

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertex_count, self.edges))

    def __repr__(self) -> str:
        return f"WeightedGraph(|V|={self.vertex_count}, |E|={self.edge_count})"


def shortest_paths_with_parents(
    graph: WeightedGraph, source: int
) -> tuple[list[float], list[int]]:
    """Dijkstra with predecessor tracking for path reconstruction.

    ``dist[source] == 0``, unreachable vertices keep ``inf``, and the
    parent of the source (and of unreachable vertices) is -1.  Ties are
    resolved by heap order on (distance, vertex id), so the shortest path
    tree is deterministic.
    """
    n = graph.vertex_count
    if not (0 <= source < n):
        raise ValueError(f"invalid source vertex {source}")
    dist = [INF] * n
    parent = [-1] * n
    dist[source] = 0.0
    heap = [(0.0, source)]
    done = [False] * n
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, w in graph.neighbors(u):
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, parent


def reconstruct_path(parent, source: int, target: int) -> list[int]:
    """Vertex path (of ``int`` ids) from ``source`` to ``target`` along a Dijkstra parent tree."""
    path = [target]
    while path[-1] != source:
        p = int(parent[path[-1]])
        if p < 0:
            raise ValueError(f"vertex {target} unreachable from {source}")
        path.append(p)
    path.reverse()
    return path


_APSP_BLOCK_ELEMENTS = 1 << 16  # elements of each (sources, n) array of a block


def all_pairs_shortest_paths(graph: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """``(n, n)`` distance and parent matrices: row s is
    ``shortest_paths_with_parents(graph, s)``, bit for bit.

    Every source's Dijkstra runs in numpy lockstep, a block of sources at a
    time.  Each round settles, per source, the unsettled vertex with the
    least ``(distance, id)``, which is the order the heap pops them, and
    relaxes its edges with the heap's own sum ``dist[s, u] + w[u, v]``.
    """
    n = graph.vertex_count
    w = np.full((n, n), INF)
    for u, v, wt in graph.edges:
        w[u, v] = w[v, u] = wt
    dist = np.full((n, n), INF)
    np.fill_diagonal(dist, 0.0)
    parent = np.full((n, n), -1)
    per_block = max(1, _APSP_BLOCK_ELEMENTS // n)
    for a in range(0, n, per_block):
        d, p = dist[a:a + per_block], parent[a:a + per_block]
        rows = np.arange(len(d))
        key = d.copy()  # dist of unsettled vertices, inf once settled
        # after n - 1 rounds the last vertex has no unsettled neighbour
        for _ in range(n - 1):
            u = key.argmin(axis=1)
            du = key[rows, u]
            key[rows, u] = INF
            cand = du[:, None] + w[u]
            better = cand < d  # never a settled vertex: its dist <= du <= cand
            np.copyto(d, cand, where=better)
            np.copyto(key, cand, where=better)
            np.copyto(p, u[:, None], where=better)
    return dist, parent


@dataclass(frozen=True)
class StpInstance:
    """A Steiner tree problem instance: graph, terminal set, optional reference values.

    ``known_opt`` holds a published optimum when one exists; ``bound`` is the
    decision threshold attached to instances produced by problem reductions.
    All terminals must lie in one connected component (validated here).
    """

    graph: WeightedGraph
    terminals: frozenset[int]
    known_opt: float | None = None
    bound: float | None = None
    name: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "terminals", frozenset(int(t) for t in self.terminals))
        if not self.terminals:
            raise ValueError("instance needs at least one terminal")
        n = self.graph.vertex_count
        for t in self.terminals:
            if not (0 <= t < n):
                raise ValueError(f"terminal {t} out of vertex range 0..{n - 1}")
        if self.known_opt is not None and self.known_opt < 0:
            raise ValueError("known_opt must be non-negative")
        if self.bound is not None and self.bound < 0:
            raise ValueError("bound must be non-negative")
        comp = self.graph.component_of(self.terminal_list[0])
        missing = [t for t in self.terminal_list if t not in comp]
        if missing:
            raise ValueError(f"terminals {missing} not connected to terminal {self.terminal_list[0]}")

    @property
    def terminal_list(self) -> list[int]:
        """Terminals in ascending order (deterministic iteration order)."""
        return sorted(self.terminals)

    @cached_property
    def terminal_paths(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(|T|, n)`` distance and parent tables, built once per
        instance for ``kmb`` and the learner's features: row j is
        ``shortest_paths_with_parents`` from the j-th terminal in ascending order."""
        runs = [shortest_paths_with_parents(self.graph, t) for t in self.terminal_list]
        dist = np.array([d for d, _ in runs])
        parent = np.array([p for _, p in runs])
        dist.flags.writeable = parent.flags.writeable = False
        return dist, parent

    @property
    def id(self) -> str:
        return self.name if self.name else f"stp-{self.graph.vertex_count}v-{len(self.terminals)}t"

    def __repr__(self) -> str:
        return f"StpInstance({self.id}: |V|={self.graph.vertex_count}, |T|={len(self.terminals)})"
