"""Seeded random instance generators: random-regular, Erdos-Renyi, Watts-Strogatz.

Each vertex becomes a terminal independently with probability ``terminal_ratio``
(redrawn, at most ``CONNECT_RETRIES`` times, until two terminals exist) and every
edge gets a uniform integer weight from ``weight_range``.  A generated instance is
a pure function of its config: the same seed always yields the bit-identical instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import StpInstance, WeightedGraph

MODELS = ("rr", "er", "ws")
CONNECT_RETRIES = 1000


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for one synthetic instance.

    model_param is the RR degree d, the ER edge probability p (None picks
    2 ln(n)/n, above the connectivity threshold), or unused for WS which
    takes ``ws_k``/``ws_beta``.
    """

    model: str
    n: int
    terminal_ratio: float = 0.2
    weight_range: tuple[int, int] = (1, 5)
    seed: int = 0
    d: int = 4
    p: float | None = None
    ws_k: int = 4
    ws_beta: float = 0.3

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.n < 3:
            raise ValueError(f"n must be >= 3, got {self.n}")
        if not (0 < self.terminal_ratio <= 1):
            raise ValueError(f"terminal_ratio must be in (0, 1], got {self.terminal_ratio}")
        lo, hi = self.weight_range
        if lo < 1 or hi < lo:
            raise ValueError(f"weight_range must be a nonempty interval [1, n_w], got {self.weight_range}")

    @property
    def instance_name(self) -> str:
        return f"{self.model}{self.n}-s{self.seed}"


def generate(config: GeneratorConfig) -> StpInstance:
    """Build one connected instance from the config, deterministically.

    Graph draws are rejected until connected, then weights are assigned
    edge-by-edge in canonical order, then terminals are drawn until at
    least two come up.  A config with no connected draw, or no draw of two
    terminals, in ``CONNECT_RETRIES`` tries (one below the connectivity
    threshold, or with a tiny terminal ratio) raises a ``ValueError``.
    """
    rng = np.random.default_rng(np.random.PCG64(config.seed))
    pairs = _connected_edge_set(config, rng)
    lo, hi = config.weight_range
    weights = rng.integers(lo, hi + 1, size=len(pairs))
    edges = [(u, v, float(w)) for (u, v), w in zip(pairs, weights)]
    graph = WeightedGraph(config.n, edges)

    for _ in range(CONNECT_RETRIES):
        mask = rng.random(config.n) < config.terminal_ratio
        if mask.sum() >= 2:
            terminals = frozenset(int(i) for i in np.flatnonzero(mask))
            return StpInstance(graph=graph, terminals=terminals, name=config.instance_name)
    raise ValueError(f"terminal ratio {config.terminal_ratio:g} drew fewer than two of "
                     f"{config.n} vertices in {CONNECT_RETRIES} draws; raise the ratio or n")


def _connected_edge_set(config: GeneratorConfig, rng: np.random.Generator) -> list[tuple[int, int]]:
    for _ in range(CONNECT_RETRIES):
        if config.model == "rr":
            pairs = random_regular_edges(config.n, config.d, rng)
        elif config.model == "er":
            p = config.p if config.p is not None else 2.0 * math.log(config.n) / config.n
            pairs = erdos_renyi_edges(config.n, p, rng)
        else:
            pairs = watts_strogatz_edges(config.n, config.ws_k, config.ws_beta, rng)
        if pairs is not None and _is_connected(config.n, pairs):
            return sorted(pairs)
    raise ValueError(
        f"no connected {config.model} graph found in {CONNECT_RETRIES} draws; "
        "parameters are likely below the connectivity threshold"
    )


def random_regular_edges(n: int, d: int, rng: np.random.Generator) -> set[tuple[int, int]] | None:
    """One pairing-model attempt at a d-regular graph; None if the attempt stalls.

    Stubs are shuffled and paired repeatedly, re-queueing clashing stubs,
    until every stub is matched or no suitable pair remains (the caller
    simply retries).
    """
    if d < 0 or d >= n:
        raise ValueError(f"degree must satisfy 0 <= d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise ValueError(f"n*d must be even for a d-regular graph (n={n}, d={d})")
    edges: set[tuple[int, int]] = set()
    stubs = list(range(n)) * d
    while stubs:
        rng.shuffle(stubs)
        clashes: dict[int, int] = {}
        it = iter(stubs)
        for a, b in zip(it, it):
            if a > b:
                a, b = b, a
            if a != b and (a, b) not in edges:
                edges.add((a, b))
            else:
                clashes[a] = clashes.get(a, 0) + 1
                clashes[b] = clashes.get(b, 0) + 1
        if clashes and not _has_suitable_pair(edges, clashes):
            return None
        stubs = [v for v, c in clashes.items() for _ in range(c)]
    return edges


def _has_suitable_pair(edges: set[tuple[int, int]], clashes: dict[int, int]) -> bool:
    keys = sorted(clashes)
    for i, a in enumerate(keys):
        for b in keys[i + 1:]:
            if (a, b) not in edges:
                return True
    return False


def erdos_renyi_edges(n: int, p: float, rng: np.random.Generator) -> set[tuple[int, int]]:
    """G(n, p): each unordered pair independently with probability p."""
    if not (0 < p <= 1):
        raise ValueError(f"edge probability must be in (0, 1], got {p}")
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.shape[0]) < p
    return {(int(u), int(v)) for u, v in zip(iu[mask], ju[mask])}


def watts_strogatz_edges(n: int, k: int, beta: float, rng: np.random.Generator) -> set[tuple[int, int]]:
    """Ring lattice with k/2 neighbors per side, each edge rewired with prob beta.

    Rewiring keeps the source endpoint and redraws the other uniformly,
    skipping self loops and duplicates; an edge with no free target stays.
    """
    if k % 2 != 0 or k < 2 or k >= n:
        raise ValueError(f"ws_k must be even with 2 <= k < n, got k={k}, n={n}")
    if not (0 <= beta <= 1):
        raise ValueError(f"ws_beta must be in [0, 1], got {beta}")
    edges: set[tuple[int, int]] = set()
    for offset in range(1, k // 2 + 1):
        for u in range(n):
            v = (u + offset) % n
            edges.add((min(u, v), max(u, v)))
    for offset in range(1, k // 2 + 1):
        for u in range(n):
            v = (u + offset) % n
            old = (min(u, v), max(u, v))
            if old not in edges:
                continue  # already rewired away by an earlier pass
            if rng.random() < beta:
                candidates = [
                    w for w in range(n)
                    if w != u and (min(u, w), max(u, w)) not in edges
                ]
                if candidates:
                    w = candidates[rng.integers(len(candidates))]
                    edges.remove(old)
                    edges.add((min(u, w), max(u, w)))
    return edges


def _is_connected(n: int, pairs) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count == n


def _weight_range(val: str) -> tuple[int, int]:
    lo, _, hi = val.partition(":")
    return int(lo), int(hi or lo)


# spec key -> (GeneratorConfig field, value parser)
_SPEC_KEYS = {
    "n": ("n", int),
    "m": ("terminal_ratio", float),
    "w": ("weight_range", _weight_range),
    "d": ("d", int),
    "p": ("p", float),
    "k": ("ws_k", int),
    "beta": ("ws_beta", float),
}


def parse_generator_spec(spec: str, seed: int = 0) -> GeneratorConfig:
    """Parse a compact spec string like ``rr:n=30,m=0.2,d=4,w=1:5``.

    Keys: n (vertices), m (terminal ratio), w (weight range lo:hi),
    d (RR degree), p (ER probability), k/beta (WS parameters).  A value
    that does not parse, or a key given twice, raises a ``ValueError`` naming
    the key and the spec.
    """
    model, _, rest = spec.partition(":")
    model = model.strip().lower()
    kwargs: dict = {"model": model, "seed": seed, "n": 30}
    seen = set()
    if rest:
        for item in rest.split(","):
            if not item.strip():
                continue
            key, _, val = item.partition("=")
            key = key.strip().lower()
            if key not in _SPEC_KEYS:
                raise ValueError(f"unknown generator key {key!r} in {spec!r}")
            if key in seen:
                raise ValueError(f"generator key {key!r} is repeated in {spec!r}")
            seen.add(key)
            field, parse = _SPEC_KEYS[key]
            try:
                kwargs[field] = parse(val.strip())
            except ValueError:
                raise ValueError(f"generator key {key!r} has an invalid value "
                                 f"{val.strip()!r} in {spec!r}") from None
    return GeneratorConfig(**kwargs)
