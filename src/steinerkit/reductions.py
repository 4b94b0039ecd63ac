"""Polynomial reductions from classic NP-complete problems to Steiner tree.

Each reduction returns the constructed instance together with a cost bound
such that the source problem is a YES-instance exactly when some Steiner
tree meets the bound, plus a witness map that converts a tree back into a
certificate for the source problem (assignment, cover, or triple choice).
All constructions index vertices deterministically so repeated runs agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import StpInstance, WeightedGraph
from .steinlib import parse_int


def parse_dimacs(text: str) -> tuple[int, list[list[int]]]:
    """Parse DIMACS CNF: returns (variable count, clauses as literal lists)."""
    n_vars = None
    n_clauses = None
    clauses: list[list[int]] = []
    current: list[int] = []

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"line {lineno}: bad problem line: {raw!r}")
            n_vars, n_clauses = parse_int(parts[2], lineno), parse_int(parts[3], lineno)
            continue
        if n_vars is None:
            raise ValueError(f"line {lineno}: clause data before 'p cnf' header")
        for tok in line.split():
            lit = parse_int(tok, lineno)
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                if abs(lit) > n_vars:
                    raise ValueError(f"line {lineno}: literal {lit} out of range for {n_vars} variables")
                current.append(lit)
    if current:
        clauses.append(current)
    if n_vars is None:
        raise ValueError("missing 'p cnf' header")
    if n_clauses is not None and len(clauses) != n_clauses:
        raise ValueError(f"header promises {n_clauses} clauses, found {len(clauses)}")
    return n_vars, clauses


def _integer_rows(text: str, what: str, header: tuple[int, str], row: tuple[int, str]):
    """The header and rows of a whitespace-separated integer source, each
    shape an (arity, description) pair; blank and '#' lines are skipped,
    and every error names its line."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        arity, description = row if rows else header
        toks = line.split()
        if len(toks) != arity:
            raise ValueError(f"line {lineno}: expected {description}, got {line!r}")
        rows.append(tuple(parse_int(tok, lineno) for tok in toks))
    if not rows:
        raise ValueError(f"empty {what} input")
    return rows[0], rows[1:]


def parse_mvc_source(text: str) -> tuple[int, list[tuple[int, int]], int]:
    """Parse a vertex-cover instance: 'n m k' header then m 'u v' edge lines."""
    (n, m, k), edges = _integer_rows(
        text, "vertex-cover", (3, "an 'n m k' header"), (2, "a 'u v' edge"))
    if len(edges) != m:
        raise ValueError(f"header promises {m} edges, found {len(edges)}")
    return n, edges, k


def parse_x3c_source(text: str) -> tuple[int, list[tuple[int, int, int]]]:
    """Parse an exact-cover instance: 'n_elements n_triples' then triple lines."""
    (n_elements, n_triples), triples = _integer_rows(
        text, "exact-cover", (2, "an 'n_elements n_triples' header"),
        (3, "a triple of 3 elements"))
    if len(triples) != n_triples:
        raise ValueError(f"header promises {n_triples} triples, found {len(triples)}")
    return n_elements, triples


@dataclass(frozen=True)
class ReductionOutput:
    """A reduced instance plus the machinery to interpret its solutions.

    ``bound`` is the YES-threshold: the source instance is satisfiable /
    coverable exactly when ``instance`` admits a tree of cost <= bound.
    ``roles`` names every constructed vertex by its gadget function.
    """

    instance: StpInstance
    source_kind: str
    bound: float
    roles: dict[int, str] = field(repr=False)

    def decode_witness(self, tree):
        """The source certificate a ``SteinerTree`` on ``instance`` encodes."""
        raise NotImplementedError

    def verify_witness(self, witness) -> bool:
        raise NotImplementedError

    def metadata(self) -> dict:
        g = self.instance.graph
        return {
            "source_kind": self.source_kind,
            "instance": self.instance.name,
            "bound": self.bound,
            "vertices": g.vertex_count,
            "edges": g.edge_count,
            "terminals": len(self.instance.terminals),
        }


@dataclass(frozen=True)
class SatReduction(ReductionOutput):
    n_vars: int = 0
    clauses: tuple[tuple[int, ...], ...] = ()
    lit_vertex: dict[int, int] = field(default_factory=dict, repr=False)

    def decode_witness(self, tree) -> list[bool]:
        """Assignment: variable i is True when its positive-literal vertex is used."""
        return [self.lit_vertex[i + 1] in tree.vertices for i in range(self.n_vars)]

    def verify_witness(self, witness) -> bool:
        if len(witness) != self.n_vars:
            return False
        for clause in self.clauses:
            if not any(witness[abs(l) - 1] == (l > 0) for l in clause):
                return False
        return True

    def metadata(self) -> dict:
        meta = super().metadata()
        meta["source"] = {"variables": self.n_vars, "clauses": len(self.clauses)}
        return meta


def reduce_sat(n_vars: int, clauses) -> SatReduction:
    """SAT -> STP via a variable chain with per-variable literal detours.

    Chain anchors u_0..u_n are terminals; between consecutive anchors sit
    the two literal vertices of variable i, each on a unit-weight 2-edge
    detour.  Every clause is a terminal reachable only through heavy edges
    (weight 2n+2) into the vertices of its literals.  A tree meets
    bound = 2n + m*(2n+2) exactly when the chain picks one literal per
    variable forming a satisfying assignment: clause terminals must then
    hang as leaves off picked literals.
    """
    clauses = [tuple(dict.fromkeys(int(l) for l in c)) for c in clauses]
    if n_vars < 1:
        raise ValueError("need at least one variable")
    for j, c in enumerate(clauses):
        if not c:
            raise ValueError(f"clause {j} is empty; instance is trivially unsatisfiable")
        for l in c:
            if l == 0 or abs(l) > n_vars:
                raise ValueError(f"literal {l} out of range in clause {j}")

    n, m = n_vars, len(clauses)
    heavy = float(2 * n + 2)
    chain = list(range(n + 1))
    lit_vertex: dict[int, int] = {}
    roles = {u: f"chain:{i}" for i, u in enumerate(chain)}
    next_id = n + 1
    for i in range(1, n + 1):
        lit_vertex[i] = next_id
        roles[next_id] = f"lit:{i}"
        lit_vertex[-i] = next_id + 1
        roles[next_id + 1] = f"lit:-{i}"
        next_id += 2
    clause_vertex = {}
    for j in range(m):
        clause_vertex[j] = next_id
        roles[next_id] = f"clause:{j}"
        next_id += 1

    edges = []
    for i in range(1, n + 1):
        for lv in (lit_vertex[i], lit_vertex[-i]):
            edges.append((chain[i - 1], lv, 1.0))
            edges.append((lv, chain[i], 1.0))
    for j, c in enumerate(clauses):
        for l in c:
            edges.append((clause_vertex[j], lit_vertex[l], heavy))

    graph = WeightedGraph(next_id, edges)
    bound = float(2 * n + m * heavy)
    terminals = frozenset(chain) | frozenset(clause_vertex.values())
    instance = StpInstance(
        graph=graph, terminals=terminals, bound=bound, name=f"sat-v{n}-c{m}"
    )
    return SatReduction(
        instance=instance, source_kind="sat", bound=bound, roles=roles,
        n_vars=n, clauses=tuple(clauses), lit_vertex=lit_vertex,
    )


@dataclass(frozen=True)
class MvcReduction(ReductionOutput):
    n_source: int = 0
    source_edges: tuple[tuple[int, int], ...] = ()
    k: int = 0
    vertex_vertex: dict[int, int] = field(default_factory=dict, repr=False)

    def decode_witness(self, tree) -> list[int]:
        """Cover: source vertices whose stand-ins the tree passes through."""
        return sorted(v for v, sv in self.vertex_vertex.items() if sv in tree.vertices)

    def verify_witness(self, witness) -> bool:
        cover = set(witness)
        if len(cover) > self.k:
            return False
        return all(u in cover or v in cover for u, v in self.source_edges)

    def metadata(self) -> dict:
        meta = super().metadata()
        meta["source"] = {
            "vertices": self.n_source, "edges": len(self.source_edges), "k": self.k,
        }
        return meta


def reduce_mvc(n: int, edges, k: int, complete: bool = True) -> MvcReduction:
    """Vertex cover -> STP: root, one vertex per source vertex and edge.

    Unit edges run root -> vertex stand-in -> edge stand-in (for incident
    edges).  Terminals are the root plus all edge stand-ins, so a tree of
    cost |E| + k exists exactly when k vertices cover every edge.  With
    ``complete`` the graph is filled to a clique by edges heavier than the
    bound; they change no optimum but produce the dense instances this
    family is reported on.
    """
    source_edges = []
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError(f"bad source edge ({u},{v})")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"duplicate source edge {key}")
        seen.add(key)
        source_edges.append(key)
    source_edges.sort()
    if not source_edges:
        raise ValueError("vertex-cover instance needs at least one edge")
    if not 0 <= k <= n:
        raise ValueError(f"cover budget {k} out of range")

    root = 0
    vertex_vertex = {v: 1 + v for v in range(n)}
    edge_vertex = {e: 1 + n + idx for idx, e in enumerate(source_edges)}
    roles = {root: "root"}
    roles.update({sv: f"vertex:{v}" for v, sv in vertex_vertex.items()})
    roles.update({ev: f"edge:{u}-{v}" for (u, v), ev in edge_vertex.items()})

    stp_edges = [(root, sv, 1.0) for sv in vertex_vertex.values()]
    for (u, v), ev in edge_vertex.items():
        stp_edges.append((vertex_vertex[u], ev, 1.0))
        stp_edges.append((vertex_vertex[v], ev, 1.0))

    bound = float(len(source_edges) + k)
    total = 1 + n + len(source_edges)
    if complete:
        present = {(min(a, b), max(a, b)) for a, b, _ in stp_edges}
        heavy = bound + 1.0
        for a in range(total):
            for b in range(a + 1, total):
                if (a, b) not in present:
                    stp_edges.append((a, b, heavy))

    graph = WeightedGraph(total, stp_edges)
    terminals = frozenset({root}) | frozenset(edge_vertex.values())
    instance = StpInstance(
        graph=graph, terminals=terminals, bound=bound,
        name=f"mvc-n{n}-m{len(source_edges)}-k{k}",
    )
    return MvcReduction(
        instance=instance, source_kind="mvc", bound=bound, roles=roles,
        n_source=n, source_edges=tuple(source_edges), k=k,
        vertex_vertex=vertex_vertex,
    )


@dataclass(frozen=True)
class X3cReduction(ReductionOutput):
    n_elements: int = 0
    triples: tuple[tuple[int, int, int], ...] = ()
    triple_vertex: dict[int, int] = field(default_factory=dict, repr=False)

    def decode_witness(self, tree) -> list[int]:
        """Chosen triples: those whose stand-ins the tree passes through."""
        return sorted(j for j, sv in self.triple_vertex.items() if sv in tree.vertices)

    def verify_witness(self, witness) -> bool:
        covered: set[int] = set()
        for j in witness:
            t = set(self.triples[j])
            if covered & t:
                return False
            covered |= t
        return covered == set(range(self.n_elements))

    def metadata(self) -> dict:
        meta = super().metadata()
        meta["source"] = {
            "elements": self.n_elements, "triples": len(self.triples),
        }
        return meta


def reduce_x3c(n_elements: int, triples) -> X3cReduction:
    """Exact cover by 3-sets -> STP: root, triple stand-ins, element terminals.

    Unit edges run root -> triple -> its three elements.  A tree spanning
    the root and all 3q element terminals through p triples costs p + 3q,
    so cost 4q is met exactly by q disjoint triples covering everything.
    Elements in no triple get a direct root edge heavier than the bound to
    keep the instance connected while preserving the NO answer.
    """
    if n_elements <= 0 or n_elements % 3:
        raise ValueError(f"element count {n_elements} is not a positive multiple of 3")
    triples = [tuple(sorted(int(x) for x in t)) for t in triples]
    for j, t in enumerate(triples):
        if len(set(t)) != 3:
            raise ValueError(f"triple {j} does not hold 3 distinct elements")
        if not all(0 <= x < n_elements for x in t):
            raise ValueError(f"triple {j} references elements out of range")

    q = n_elements // 3
    root = 0
    triple_vertex = {j: 1 + j for j in range(len(triples))}
    element_vertex = {u: 1 + len(triples) + u for u in range(n_elements)}
    roles = {root: "root"}
    roles.update({sv: f"triple:{j}" for j, sv in triple_vertex.items()})
    roles.update({ev: f"element:{u}" for u, ev in element_vertex.items()})

    bound = float(4 * q)
    edges = [(root, sv, 1.0) for sv in triple_vertex.values()]
    covered: set[int] = set()
    for j, t in enumerate(triples):
        for u in t:
            edges.append((triple_vertex[j], element_vertex[u], 1.0))
            covered.add(u)
    for u in range(n_elements):
        if u not in covered:
            edges.append((root, element_vertex[u], bound + 1.0))

    graph = WeightedGraph(1 + len(triples) + n_elements, edges)
    terminals = frozenset({root}) | frozenset(element_vertex.values())
    instance = StpInstance(
        graph=graph, terminals=terminals, bound=bound,
        name=f"x3c-q{q}-s{len(triples)}",
    )
    return X3cReduction(
        instance=instance, source_kind="x3c", bound=bound, roles=roles,
        n_elements=n_elements, triples=tuple(triples), triple_vertex=triple_vertex,
    )
