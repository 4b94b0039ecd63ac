"""Reader and writer for the SteinLib STP text format.

The format is line oriented: a magic header, then SECTION blocks
(Comment, Graph, Terminals, ...) each closed by END, then EOF.  Vertex
ids are 1-based in files and remapped to 0-based instances.  Sections
other than Comment/Graph/Terminals are accepted and ignored.
"""

from __future__ import annotations

import io
import math
from collections.abc import Iterable

from .graph import StpInstance, WeightedGraph

MAGIC = "33D32945 STP File, STP Format Version 1.0"

# Published optima for the benchmark instances used in the result tables,
# keyed by lowercase instance name.  parse_steinlib falls back to this
# registry when the file itself carries no Opt line.
KNOWN_OPTIMA: dict[str, float] = {
    "b02": 83, "b03": 138, "b04": 59, "b05": 61, "b10": 86, "b11": 88,
    "b13": 127, "b16": 165,
    "lin01": 503, "lin02": 557, "lin03": 926, "lin04": 1239,
    "lin05": 1703, "lin06": 1348,
    "es10fst01": 22920745, "es10fst03": 26003678,
    "wrp3-11": 1100361, "wrp3-12": 1200237,
}


class SteinlibParseError(ValueError):
    """Malformed STP or reduction-source input; carries the 1-based offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_steinlib(text: str) -> StpInstance:
    """Parse SteinLib STP text into an instance.

    Raises :class:`SteinlibParseError` naming the line for missing
    sections, malformed Nodes/E/T lines, duplicate edges, out-of-range
    ids, non-finite numbers, and non-positive weights.
    """
    nodes: int | None = None
    edges: list[tuple[int, int, float]] = []
    edge_pairs: set[tuple[int, int]] = set()
    terminals: set[int] = set()
    name: str | None = None
    known_opt: float | None = None
    bound: float | None = None
    saw_terminals = False
    section: str | None = None

    lines = text.splitlines()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        upper = line.upper()
        if upper.startswith("33D32945"):
            continue
        if upper == "EOF":
            break
        if upper.startswith("SECTION"):
            parts = line.split()
            if len(parts) < 2:
                raise SteinlibParseError(line_no, "SECTION without a name")
            section = parts[1].lower()
            if section == "terminals":
                saw_terminals = True
            continue
        if upper == "END":
            section = None
            continue
        if section == "comment":
            key, _, rest = line.partition(" ")
            key = key.lower()
            rest = rest.strip().strip('"')
            if key == "name":
                name = rest
            elif key == "opt":
                known_opt = _parse_number(rest, line_no, "Opt")
            elif key == "bound":
                bound = _parse_number(rest, line_no, "Bound")
            continue
        if section == "graph":
            parts = line.split()
            key = parts[0].upper()
            if key == "NODES":
                if len(parts) != 2:
                    raise SteinlibParseError(line_no, f"expected 'Nodes n', got {line!r}")
                nodes = parse_int(parts[1], line_no)
            elif key == "EDGES":
                continue  # declared count is advisory; actual E lines decide
            elif key in ("E", "A"):
                if nodes is None:
                    raise SteinlibParseError(line_no, "edge before Nodes declaration")
                if len(parts) != 4:
                    raise SteinlibParseError(line_no, f"expected 'E u v w', got {line!r}")
                u = parse_int(parts[1], line_no)
                v = parse_int(parts[2], line_no)
                w = _parse_number(parts[3], line_no, "edge weight")
                if not (1 <= u <= nodes and 1 <= v <= nodes):
                    raise SteinlibParseError(line_no, f"edge endpoint out of range 1..{nodes}")
                if u == v:
                    raise SteinlibParseError(line_no, f"self loop at node {u}")
                pair = (min(u, v), max(u, v))
                if pair in edge_pairs:
                    raise SteinlibParseError(line_no, f"duplicate edge {pair}")
                if w <= 0:
                    raise SteinlibParseError(line_no, f"non-positive weight {w}")
                edge_pairs.add(pair)
                edges.append((u - 1, v - 1, w))
            continue
        if section == "terminals":
            parts = line.split()
            key = parts[0].upper()
            if key == "TERMINALS":
                continue
            if key == "T":
                if nodes is None:
                    raise SteinlibParseError(line_no, "terminal before SECTION Graph")
                if len(parts) != 2:
                    raise SteinlibParseError(line_no, f"expected 'T id', got {line!r}")
                t = parse_int(parts[1], line_no)
                if not (1 <= t <= nodes):
                    raise SteinlibParseError(line_no, f"terminal {t} out of range 1..{nodes}")
                terminals.add(t - 1)
            continue
        # lines of ignored sections (Coordinates etc.) fall through here

    if nodes is None:
        raise SteinlibParseError(len(lines), "missing SECTION Graph")
    if not saw_terminals:
        raise SteinlibParseError(len(lines), "missing SECTION Terminals")
    if not terminals:
        raise SteinlibParseError(len(lines), "SECTION Terminals declares no terminals")

    if known_opt is None and name and name.lower() in KNOWN_OPTIMA:
        known_opt = float(KNOWN_OPTIMA[name.lower()])

    graph = WeightedGraph(nodes, edges)
    return StpInstance(
        graph=graph,
        terminals=frozenset(terminals),
        known_opt=known_opt,
        bound=bound,
        name=name,
    )


def parse_steinlib_file(path) -> StpInstance:
    """Parse the ``.stp`` file at ``path``; a parse or decode error names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_steinlib(fh.read())
    except SteinlibParseError as exc:  # keeps its type and line_no
        exc.args = (f"{path}: {exc}",)
        raise
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_steinlib(instance: StpInstance) -> str:
    """Serialize an instance so that parse(write(x)) structurally equals x.

    Optional name/opt/bound fields round-trip through the Comment section.
    Integer-valued weights are written without a decimal point.
    """
    out = io.StringIO()
    out.write(MAGIC + "\n\n")
    out.write("SECTION Comment\n")
    if instance.name:
        out.write(f'Name "{instance.name}"\n')
    if instance.known_opt is not None:
        out.write(f"Opt {_fmt_number(instance.known_opt)}\n")
    if instance.bound is not None:
        out.write(f"Bound {_fmt_number(instance.bound)}\n")
    out.write("END\n\n")

    g = instance.graph
    out.write("SECTION Graph\n")
    out.write(f"Nodes {g.vertex_count}\n")
    out.write(f"Edges {g.edge_count}\n")
    for u, v, w in g.edges:
        out.write(f"E {u + 1} {v + 1} {_fmt_number(w)}\n")
    out.write("END\n\n")

    out.write("SECTION Terminals\n")
    out.write(f"Terminals {len(instance.terminals)}\n")
    for t in instance.terminal_list:
        out.write(f"T {t + 1}\n")
    out.write("END\n\nEOF\n")
    return out.getvalue()


def write_steinlib_file(instance: StpInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_steinlib(instance))


def parse_int(token: str, line_no: int) -> int:
    """The integer ``token`` on line ``line_no``: the one integer reader of ``.stp`` files and
    of the reductions' DIMACS, vertex-cover and exact-cover sources."""
    try:
        return int(token)
    except ValueError:
        raise SteinlibParseError(line_no, f"{token!r} is not an integer") from None


def _parse_number(token: str, line_no: int, what: str) -> float:
    try:
        x = float(token)
    except ValueError:
        raise SteinlibParseError(line_no, f"bad {what}: {token!r}") from None
    if not math.isfinite(x):
        raise SteinlibParseError(line_no, f"non-finite {what}: {token!r}")
    return x


def _fmt_number(x: float) -> str:
    xf = float(x)
    return str(int(xf)) if xf == int(xf) else repr(xf)


def edge_list_text(edges: Iterable[tuple[int, int, float]]) -> str:
    """Solution edge list, one '<u> <v> <w>' line per edge, 1-based ids."""
    lines = [f"{u + 1} {v + 1} {_fmt_number(w)}" for u, v, w in sorted(edges)]
    return "\n".join(lines) + ("\n" if lines else "")
