import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path as scipy_shortest_path

import steinerkit.graph as graph_module
from steinerkit.graph import (
    StpInstance,
    WeightedGraph,
    all_pairs_shortest_paths,
    reconstruct_path,
    shortest_paths_with_parents,
)

DIAMOND = [(0, 1, 1.0), (0, 2, 4.0), (1, 2, 2.0), (1, 3, 5.0), (2, 3, 1.0)]


def random_connected_graph(rng, n, extra_edges):
    """Random spanning tree plus extra random edges; always connected."""
    edges = {}
    order = list(rng.permutation(n))
    for i in range(1, n):
        u = order[i]
        v = order[int(rng.integers(i))]
        key = (min(u, v), max(u, v))
        edges[key] = float(rng.integers(1, 10))
    attempts = 0
    while len(edges) < n - 1 + extra_edges and attempts < 200:
        attempts += 1
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key not in edges:
            edges[key] = float(rng.integers(1, 10))
    return WeightedGraph(n, [(u, v, w) for (u, v), w in edges.items()])


class TestWeightedGraph:
    def test_edges_canonical_and_sorted(self):
        g = WeightedGraph(4, [(3, 1, 2.0), (1, 0, 1.0), (2, 3, 1.5)])
        assert g.edges == ((0, 1, 1.0), (1, 3, 2.0), (2, 3, 1.5))

    def test_rejects_duplicate_edge_in_either_orientation(self):
        with pytest.raises(ValueError, match="duplicate"):
            WeightedGraph(3, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self loop"):
            WeightedGraph(3, [(1, 1, 1.0)])

    @pytest.mark.parametrize("w", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_weight(self, w):
        with pytest.raises(ValueError):
            WeightedGraph(3, [(0, 1, w)])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match="out of vertex range"):
            WeightedGraph(3, [(0, 3, 1.0)])

    def test_neighbors_sorted_with_weights(self):
        g = WeightedGraph(4, DIAMOND)
        assert g.neighbors(1) == ((0, 1.0), (2, 2.0), (3, 5.0))
        assert g.degree(1) == 3

    def test_weight_lookup_symmetric(self):
        g = WeightedGraph(4, DIAMOND)
        assert g.weight(3, 2) == g.weight(2, 3) == 1.0
        assert g.has_edge(3, 1) and not g.has_edge(0, 3)
        with pytest.raises(KeyError):
            g.weight(0, 3)

    def test_adjacency_matrix_symmetric_cached(self):
        g = WeightedGraph(4, DIAMOND)
        a = g.adjacency_matrix()
        assert a.shape == (4, 4)
        assert np.array_equal(a, a.T)
        assert a.sum() == 2 * len(DIAMOND)
        assert g.adjacency_matrix() is a

    def test_mean_edge_weight(self):
        g = WeightedGraph(4, DIAMOND)
        assert g.mean_edge_weight() == pytest.approx(13.0 / 5)

    def test_connectivity_queries(self):
        g = WeightedGraph(5, [(0, 1, 1.0), (2, 3, 1.0)])
        assert g.component_of(0) == {0, 1}
        assert g.component_of(4) == {4}
        assert not g.is_connected()
        assert WeightedGraph(4, DIAMOND).is_connected()

    def test_equality_and_hash(self):
        g1 = WeightedGraph(4, DIAMOND)
        g2 = WeightedGraph(4, list(reversed(DIAMOND)))
        assert g1 == g2 and hash(g1) == hash(g2)
        assert g1 != WeightedGraph(4, DIAMOND[:-1])


class TestShortestPaths:
    def test_diamond_distances(self):
        g = WeightedGraph(4, DIAMOND)
        dist, parent = shortest_paths_with_parents(g, 0)
        assert dist == [0.0, 1.0, 3.0, 4.0]
        assert parent == [-1, 0, 1, 2]

    def test_unreachable_is_inf(self):
        g = WeightedGraph(3, [(0, 1, 2.0)])
        d, p = shortest_paths_with_parents(g, 0)
        assert d[2] == math.inf and p[2] == -1

    def test_invalid_source(self):
        g = WeightedGraph(3, [(0, 1, 2.0)])
        with pytest.raises(ValueError):
            shortest_paths_with_parents(g, 5)

    def test_matches_scipy_on_random_graphs(self):
        rng = np.random.default_rng(42)
        for trial in range(25):
            n = int(rng.integers(3, 20))
            g = random_connected_graph(rng, n, int(rng.integers(0, n)))
            rows, cols, vals = [], [], []
            for u, v, w in g.edges:
                rows += [u, v]
                cols += [v, u]
                vals += [w, w]
            mat = csr_matrix((vals, (rows, cols)), shape=(n, n))
            want = scipy_shortest_path(mat, method="D")
            got, _ = all_pairs_shortest_paths(g)
            assert np.allclose(got, want)
            for s in range(n):
                assert np.allclose(shortest_paths_with_parents(g, s)[0], want[s])

    def test_parents_reconstruct_shortest_paths(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = int(rng.integers(3, 15))
            g = random_connected_graph(rng, n, 3)
            dist, parent = shortest_paths_with_parents(g, 0)
            for t in range(n):
                path = reconstruct_path(parent, 0, t)
                assert path[0] == 0 and path[-1] == t
                total = sum(g.weight(a, b) for a, b in zip(path, path[1:]))
                assert total == pytest.approx(dist[t])

    def test_reconstruct_unreachable_raises(self):
        g = WeightedGraph(3, [(0, 1, 2.0)])
        _, parent = shortest_paths_with_parents(g, 0)
        with pytest.raises(ValueError, match="unreachable"):
            reconstruct_path(parent, 0, 2)


@st.composite
def sparse_graphs(draw, max_n=12):
    """Graphs of 1..max_n vertices, often with isolated and unreachable
    vertices; weights include 0.1/0.2/0.3, whose sums round
    (0.1 + 0.2 != 0.3), and arbitrary floats."""
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    weight = st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0, 2.0]) | st.floats(1e-3, 1e3)
    return WeightedGraph(n, [(u, v, draw(weight)) for u, v in chosen])


class TestAllPairsShortestPaths:
    @settings(max_examples=150, deadline=None)
    @given(graph=sparse_graphs())
    @example(graph=WeightedGraph(1, []))
    @example(graph=WeightedGraph(4, [(0, 1, 0.1), (1, 2, 0.2), (0, 2, 0.3)]))
    @example(graph=WeightedGraph(5, [(0, 1, 0.1), (1, 2, 0.2), (0, 3, 0.3), (3, 2, 1e-3)]))
    def test_matches_per_source_dijkstra(self, graph):
        n = graph.vertex_count
        dist, parent = all_pairs_shortest_paths(graph)
        assert dist.shape == parent.shape == (n, n)
        for s in range(n):
            d, p = shortest_paths_with_parents(graph, s)
            assert np.array_equal(dist[s], d)
            assert np.array_equal(parent[s], p)

    def test_source_blocks_agree_with_one_block(self, monkeypatch):
        rng = np.random.default_rng(11)
        graphs = [random_connected_graph(rng, n, n) for n in (5, 17, 40)]
        whole = [all_pairs_shortest_paths(g) for g in graphs]
        monkeypatch.setattr(graph_module, "_APSP_BLOCK_ELEMENTS", 30)
        for g, (dist, parent) in zip(graphs, whole):
            d, p = all_pairs_shortest_paths(g)
            assert np.array_equal(d, dist) and np.array_equal(p, parent)

    def test_parent_rows_reconstruct_int_paths(self):
        g = WeightedGraph(4, DIAMOND)
        _, parent = all_pairs_shortest_paths(g)
        path = reconstruct_path(parent[0], 0, 3)
        assert path == [0, 1, 2, 3]
        assert all(type(v) is int for v in path)


class TestTerminalPaths:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), graph=sparse_graphs())
    def test_rows_are_terminal_dijkstras(self, data, graph):
        # terminals come from one component; other vertices may be isolated
        # or unreachable from them
        comp = sorted(graph.component_of(data.draw(st.integers(0, graph.vertex_count - 1))))
        terms = data.draw(st.lists(st.sampled_from(comp), min_size=1, unique=True))
        inst = StpInstance(graph=graph, terminals=frozenset(terms))
        dist, parent = inst.terminal_paths
        assert dist.shape == parent.shape == (len(terms), graph.vertex_count)
        all_dist, all_parent = all_pairs_shortest_paths(graph)
        for j, t in enumerate(inst.terminal_list):
            d, p = shortest_paths_with_parents(graph, t)
            assert np.array_equal(dist[j], d) and np.array_equal(parent[j], p)
            assert np.array_equal(dist[j], all_dist[t])
            assert np.array_equal(parent[j], all_parent[t])

    def test_built_once_and_read_only(self, monkeypatch):
        calls = []
        real = graph_module.shortest_paths_with_parents
        monkeypatch.setattr(graph_module, "shortest_paths_with_parents",
                            lambda g, s: calls.append(s) or real(g, s))
        inst = StpInstance(graph=WeightedGraph(4, DIAMOND), terminals=frozenset({3, 0}))
        assert inst.terminal_paths is inst.terminal_paths
        assert calls == [0, 3]
        dist, parent = inst.terminal_paths
        assert not dist.flags.writeable and not parent.flags.writeable

    def test_cache_is_not_part_of_equality(self):
        a = StpInstance(graph=WeightedGraph(4, DIAMOND), terminals=frozenset({3, 0}))
        b = StpInstance(graph=WeightedGraph(4, DIAMOND), terminals=frozenset({3, 0}))
        a.terminal_paths
        assert a == b and hash(a) == hash(b)


class TestStpInstance:
    def test_basic_construction(self):
        inst = StpInstance(graph=WeightedGraph(4, DIAMOND), terminals=frozenset({3, 0}))
        assert inst.terminal_list == [0, 3]
        assert inst.known_opt is None and inst.bound is None

    def test_requires_a_terminal(self):
        with pytest.raises(ValueError, match="at least one terminal"):
            StpInstance(graph=WeightedGraph(4, DIAMOND), terminals=frozenset())

    def test_terminal_out_of_range(self):
        with pytest.raises(ValueError, match="out of vertex range"):
            StpInstance(graph=WeightedGraph(4, DIAMOND), terminals=frozenset({9}))

    def test_terminals_must_share_component(self):
        g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValueError, match="not connected"):
            StpInstance(graph=g, terminals=frozenset({0, 3}))
        StpInstance(graph=g, terminals=frozenset({2, 3}))  # same component is fine

    def test_negative_reference_values_rejected(self):
        g = WeightedGraph(4, DIAMOND)
        with pytest.raises(ValueError):
            StpInstance(graph=g, terminals=frozenset({0}), known_opt=-1)
        with pytest.raises(ValueError):
            StpInstance(graph=g, terminals=frozenset({0}), bound=-2)

    def test_id_uses_name_when_present(self):
        g = WeightedGraph(4, DIAMOND)
        assert StpInstance(graph=g, terminals=frozenset({0}), name="abc").id == "abc"
        assert "4v" in StpInstance(graph=g, terminals=frozenset({0})).id
