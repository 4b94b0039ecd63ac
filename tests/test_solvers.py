import hashlib
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    brute_force_steiner_cost,
    edge_subset_steiner_cost,
    random_instance,
    submask_loop_dreyfus_wagner,
)

import steinerkit.graph as graph_module
import steinerkit.solvers as solvers_module
from steinerkit.generators import generate, parse_generator_spec
from steinerkit.graph import StpInstance, WeightedGraph
from steinerkit.reductions import reduce_mvc, reduce_sat, reduce_x3c
from steinerkit.solvers import (
    SteinerTree,
    TreeVerificationError,
    dreyfus_wagner,
    kmb,
    prune,
    verify_tree,
)

DIAMOND = [(0, 1, 1.0), (1, 2, 2.0), (1, 3, 5.0), (2, 3, 1.0)]

# sha256 of every (edges, cost) that dreyfus_wagner returns on golden_instances()
DW_GOLDEN_DIGEST = "3b317969a45a6b5f84c7bc5c94318faa0d1235bf9e28ff4222257ed6e1eeb841"


def diamond_instance(terminals):
    return StpInstance(graph=WeightedGraph(4, DIAMOND),
                       terminals=frozenset(terminals))


class TestVerifyTree:
    def test_valid_tree_from_pairs(self):
        inst = diamond_instance({0, 3})
        tree = verify_tree(inst, [(0, 1), (1, 2), (2, 3)])
        assert tree.cost == 4.0
        assert tree.vertices == {0, 1, 2, 3}
        assert tree.edges == ((0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0))

    def test_triples_accepted_and_weight_checked(self):
        inst = diamond_instance({0, 3})
        tree = verify_tree(inst, [(0, 1, 1.0), (1, 3, 5.0)])
        assert tree.cost == 6.0
        with pytest.raises(TreeVerificationError, match="carries weight"):
            verify_tree(inst, [(0, 1, 2.0), (1, 3, 5.0)])

    def test_rejects_non_graph_edge(self):
        with pytest.raises(TreeVerificationError, match="not a graph edge"):
            verify_tree(diamond_instance({0, 3}), [(0, 3)])

    def test_rejects_duplicate(self):
        with pytest.raises(TreeVerificationError, match="duplicate"):
            verify_tree(diamond_instance({0, 1}), [(0, 1), (1, 0)])

    def test_rejects_cycle(self):
        with pytest.raises(TreeVerificationError, match="cycle"):
            verify_tree(diamond_instance({0, 3}),
                        [(0, 1), (1, 2), (2, 3), (1, 3)])

    def test_rejects_disconnected(self):
        inst = StpInstance(
            graph=WeightedGraph(5, DIAMOND + [(3, 4, 1.0)]),
            terminals=frozenset({0, 4}),
        )
        with pytest.raises(TreeVerificationError, match="disconnected"):
            verify_tree(inst, [(0, 1), (3, 4)])

    def test_rejects_uncovered_terminal(self):
        with pytest.raises(TreeVerificationError, match="uncovered"):
            verify_tree(diamond_instance({0, 3}), [(0, 1), (1, 2)])

    def test_empty_edges_valid_only_for_single_terminal(self):
        tree = verify_tree(diamond_instance({2}), [])
        assert tree.cost == 0.0 and tree.vertices == {2}
        with pytest.raises(TreeVerificationError, match="uncovered"):
            verify_tree(diamond_instance({0, 3}), [])


class TestPrune:
    def test_removes_dangling_chain(self):
        inst = diamond_instance({0, 2})
        tree = verify_tree(inst, [(0, 1), (1, 2), (1, 3), (2, 3)][:3])
        pruned = prune(tree, inst.terminals)
        assert pruned.edges == ((0, 1, 1.0), (1, 2, 2.0))
        assert pruned.cost == 3.0

    def test_keeps_terminal_leaves(self):
        inst = diamond_instance({0, 3})
        tree = verify_tree(inst, [(0, 1), (1, 3)])
        assert prune(tree, inst.terminals) == tree

    def test_peels_chains_iteratively(self):
        g = WeightedGraph(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
        inst = StpInstance(graph=g, terminals=frozenset({0, 1}))
        tree = verify_tree(inst, g.edges)
        pruned = prune(tree, inst.terminals)
        assert pruned.edges == ((0, 1, 1.0),)


class TestKmb:
    def test_forced_suboptimal_fixture(self):
        # star through the center costs 3; direct terminal edges cost 1.9
        # each, so the metric-closure MST picks two of them. Classic 2-approx
        # gap realized: 3.8 vs optimal 3.
        edges = [(0, 3, 1.0), (1, 3, 1.0), (2, 3, 1.0),
                 (0, 1, 1.9), (1, 2, 1.9), (0, 2, 1.9)]
        inst = StpInstance(graph=WeightedGraph(4, edges),
                           terminals=frozenset({0, 1, 2}))
        assert kmb(inst).cost == pytest.approx(3.8)
        assert dreyfus_wagner(inst).cost == pytest.approx(3.0)

    def test_single_terminal(self):
        tree = kmb(diamond_instance({1}))
        assert tree.edges == () and tree.cost == 0.0

    def test_two_terminals_is_shortest_path(self):
        tree = kmb(diamond_instance({0, 3}))
        assert tree.cost == 4.0  # 0-1-2-3, not the direct 1-3 edge

    def test_within_factor_two_of_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            inst = random_instance(rng, n_lo=4, n_hi=9, t_max=4)
            opt = brute_force_steiner_cost(inst)
            got = kmb(inst).cost
            assert opt - 1e-9 <= got <= 2 * opt + 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        inst = random_instance(rng, n_lo=8, n_hi=8)
        assert kmb(inst) == kmb(inst)

    def test_output_is_always_a_valid_tree(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            inst = random_instance(rng)
            tree = kmb(inst)
            again = verify_tree(inst, tree.edges)
            assert again.cost == tree.cost


class TestDreyfusWagner:
    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            inst = random_instance(rng, n_lo=4, n_hi=9, t_max=4)
            assert dreyfus_wagner(inst).cost == pytest.approx(
                brute_force_steiner_cost(inst))

    def test_oracles_agree_with_each_other(self):
        # the vertex-subset oracle itself cross-checked against literal
        # edge-subset enumeration, so the main oracle test stands on two legs
        rng = np.random.default_rng(29)
        for _ in range(15):
            inst = random_instance(rng, n_lo=4, n_hi=6, t_max=3, extra_edges=2)
            assert brute_force_steiner_cost(inst) == pytest.approx(
                edge_subset_steiner_cost(inst))

    def test_two_terminals_equals_shortest_path(self):
        tree = dreyfus_wagner(diamond_instance({0, 3}))
        assert tree.cost == 4.0
        assert tree.edges == ((0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0))

    def test_single_terminal(self):
        assert dreyfus_wagner(diamond_instance({2})).edges == ()

    def test_all_vertices_terminal_is_mst(self):
        inst = diamond_instance({0, 1, 2, 3})
        assert dreyfus_wagner(inst).cost == 4.0  # MST of the diamond

    def test_terminal_cap_enforced(self, monkeypatch):
        g = WeightedGraph(20, [(i, i + 1, 1.0) for i in range(19)])
        inst = StpInstance(graph=g, terminals=frozenset(range(16)))
        with pytest.raises(ValueError, match="cap of 14"):
            dreyfus_wagner(inst)
        monkeypatch.setattr(solvers_module, "DW_TERMINAL_CAP", 16)  # read at call time
        assert dreyfus_wagner(inst).cost == 15.0

    def test_apsp_runs_no_per_source_dijkstra(self, monkeypatch):
        calls = []
        real = graph_module.shortest_paths_with_parents

        def counting(graph, source):
            calls.append(source)
            return real(graph, source)

        monkeypatch.setattr(graph_module, "shortest_paths_with_parents", counting)
        monkeypatch.setattr(solvers_module, "shortest_paths_with_parents", counting)
        dreyfus_wagner(with_terminal_count("er:n=100,w=1:5", 3, 6))
        assert calls == []

    def test_cost_table_is_the_only_table(self):
        # past the (2^(t-1), n) cost table the peak is two scratch buffers,
        # one level's splits and merge result, and the metric; an int32
        # back-pointer table would add half the cost table again
        inst = with_terminal_count("er:n=100,w=1:5", 3, 13)
        cost_table = (1 << 12) * 100 * 8
        tracemalloc.start()
        try:
            dreyfus_wagner(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.3 * cost_table

    def test_deterministic(self):
        rng = np.random.default_rng(31)
        inst = random_instance(rng, n_lo=10, n_hi=10, t_max=5)
        assert dreyfus_wagner(inst) == dreyfus_wagner(inst)

    def test_steiner_vertices_used_when_profitable(self):
        # star whose center is not a terminal: optimum must include it
        edges = [(0, 3, 1.0), (1, 3, 1.0), (2, 3, 1.0),
                 (0, 1, 5.0), (1, 2, 5.0)]
        inst = StpInstance(graph=WeightedGraph(4, edges),
                           terminals=frozenset({0, 1, 2}))
        tree = dreyfus_wagner(inst)
        assert tree.cost == 3.0
        assert 3 in tree.vertices


def with_terminal_count(spec, seed, count):
    """Generated instance whose terminals are ``count`` vertices drawn from ``seed``."""
    inst = generate(parse_generator_spec(spec, seed=seed))
    rng = np.random.default_rng(seed)
    picked = rng.choice(inst.graph.vertex_count, size=count, replace=False)
    return StpInstance(graph=inst.graph, terminals=frozenset(int(v) for v in picked))


def with_outside_vertices():
    """A unit-weight rr component with five vertices outside it (a path
    and two isolated ones) whose ids interleave with the component's."""
    inner = with_terminal_count("rr:n=24,w=1:1", 7, 8)
    outside = [3, 10, 17, 25, 28]
    ids = [v for v in range(29) if v not in outside]
    edges = [(ids[u], ids[v], w) for u, v, w in inner.graph.edges]
    edges += [(3, 17, 2.0), (17, 25, 1.0)]
    return StpInstance(graph=WeightedGraph(29, edges),
                       terminals=frozenset(ids[t] for t in inner.terminals))


def golden_instances():
    """Fixed inputs for the output digest: weighted er at |T| = 2..12,
    tie-heavy unit-weight rr, reduction outputs and a split graph."""
    for count in range(2, 13):
        yield with_terminal_count("er:n=100,w=1:5", 100 + count, count)
    for seed, count in itertools.product(range(3), (4, 7, 10)):
        yield with_terminal_count("rr:n=30,w=1:1", seed, count)
    yield reduce_sat(3, [[1, -2, 3], [-1, 2], [2, -3], [-1, -2, -3], [3], [1, 2]]).instance
    yield reduce_sat(4, [[1, 2], [-1, 3, -4], [2, -3], [-2, 4], [1, -4],
                         [-1, -2, 3], [3, 4], [-3, -4, 1]]).instance
    yield reduce_mvc(6, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5),
                         (4, 5), (0, 5), (2, 5)], 4).instance
    yield reduce_x3c(9, [(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7),
                         (2, 5, 8)]).instance
    yield with_outside_vertices()


def test_dreyfus_wagner_golden_digest():
    """Edges and costs stay byte-identical, tie-breaks included."""
    h = hashlib.sha256()
    for inst in golden_instances():
        tree = dreyfus_wagner(inst)
        h.update(repr((tree.edges, tree.cost)).encode())
    assert h.hexdigest() == DW_GOLDEN_DIGEST


@st.composite
def connected_instances(draw, max_n, max_terminals, max_weight=9, min_terminals=2):
    """Connected graph (a random spanning tree plus extra edges) with
    integer weights and min_terminals..max_terminals terminals."""
    n = draw(st.integers(min_terminals, max_n))
    weight = st.integers(1, max_weight)
    weights = {}
    for v in range(1, n):
        weights[draw(st.integers(0, v - 1)), v] = draw(weight)
    pairs = list(itertools.combinations(range(n), 2))
    for pair in draw(st.lists(st.sampled_from(pairs), max_size=2 * n)):
        weights.setdefault(pair, draw(weight))
    terminals = draw(st.sets(st.integers(0, n - 1), min_size=min_terminals,
                             max_size=min(n, max_terminals)))
    graph = WeightedGraph(n, [(u, v, w) for (u, v), w in weights.items()])
    return StpInstance(graph=graph, terminals=frozenset(terminals))


class TestDreyfusWagnerProperties:
    @settings(max_examples=80, deadline=None)
    @given(inst=connected_instances(max_n=8, max_terminals=5))
    def test_cost_matches_brute_force(self, inst):
        assert dreyfus_wagner(inst).cost == pytest.approx(brute_force_steiner_cost(inst))

    @settings(max_examples=40, deadline=None)
    @given(inst=connected_instances(max_n=40, max_terminals=9))
    def test_tree_is_valid_and_bounds_kmb(self, inst):
        tree = dreyfus_wagner(inst)
        assert verify_tree(inst, tree.edges) == tree
        approx = kmb(inst).cost
        assert tree.cost - 1e-9 <= approx <= 2 * tree.cost + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(inst=connected_instances(max_n=30, max_terminals=8, max_weight=2))
    def test_same_tree_as_the_submask_loop(self, inst):
        # weights 1..2 tie many splits and relaxations
        assert dreyfus_wagner(inst) == submask_loop_dreyfus_wagner(inst)

    @settings(max_examples=15, deadline=None)
    @given(inst=connected_instances(max_n=20, max_terminals=10, max_weight=2,
                                    min_terminals=10))
    def test_same_tree_as_the_submask_loop_at_ten_terminals(self, inst):
        # levels with up to 255 splits per mask; a tiny element budget also
        # cuts every level into many merge rectangles and relaxation blocks
        reference = submask_loop_dreyfus_wagner(inst)
        assert dreyfus_wagner(inst) == reference
        with mock.patch.object(solvers_module, "_DW_BLOCK_ELEMENTS", 97):
            assert dreyfus_wagner(inst) == reference


@pytest.mark.parametrize("t", range(2, 9))
def test_split_table_holds_every_half_with_the_lowest_bit(t):
    masks = np.arange(1 << t)
    popcount = np.array([bin(m).count("1") for m in masks])
    for k in range(2, t + 1):
        level = masks[popcount == k]
        halves = solvers_module._dw_halves(level, k)
        assert halves.shape == ((1 << (k - 1)) - 1, len(level))
        for col, mask in zip(halves.T, level):
            low = mask & -mask
            expected = [sub for sub in range(1, mask) if sub & mask == sub and sub & low]
            assert list(col) == expected  # ascending, so _dw_backtrack reverses it


class TestVerifyTreeRejectsMutations:
    """A solver's tree passes; the same tree with one edge dropped,
    duplicated or re-weighted does not."""

    @settings(max_examples=60, deadline=None)
    @given(inst=connected_instances(max_n=12, max_terminals=6), data=st.data())
    def test_mutated_tree_rejected(self, inst, data):
        edges = list(dreyfus_wagner(inst).edges)
        assert verify_tree(inst, edges).edges == tuple(edges)
        i = data.draw(st.integers(0, len(edges) - 1))
        u, v, w = edges[i]
        new_w = data.draw(st.sampled_from([w + 1, w / 2, np.nextafter(w, np.inf)]))
        mutants = [edges[:i] + edges[i + 1:],
                   edges + [edges[i]],
                   edges[:i] + [(u, v, new_w)] + edges[i + 1:]]
        for mutant in mutants:
            with pytest.raises(TreeVerificationError):
                verify_tree(inst, mutant)


def test_steiner_tree_repr():
    t = SteinerTree(edges=((0, 1, 2.0),), cost=2.0, vertices=frozenset({0, 1}))
    assert "cost=2" in repr(t)
