import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import brute_force_min_cover, brute_force_sat, brute_force_x3c

from steinerkit.reductions import (
    parse_dimacs,
    parse_mvc_source,
    parse_x3c_source,
    reduce_mvc,
    reduce_sat,
    reduce_x3c,
)
from steinerkit.solvers import dreyfus_wagner


def random_cnf(rng, n_vars, n_clauses, width=3):
    clauses = []
    for _ in range(n_clauses):
        size = int(rng.integers(1, width + 1))
        vs = rng.choice(n_vars, size=min(size, n_vars), replace=False) + 1
        clauses.append([int(v) if rng.random() < 0.5 else -int(v) for v in vs])
    return clauses


def random_vc(rng, n, m):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    idx = rng.choice(len(pairs), size=min(m, len(pairs)), replace=False)
    return [pairs[i] for i in sorted(idx)]


class TestParsers:
    def test_dimacs_basic(self):
        text = "c comment\np cnf 3 2\n1 -2 0\n-1 3 0\n"
        n, clauses = parse_dimacs(text)
        assert n == 3
        assert clauses == [[1, -2], [-1, 3]]

    def test_dimacs_clause_spanning_lines(self):
        text = "p cnf 4 1\n1 2\n-3 4 0\n"
        _, clauses = parse_dimacs(text)
        assert clauses == [[1, 2, -3, 4]]

    def test_dimacs_trailing_clause_without_zero(self):
        _, clauses = parse_dimacs("p cnf 2 1\n1 2\n")
        assert clauses == [[1, 2]]

    def test_dimacs_percent_terminator_ignored(self):
        _, clauses = parse_dimacs("p cnf 2 1\n1 0\n%\n")
        assert clauses == [[1]]

    @pytest.mark.parametrize("text,msg", [
        ("p sat 2 1\n1 0\n", "bad problem line"),
        ("1 2 0\n", "before 'p cnf'"),
        ("p cnf 2 1\n5 0\n", "out of range"),
        ("p cnf 2 3\n1 0\n", "promises 3 clauses"),
        ("c nothing here\n", "missing 'p cnf' header"),
        ("p cnf 2 1\n1 -x 0\n", "line 2: '-x' is not an integer"),
        ("p cnf x 2\n", "line 1: 'x' is not an integer"),
    ])
    def test_dimacs_errors(self, text, msg):
        with pytest.raises(ValueError, match=msg):
            parse_dimacs(text)

    def test_mvc_source(self):
        n, edges, k = parse_mvc_source("# graph\n3 2 1\n0 1\n1 2\n")
        assert (n, k) == (3, 1)
        assert edges == [(0, 1), (1, 2)]

    def test_mvc_source_errors(self):
        with pytest.raises(ValueError, match="header"):
            parse_mvc_source("3 2\n0 1\n")
        with pytest.raises(ValueError, match="promises 2 edges"):
            parse_mvc_source("3 2 1\n0 1\n")

    def test_x3c_source(self):
        n, triples = parse_x3c_source("3 2\n0 1 2\n0 2 1\n")
        assert n == 3
        assert triples == [(0, 1, 2), (0, 2, 1)]

    def test_x3c_source_errors(self):
        with pytest.raises(ValueError, match="3 elements"):
            parse_x3c_source("3 1\n0 1\n")
        with pytest.raises(ValueError, match="promises 2 triples"):
            parse_x3c_source("3 2\n0 1 2\n")


class TestSatConstruction:
    def test_sizes_and_roles(self):
        red = reduce_sat(2, [[1, -2], [-1, 2]])
        g = red.instance.graph
        # chain 0..2, four literal vertices, two clause vertices
        assert g.vertex_count == 3 + 4 + 2
        assert sorted(red.roles.values()).count("root") == 0
        assert sum(r.startswith("lit:") for r in red.roles.values()) == 4
        assert sum(r.startswith("clause:") for r in red.roles.values()) == 2
        # 4 detour edges per variable plus one heavy edge per clause literal
        assert g.edge_count == 2 * 4 + 4
        assert red.bound == 2 * 2 + 2 * 6.0

    def test_heavy_edges_exceed_chain_budget(self):
        red = reduce_sat(3, [[1, 2, 3]])
        heavy = 2 * 3 + 2
        weights = {w for _, _, w in red.instance.graph.edges}
        assert weights == {1.0, float(heavy)}

    def test_duplicate_literals_dropped(self):
        red = reduce_sat(1, [[1, 1, 1]])
        assert red.clauses == ((1,),)

    def test_rejects_empty_clause(self):
        with pytest.raises(ValueError, match="empty"):
            reduce_sat(2, [[1], []])

    def test_rejects_out_of_range_literal(self):
        with pytest.raises(ValueError, match="out of range"):
            reduce_sat(2, [[3]])

    def test_deterministic(self):
        a = reduce_sat(3, [[1, -2], [2, 3]])
        b = reduce_sat(3, [[1, -2], [2, 3]])
        assert a.instance == b.instance


class TestSatEquivalence:
    def test_yes_iff_cost_meets_bound(self):
        rng = np.random.default_rng(101)
        yes = no = 0
        for trial in range(25):
            n_vars = int(rng.integers(1, 4))
            clauses = random_cnf(rng, n_vars, int(rng.integers(1, 5)))
            red = reduce_sat(n_vars, clauses)
            tree = dreyfus_wagner(red.instance)
            satisfiable = brute_force_sat(n_vars, clauses) is not None
            meets = tree.cost <= red.bound + 1e-9
            assert meets == satisfiable, f"trial {trial}: {clauses}"
            if satisfiable:
                yes += 1
                witness = red.decode_witness(tree)
                assert red.verify_witness(witness)
            else:
                no += 1
        assert yes >= 3 and no >= 3

    def test_forced_assignment_recovered(self):
        # (x1) and (-x2): only assignment is True, False
        red = reduce_sat(2, [[1], [-2]])
        tree = dreyfus_wagner(red.instance)
        assert tree.cost <= red.bound
        assert red.decode_witness(tree) == [True, False]

    def test_verify_witness_rejects_bad_assignment(self):
        red = reduce_sat(2, [[1], [2]])
        assert red.verify_witness([True, True])
        assert not red.verify_witness([True, False])
        assert not red.verify_witness([True])


class TestMvcConstruction:
    def test_sizes_and_bound(self):
        red = reduce_mvc(4, [(0, 1), (1, 2), (2, 3)], k=2)
        g = red.instance.graph
        assert g.vertex_count == 1 + 4 + 3
        assert sum(1 for _, _, w in g.edges if w == 1.0) == 4 + 2 * 3
        assert red.bound == 3 + 2
        assert len(red.instance.terminals) == 1 + 3

    def test_clique_completion_scale(self):
        source = ([(u, u + 1) for u in range(29)] + [(0, 29)]
                  + [(u, u + 2) for u in range(28)] + [(0, 3), (1, 4)])
        assert len(source) == 60
        red = reduce_mvc(30, source, k=20)
        g = red.instance.graph
        assert g.vertex_count == 1 + 30 + 60  # root + vertex + edge stand-ins
        total = g.vertex_count
        assert g.edge_count == total * (total - 1) // 2
        heavy = red.bound + 1.0
        n_heavy = sum(1 for _, _, w in g.edges if w == heavy)
        n_unit = sum(1 for _, _, w in g.edges if w == 1.0)
        assert n_unit == 30 + 2 * 60
        assert n_heavy == g.edge_count - n_unit

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="at least one edge"):
            reduce_mvc(3, [], k=1)
        with pytest.raises(ValueError, match="bad source edge"):
            reduce_mvc(3, [(0, 3)], k=1)
        with pytest.raises(ValueError, match="duplicate"):
            reduce_mvc(3, [(0, 1), (1, 0)], k=1)
        with pytest.raises(ValueError, match="out of range"):
            reduce_mvc(3, [(0, 1)], k=4)


class TestMvcEquivalence:
    def test_yes_iff_cost_meets_bound(self):
        rng = np.random.default_rng(202)
        yes = no = 0
        for trial in range(20):
            n = int(rng.integers(3, 6))
            m = int(rng.integers(2, 6))
            edges = random_vc(rng, n, m)
            k = int(rng.integers(0, n))
            red = reduce_mvc(n, edges, k)
            tree = dreyfus_wagner(red.instance)
            cover = brute_force_min_cover(n, edges, k)
            meets = tree.cost <= red.bound + 1e-9
            assert meets == (cover is not None), f"trial {trial}"
            if cover is not None:
                yes += 1
                witness = red.decode_witness(tree)
                assert red.verify_witness(witness)
            else:
                no += 1
        assert yes >= 3 and no >= 3

    def test_verify_witness_limits(self):
        red = reduce_mvc(3, [(0, 1), (1, 2)], k=1)
        assert red.verify_witness([1])
        assert not red.verify_witness([0])      # leaves (1,2) uncovered
        assert not red.verify_witness([0, 2])   # covers but exceeds k


class TestX3cConstruction:
    def test_sizes_and_bound(self):
        red = reduce_x3c(6, [(0, 1, 2), (3, 4, 5), (0, 3, 4)])
        g = red.instance.graph
        assert g.vertex_count == 1 + 3 + 6
        assert g.edge_count == 3 + 9
        assert red.bound == 8.0
        assert len(red.instance.terminals) == 7

    def test_uncovered_element_gets_fallback_edge(self):
        red = reduce_x3c(6, [(0, 1, 2)])
        g = red.instance.graph
        heavy = red.bound + 1.0
        fallback = [(u, v) for u, v, w in g.edges if w == heavy]
        assert len(fallback) == 3  # elements 3, 4, 5

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="multiple of 3"):
            reduce_x3c(4, [(0, 1, 2)])
        with pytest.raises(ValueError, match="distinct"):
            reduce_x3c(3, [(0, 0, 1)])
        with pytest.raises(ValueError, match="out of range"):
            reduce_x3c(3, [(0, 1, 5)])


class TestX3cEquivalence:
    def test_yes_iff_cost_meets_bound(self):
        rng = np.random.default_rng(303)
        yes = no = 0
        for trial in range(20):
            q = int(rng.integers(1, 3))
            n_el = 3 * q
            n_triples = int(rng.integers(1, 6))
            triples = []
            for _ in range(n_triples):
                t = tuple(sorted(int(v) for v in
                                 rng.choice(n_el, size=3, replace=False)))
                triples.append(t)
            triples = sorted(set(triples))
            red = reduce_x3c(n_el, triples)
            tree = dreyfus_wagner(red.instance)
            cover = brute_force_x3c(n_el, triples)
            meets = tree.cost <= red.bound + 1e-9
            assert meets == (cover is not None), f"trial {trial}: {triples}"
            if cover is not None:
                yes += 1
                witness = red.decode_witness(tree)
                assert red.verify_witness(witness)
            else:
                no += 1
        assert yes >= 3 and no >= 3

    def test_partition_instance(self):
        red = reduce_x3c(6, [(0, 1, 2), (3, 4, 5)])
        tree = dreyfus_wagner(red.instance)
        assert tree.cost == red.bound
        assert red.decode_witness(tree) == [0, 1]

    def test_verify_witness_rejects_overlap(self):
        red = reduce_x3c(6, [(0, 1, 2), (2, 3, 4), (3, 4, 5)])
        assert red.verify_witness([0, 2])
        assert not red.verify_witness([0, 1])   # overlap on element 2
        assert not red.verify_witness([0])      # leaves 3,4,5 uncovered


class TestMetadata:
    def test_sat_metadata(self):
        red = reduce_sat(2, [[1, -2]])
        meta = red.metadata()
        assert meta["source_kind"] == "sat"
        assert meta["source"] == {"variables": 2, "clauses": 1}
        assert meta["bound"] == red.bound

    def test_mvc_metadata(self):
        red = reduce_mvc(3, [(0, 1)], k=1)
        assert red.metadata()["source"] == {"vertices": 3, "edges": 1, "k": 1}

    def test_x3c_metadata(self):
        red = reduce_x3c(3, [(0, 1, 2)])
        assert red.metadata()["source"] == {"elements": 3, "triples": 1}


@st.composite
def sat_sources(draw):
    """1..3 variables, 1..4 non-empty clauses (repeats and x or not-x allowed)."""
    n_vars = draw(st.integers(1, 3))
    literal = st.integers(1, n_vars) | st.integers(-n_vars, -1)
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=3),
                            min_size=1, max_size=4))
    return n_vars, clauses


@st.composite
def mvc_sources(draw):
    """2..5 vertices, 1..6 distinct edges, any budget 0..n."""
    n = draw(st.integers(2, 5))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=6, unique=True))
    return n, edges, draw(st.integers(0, n))


@st.composite
def x3c_sources(draw):
    """3q elements for q = 1..3 and up to 6 triples, repeats allowed."""
    n_elements = 3 * draw(st.integers(1, 3))
    triple = st.lists(st.integers(0, n_elements - 1), min_size=3, max_size=3, unique=True)
    return n_elements, draw(st.lists(triple, max_size=6))


def assert_verdict_matches(red, source_is_yes: bool) -> None:
    """The exact tree meets the YES-bound iff brute force says YES, and a
    YES tree decodes to a witness the source accepts; ``certify`` reports
    the same verdict, and judges the witness on YES only."""
    tree = dreyfus_wagner(red.instance)
    meets = tree.cost <= red.bound + 1e-9
    assert meets == source_is_yes
    if source_is_yes:
        assert red.verify_witness(red.decode_witness(tree))
    check = red.certify()
    assert list(check) == ["optimal_cost", "bound", "yes_instance", "witness", "witness_ok"]
    assert check["optimal_cost"] == tree.cost and check["bound"] == red.bound
    assert check["yes_instance"] is meets
    assert check["witness_ok"] is (True if source_is_yes else None)


class TestYesBoundProperties:
    @settings(max_examples=60, deadline=None)
    @given(source=sat_sources())
    def test_sat(self, source):
        n_vars, clauses = source
        assert_verdict_matches(reduce_sat(n_vars, clauses),
                               brute_force_sat(n_vars, clauses) is not None)

    @settings(max_examples=60, deadline=None)
    @given(source=mvc_sources())
    def test_mvc(self, source):
        n, edges, k = source
        assert_verdict_matches(reduce_mvc(n, edges, k),
                               brute_force_min_cover(n, edges, k) is not None)

    @settings(max_examples=60, deadline=None)
    @given(source=x3c_sources())
    def test_x3c(self, source):
        n_elements, triples = source
        assert_verdict_matches(reduce_x3c(n_elements, triples),
                               brute_force_x3c(n_elements, triples) is not None)
