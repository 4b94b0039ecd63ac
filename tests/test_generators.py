import numpy as np
import pytest
from scipy.stats import chisquare

from steinerkit.generators import (
    GeneratorConfig,
    _connected_edge_set,
    erdos_renyi_edges,
    generate,
    parse_generator_spec,
    random_regular_edges,
    watts_strogatz_edges,
)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="model"):
            GeneratorConfig(model="grid", n=10)
        with pytest.raises(ValueError, match="n must be"):
            GeneratorConfig(model="rr", n=2)
        with pytest.raises(ValueError, match="terminal_ratio"):
            GeneratorConfig(model="rr", n=10, terminal_ratio=0.0)
        with pytest.raises(ValueError, match="weight_range"):
            GeneratorConfig(model="rr", n=10, weight_range=(3, 1))

    def test_instance_name_encodes_model_size_seed(self):
        cfg = GeneratorConfig(model="ws", n=25, seed=9)
        assert cfg.instance_name == "ws25-s9"


class TestGenerate:
    @pytest.mark.parametrize("model", ["rr", "er", "ws"])
    def test_output_is_connected_with_weights_in_range(self, model):
        for seed in range(5):
            cfg = GeneratorConfig(model=model, n=24, terminal_ratio=0.25,
                                  weight_range=(1, 5), seed=seed)
            inst = generate(cfg)
            assert inst.graph.vertex_count == 24
            assert inst.graph.component_of(0) == set(range(24))
            assert len(inst.terminals) >= 2
            for _, _, w in inst.graph.edges:
                assert 1 <= w <= 5 and w == int(w)

    def test_same_seed_same_instance(self):
        cfg = GeneratorConfig(model="rr", n=20, seed=123)
        a, b = generate(cfg), generate(cfg)
        assert a.graph == b.graph
        assert a.terminals == b.terminals

    def test_different_seeds_differ(self):
        base = GeneratorConfig(model="er", n=20, seed=0)
        a = generate(base)
        b = generate(GeneratorConfig(model="er", n=20, seed=1))
        assert a.graph != b.graph or a.terminals != b.terminals

    def test_terminal_ratio_roughly_respected(self):
        # mean terminal count over seeds should sit near ratio * n
        counts = [
            len(generate(GeneratorConfig(model="er", n=40, terminal_ratio=0.2,
                                         seed=s)).terminals)
            for s in range(30)
        ]
        assert 5.0 <= float(np.mean(counts)) <= 11.0  # 8 expected

    def test_infeasible_config_raises(self):
        # p far below the connectivity threshold can never connect 30 vertices
        cfg = GeneratorConfig(model="er", n=30, p=0.01, seed=0)
        with pytest.raises(ValueError, match="connected"):
            generate(cfg)

    def test_terminal_ratio_that_draws_no_pair_raises(self):
        cfg = GeneratorConfig(model="rr", n=30, terminal_ratio=1e-6, seed=0)
        with pytest.raises(ValueError, match=r"terminal ratio 1e-06 drew fewer than two "
                                             r"of 30 vertices in 1000 draws"):
            generate(cfg)

    def test_terminal_redraws_consume_the_stream_as_an_unbounded_loop(self):
        """Configs that redraw their terminals within the budget keep the
        terminals an unbounded redraw loop gives."""
        redrawn = 0
        for seed in range(20):
            cfg = GeneratorConfig(model="er", n=5, terminal_ratio=0.3, seed=seed)
            rng = np.random.default_rng(np.random.PCG64(seed))
            pairs = _connected_edge_set(cfg, rng)
            rng.integers(1, 6, size=len(pairs))
            mask = rng.random(cfg.n) < cfg.terminal_ratio
            while mask.sum() < 2:
                redrawn += 1
                mask = rng.random(cfg.n) < cfg.terminal_ratio
            assert generate(cfg).terminals == frozenset(np.flatnonzero(mask).tolist())
        assert redrawn > 0


class TestRandomRegular:
    def test_degree_sequence_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            pairs = random_regular_edges(16, 4, rng)
            if pairs is None:
                continue
            deg = np.zeros(16, dtype=int)
            for u, v in pairs:
                assert u < v
                deg[u] += 1
                deg[v] += 1
            assert (deg == 4).all()

    def test_parameter_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="even"):
            random_regular_edges(5, 3, rng)
        with pytest.raises(ValueError, match="degree"):
            random_regular_edges(4, 4, rng)


class TestErdosRenyi:
    def test_edge_count_near_expectation(self):
        rng = np.random.default_rng(1)
        n, p = 60, 0.3
        counts = [len(erdos_renyi_edges(n, p, rng)) for _ in range(20)]
        expected = p * n * (n - 1) / 2
        assert abs(np.mean(counts) - expected) < 0.1 * expected

    def test_p_one_gives_complete_graph(self):
        rng = np.random.default_rng(2)
        assert len(erdos_renyi_edges(10, 1.0, rng)) == 45

    def test_validates_p(self):
        with pytest.raises(ValueError):
            erdos_renyi_edges(10, 0.0, np.random.default_rng(0))


class TestWattsStrogatz:
    def test_beta_zero_is_ring_lattice(self):
        rng = np.random.default_rng(3)
        pairs = watts_strogatz_edges(10, 4, 0.0, rng)
        assert len(pairs) == 10 * 2
        for u in range(10):
            for off in (1, 2):
                v = (u + off) % 10
                assert (min(u, v), max(u, v)) in pairs

    def test_edge_count_preserved_under_rewiring(self):
        rng = np.random.default_rng(4)
        pairs = watts_strogatz_edges(20, 4, 0.5, rng)
        assert len(pairs) == 20 * 2

    def test_validates_k(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="ws_k"):
            watts_strogatz_edges(10, 3, 0.1, rng)


class TestSpecParsing:
    def test_full_spec(self):
        cfg = parse_generator_spec("rr:n=30,m=0.2,d=4,w=1:5", seed=7)
        assert cfg.model == "rr"
        assert cfg.n == 30
        assert cfg.terminal_ratio == 0.2
        assert cfg.d == 4
        assert cfg.weight_range == (1, 5)
        assert cfg.seed == 7

    def test_defaults_when_omitted(self):
        cfg = parse_generator_spec("er")
        assert cfg.model == "er" and cfg.n == 30 and cfg.p is None

    def test_ws_keys(self):
        cfg = parse_generator_spec("ws:n=40,k=6,beta=0.1")
        assert cfg.ws_k == 6 and cfg.ws_beta == 0.1

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown generator key"):
            parse_generator_spec("rr:n=10,zzz=3")

    @pytest.mark.parametrize("spec, key", [("rr:n=5,n=6", "n"), ("rr:N=5,n=5", "n"),
                                           ("er:p=0.2,w=1:3,p=0.4", "p")])
    def test_repeated_key_names_key_and_spec(self, spec, key):
        with pytest.raises(ValueError) as info:
            parse_generator_spec(spec)
        assert str(info.value) == f"generator key {key!r} is repeated in {spec!r}"

    @pytest.mark.parametrize("spec, key", [("rr:n", "n"), ("rr:n=x", "n"),
                                           ("rr:w=a:3", "w"), ("rr:w=1:b", "w"),
                                           ("er:n=20,p=high", "p")])
    def test_bad_value_names_key_and_spec(self, spec, key):
        with pytest.raises(ValueError) as info:
            parse_generator_spec(spec)
        message = str(info.value)
        assert f"generator key {key!r}" in message and repr(spec) in message
        assert "invalid literal" not in message


def test_weight_distribution_uniform():
    # pooled edge weights over many seeds should be uniform on {1..5}
    weights = []
    for s in range(40):
        inst = generate(GeneratorConfig(model="rr", n=20, weight_range=(1, 5),
                                        seed=s))
        weights += [int(w) for _, _, w in inst.graph.edges]
    counts = [weights.count(v) for v in range(1, 6)]
    _, pvalue = chisquare(counts)
    assert pvalue > 1e-4
