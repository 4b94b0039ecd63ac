import contextlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import (
    finite_difference_grads,
    max_relative_error,
    random_instance,
    scalar_q_value,
)

from steinerkit.qnet import (
    NetInput,
    QNetParams,
    add_grads,
    forward,
    grad,
    init_params,
    load_checkpoint,
    q_values,
    save_checkpoint,
    sgd_step,
    stacked_grad,
    stacked_q_values,
    zero_like,
)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def make_input(rng, n_lo=4, n_hi=8, k=2) -> NetInput:
    inst = random_instance(rng, n_lo=n_lo, n_hi=n_hi, t_max=3)
    n = inst.graph.vertex_count
    adjacency = inst.graph.adjacency_matrix()
    return NetInput(
        x=rng.uniform(0, 1, size=(n, k)),
        s_bits=(rng.random(n) < 0.4).astype(float),
        t_bits=(rng.random(n) < 0.4).astype(float),
        adjacency=adjacency,
        degrees=adjacency.sum(axis=1),
    )


def hand_params_p1(k=1) -> QNetParams:
    """P=1 parameters for the hand-computed fixtures."""
    return QNetParams(
        theta1=np.array([[1.0, 1.0]]),
        theta2=np.array([[2.0]] if k == 1 else [[2.0] * k]),
        w1=np.array([[1.0, 0.5]]),
        b1=np.array([0.25]),
        w2=np.array([[2.0]]),
        b2=np.array([-1.0]),
        theta3=np.array([1.0, -1.0]),
        theta4=np.array([[0.5]]),
        theta5=np.array([[2.0]]),
    )


class TestInit:
    def test_shapes(self):
        p = init_params(8, 3, seed=0)
        assert p.theta1.shape == (8, 2)
        assert p.theta2.shape == (8, 3)
        assert p.w1.shape == (8, 16) and p.b1.shape == (8,)
        assert p.w2.shape == (8, 8) and p.b2.shape == (8,)
        assert p.theta3.shape == (16,)
        assert p.theta4.shape == (8, 8) and p.theta5.shape == (8, 8)
        assert p.p_dim == 8 and p.k == 3

    def test_bounds_follow_fan_in(self):
        p = init_params(16, 4, seed=1)
        assert np.abs(p.theta1).max() <= 1 / np.sqrt(2)
        assert np.abs(p.theta2).max() <= 1 / np.sqrt(4)
        assert np.abs(p.w1).max() <= 1 / np.sqrt(32)
        assert np.abs(p.w2).max() <= 1 / np.sqrt(16)

    def test_seeded_determinism(self):
        a, b = init_params(4, 2, seed=9), init_params(4, 2, seed=9)
        for name, arr in a.as_dict().items():
            assert np.array_equal(arr, b.as_dict()[name])
        c = init_params(4, 2, seed=10)
        assert not np.array_equal(a.theta1, c.theta1)

    def test_validation(self):
        with pytest.raises(ValueError):
            init_params(0, 2, seed=0)

    def test_copy_is_deep(self):
        a = init_params(2, 2, seed=0)
        b = a.copy()
        b.theta1[0, 0] += 1.0
        assert a.theta1[0, 0] != b.theta1[0, 0]


def single_vertex_input(x: float, s_bit: float, t_bit: float) -> NetInput:
    return NetInput(x=np.array([[x]]), s_bits=np.array([s_bit]),
                    t_bits=np.array([t_bit]), adjacency=np.zeros((1, 1)),
                    degrees=np.zeros(1))


def edge_input() -> NetInput:
    """Two in-tree vertices joined by one edge, with features 0.5 and 2, so
    the hand encoder gives mu = [1 + 2*0.5, 1 + 2*2] = [2, 5]."""
    adjacency = np.array([[0.0, 1.0], [1.0, 0.0]])
    return NetInput(x=np.array([[0.5], [2.0]]), s_bits=np.ones(2),
                    t_bits=np.zeros(2), adjacency=adjacency,
                    degrees=adjacency.sum(axis=1))


class TestForwardFixtures:
    def test_encoder_hand_value(self):
        # relu(1*1 + 1*0 + 2*0.5) = 2
        mu = forward(hand_params_p1(), [single_vertex_input(0.5, 1.0, 0.0)]).mu
        assert mu.shape == (1, 1)
        assert mu[0, 0] == 2.0

    def test_encoder_negative_preactivation_clamps(self):
        mu = forward(hand_params_p1(), [single_vertex_input(-3.0, 0.0, 0.0)]).mu
        assert mu[0, 0] == 0.0

    def test_processor_hand_value(self):
        # two connected vertices with mu = [2, 5]:
        # diffs are -3 and +3; z = relu([mu, diff]); through both layers
        cache = forward(hand_params_p1(), [edge_input()])
        assert cache.mu[:, 0].tolist() == [2.0, 5.0]
        assert cache.mu_p[0, 0] == pytest.approx(3.5)
        assert cache.mu_p[1, 0] == pytest.approx(12.5)

    def test_decoder_hand_value(self):
        # mu_p = [3.5, 12.5] pools to 16; the left arm is relu(0.5*16) = 8,
        # the right arm relu(2*mu_p[v]) = 7 and 25
        p = hand_params_p1()
        assert q_values(p, edge_input()).tolist() == [1.0, -17.0]
        # a negative pooled mix rectifies the left arm to 0
        p.theta4 = np.array([[-0.5]])
        assert q_values(p, edge_input()).tolist() == [-7.0, -25.0]

    def test_q_values_single_vertex_graph(self):
        params = init_params(4, 2, seed=3)
        inp = NetInput(x=np.zeros((1, 2)), s_bits=np.ones(1), t_bits=np.ones(1),
                       adjacency=np.zeros((1, 1)), degrees=np.zeros(1))
        q = q_values(params, inp)
        assert q.shape == (1,) and np.isfinite(q).all()


class TestAgainstScalarOracle:
    def test_q_values_match_loop_implementation(self):
        rng = np.random.default_rng(77)
        for trial in range(15):
            params = init_params(int(rng.integers(1, 5)), 2, seed=trial)
            inp = make_input(rng, k=2)
            vec = q_values(params, inp)
            for v in range(inp.x.shape[0]):
                assert vec[v] == pytest.approx(scalar_q_value(params, inp, v),
                                               rel=1e-12, abs=1e-12)

    def test_forward_pure_and_deterministic(self):
        rng = np.random.default_rng(5)
        params = init_params(4, 2, seed=0)
        inp = make_input(rng)
        a = q_values(params, inp)
        b = q_values(params, inp)
        assert np.array_equal(a, b)

    def test_all_values_finite(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            params = init_params(8, 2, seed=trial)
            q = q_values(params, make_input(rng))
            assert np.isfinite(q).all()


class TestPermutationEquivariance:
    def test_relabeling_permutes_q_values(self):
        rng = np.random.default_rng(13)
        for trial in range(10):
            params = init_params(4, 2, seed=trial)
            inp = make_input(rng)
            n = inp.x.shape[0]
            perm = rng.permutation(n)
            pmat = np.eye(n)[perm]  # row i of permuted = row perm[i] of original
            pinp = NetInput(
                x=inp.x[perm],
                s_bits=inp.s_bits[perm],
                t_bits=inp.t_bits[perm],
                adjacency=pmat @ inp.adjacency @ pmat.T,
                degrees=inp.degrees[perm],
            )
            assert np.allclose(q_values(params, pinp), q_values(params, inp)[perm])


class TestGrad:
    def test_zero_residual_zero_gradient(self):
        rng = np.random.default_rng(21)
        params = init_params(3, 2, seed=0)
        inp = make_input(rng)
        y = float(q_values(params, inp)[1])
        loss, g = grad(params, inp, 1, y)
        assert loss == 0.0
        assert all(not arr.any() for arr in g.values())

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        for trial in range(5):
            params = init_params(2, 2, seed=trial + 50)
            inp = make_input(rng, n_lo=4, n_hi=6)
            v = int(rng.integers(inp.x.shape[0]))
            y = float(rng.normal())
            _, analytic = grad(params, inp, v, y)
            numeric = finite_difference_grads(params, inp, v, y)
            assert max_relative_error(analytic, numeric) <= 1e-4

    def test_residual_scaling_scales_gradient(self):
        rng = np.random.default_rng(41)
        params = init_params(3, 2, seed=1)
        inp = make_input(rng)
        q = float(q_values(params, inp)[0])
        _, g1 = grad(params, inp, 0, q - 1.0)
        _, g2 = grad(params, inp, 0, q - 2.0)
        for name in g1:
            assert np.allclose(g2[name], 2.0 * g1[name])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_parameters_reported_with_layer(self):
        rng = np.random.default_rng(43)
        params = init_params(2, 2, seed=0)
        params.theta1[0, 0] = np.inf
        inp = make_input(rng)
        inp.s_bits[:] = 1.0  # make the encoder actually hit the inf weight
        with pytest.raises(FloatingPointError, match="encoder"):
            grad(params, inp, 0, 0.0)


@st.composite
def stacked_batches(draw):
    """Parameters and 1-17 inputs whose sizes mix 1, 2 and up to 60
    vertices, sometimes with one input of at least 100, plus an action and
    a target per input; the arrays come from a drawn seed."""
    p = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 64]))
    k = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.sampled_from([1, 2]) | st.integers(1, 60),
                          min_size=1, max_size=17))
    if draw(st.booleans()):
        sizes[draw(st.integers(0, len(sizes) - 1))] = draw(st.integers(100, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inputs = []
    for n in sizes:
        adjacency = np.triu((rng.random((n, n)) < 0.2).astype(float), 1)
        adjacency += adjacency.T
        inputs.append(NetInput(x=rng.uniform(0, 1, size=(n, k)),
                               s_bits=(rng.random(n) < 0.4).astype(float),
                               t_bits=(rng.random(n) < 0.4).astype(float),
                               adjacency=adjacency, degrees=adjacency.sum(axis=1)))
    params = init_params(p, k, seed=int(rng.integers(2**32)))
    actions = [int(rng.integers(n)) for n in sizes]
    targets = [float(rng.normal()) for _ in sizes]
    return params, inputs, actions, targets


class TestStacked:
    """A stack of inputs priced and differentiated at once gives each input
    the bytes of its own ``q_values`` and ``grad``."""

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stacked_batches())
    def test_stacked_bytes_equal_the_per_input_bytes(self, batch):
        params, inputs, actions, targets = batch
        workspace = {}
        # a first, reversed stack leaves other rows in the reused buffers
        stacked_grad(params, inputs[::-1], actions[::-1], targets[::-1], workspace)
        vectors = stacked_q_values(params, inputs, workspace)
        assert len(vectors) == len(inputs)
        for vec, inp in zip(vectors, inputs):
            assert vec.tobytes() == q_values(params, inp).tobytes()
            assert not any(np.shares_memory(vec, buf) for buf in workspace.values())

        loss, acc = stacked_grad(params, inputs, actions, targets, workspace)
        ref_loss, ref = 0.0, zero_like(params)
        for inp, v, y in zip(inputs, actions, targets):
            sample_loss, g = grad(params, inp, v, y)
            ref_loss += sample_loss
            add_grads(ref, g)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert acc.keys() == ref.keys()
        for name, arr in ref.items():
            assert acc[name].tobytes() == arr.tobytes(), name

    def test_action_outside_its_input_is_an_index_error(self):
        rng = np.random.default_rng(3)
        params = init_params(2, 2, seed=0)
        inputs = [make_input(rng), make_input(rng)]
        with pytest.raises(IndexError, match="not a vertex"):
            stacked_grad(params, inputs, [0, len(inputs[1].s_bits)], [0.0, 0.0])
        with pytest.raises(IndexError, match="not a vertex"):
            grad(params, inputs[0], -1, 0.0)


class TestSgd:
    def test_zero_gradient_no_change(self):
        params = init_params(2, 2, seed=0)
        before = {n: a.copy() for n, a in params.as_dict().items()}
        sgd_step(params, zero_like(params), lr=0.5)
        for name, arr in params.as_dict().items():
            assert np.array_equal(arr, before[name])

    def test_lr_one_gradient_equals_params_zeroes(self):
        params = init_params(2, 2, seed=0)
        g = {n: a.copy() for n, a in params.as_dict().items()}
        sgd_step(params, g, lr=1.0)
        for arr in params.as_dict().values():
            assert not arr.any()

    def test_descent_on_fixed_sample(self):
        rng = np.random.default_rng(61)
        params = init_params(4, 2, seed=2)
        inp = make_input(rng)
        y = float(q_values(params, inp)[0]) + 1.0
        loss0, g = grad(params, inp, 0, y)
        sgd_step(params, g, lr=1e-3)
        loss1, _ = grad(params, inp, 0, y)
        assert loss1 < loss0


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        params = init_params(5, 3, seed=7)
        path = tmp_path / "net.ckpt.json"
        save_checkpoint(params, path, meta={"note": "test"})
        loaded, meta = load_checkpoint(path)
        assert meta == {"note": "test"}
        for name, arr in params.as_dict().items():
            assert np.array_equal(arr, loaded.as_dict()[name])

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "other"}))
        with pytest.raises(ValueError, match="not a qnet-checkpoint"):
            load_checkpoint(path)

    def test_rejects_wrong_version(self, tmp_path):
        params = init_params(2, 2, seed=0)
        path = tmp_path / "net.json"
        save_checkpoint(params, path)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_rejects_header_shape_mismatch(self, tmp_path):
        params = init_params(2, 2, seed=0)
        path = tmp_path / "net.json"
        save_checkpoint(params, path)
        payload = json.loads(path.read_text())
        payload["p_dim"] = 3
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="disagrees"):
            load_checkpoint(path)

    def saved_payload(self, tmp_path):
        path = tmp_path / "net.json"
        save_checkpoint(init_params(2, 2, seed=0), path)
        return path, json.loads(path.read_text())

    def test_rejects_missing_tensor(self, tmp_path):
        path, payload = self.saved_payload(tmp_path)
        del payload["params"]["theta5"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="missing tensor theta5"):
            load_checkpoint(path)

    def test_rejects_misshaped_tensor(self, tmp_path):
        path, payload = self.saved_payload(tmp_path)
        payload["params"]["w1"] = [[0.5]]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=r"tensor w1: shape \(1, 1\)"):
            load_checkpoint(path)

    def test_rejects_non_finite_tensor(self, tmp_path):
        path, payload = self.saved_payload(tmp_path)
        payload["params"]["b2"][1] = float("nan")
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="tensor b2 holds non-finite"):
            load_checkpoint(path)

    def test_rejects_bad_header(self, tmp_path):
        path, payload = self.saved_payload(tmp_path)
        del payload["k"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="p_dim and k"):
            load_checkpoint(path)

    @pytest.mark.parametrize("top", [[], "qnet-checkpoint", 3, None])
    def test_rejects_top_level_that_is_not_an_object(self, tmp_path, top):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(top))
        with pytest.raises(ValueError, match="not a qnet-checkpoint"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field", ["params", "meta"])
    @pytest.mark.parametrize("value", [[], "w1", 7, None])
    def test_rejects_params_or_meta_that_is_not_an_object(self, tmp_path, field, value):
        path, payload = self.saved_payload(tmp_path)
        payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"{field} must be an object"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field", ["version", "p_dim", "k"])
    def test_rejects_boolean_header(self, tmp_path, field):
        # version 1, p_dim 1 and k 1: JSON true must not pass for any of them
        path = tmp_path / "net.json"
        save_checkpoint(init_params(1, 1, seed=0), path)
        payload = json.loads(path.read_text())
        load_checkpoint(path)
        payload[field] = True
        path.write_text(json.dumps(payload))
        message = "version" if field == "version" else "p_dim and k"
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("tensor", [["0.5", "0.5"], [True, False], [0.5, True],
                                        [None, 1.0], [[0.5], [0.5, 0.5]], {"0": 0.5}])
    def test_rejects_non_numeric_tensor(self, tmp_path, tensor):
        path, payload = self.saved_payload(tmp_path)
        payload["params"]["b1"] = tensor
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="tensor b1 is not an array of numbers"):
            load_checkpoint(path)

    def test_integers_past_uint64_are_numbers(self, tmp_path):
        path, payload = self.saved_payload(tmp_path)
        payload["params"]["b1"] = [10**20, 1]
        path.write_text(json.dumps(payload))
        assert load_checkpoint(path)[0].b1.tolist() == [1e20, 1.0]
        payload["params"]["b1"] = [10**400, 1]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="tensor b1 holds non-finite"):
            load_checkpoint(path)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_json_loads_or_raises_value_error(self, tmp_path, data):
        path, payload = self.saved_payload(tmp_path)
        if data.draw(st.booleans()):
            doc = data.draw(JSON_VALUES)
        else:  # a saved checkpoint with one field or tensor replaced
            names = [*payload, *(f"params.{t}" for t in payload["params"])]
            where = data.draw(st.sampled_from(names))
            holder = payload["params"] if where.startswith("params.") else payload
            holder[where.removeprefix("params.")] = data.draw(JSON_VALUES)
            doc = payload
        path.write_text(json.dumps(doc))
        with contextlib.suppress(ValueError):
            load_checkpoint(path)
