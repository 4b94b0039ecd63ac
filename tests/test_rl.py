import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import steinerkit.graph as graph_module
import steinerkit.rl as rl_module
import steinerkit.solvers as solvers_module
from steinerkit.generators import GeneratorConfig, generate
from steinerkit.graph import StpInstance, WeightedGraph
from steinerkit.qnet import init_params, q_values, sgd_step, zero_like
from steinerkit.rl import (
    CurveRow,
    DdqnConfig,
    Learner,
    ReplayBuffer,
    Transition,
    active_search,
    ddqn_target,
    epsilon_at,
    frontier_q_values,
    greedy_rollout,
    instance_static,
    play_episode,
    reset,
    select_action,
    step,
    train,
    train_step,
    write_curve_csv,
)
from steinerkit.solvers import dreyfus_wagner, kmb, verify_tree

# Reward fixture: distances to T={0,3} are rows [0,4],[1,3],[3,1],[4,0],
# scale 4, terminal bonus c = mean weight 2.25.
REWARD_EDGES = [(0, 1, 1.0), (1, 2, 2.0), (1, 3, 5.0), (2, 3, 1.0)]
REWARD_INSTANCE = StpInstance(
    graph=WeightedGraph(4, REWARD_EDGES), terminals=frozenset({0, 3}),
    name="reward-fixture",
)


def small_instance(seed=0, n=8):
    return generate(GeneratorConfig(model="er", n=n, terminal_ratio=0.4,
                                    weight_range=(1.0, 4.0), seed=seed))


def recorded_step(state, v):
    """Take one step and return it as the transition replay would hold."""
    before = state.net_input()
    _, reward = step(state, v)
    return Transition(before=before, action=v, reward=reward,
                      after=state.net_input(),
                      next_frontier=state.frontier, done=state.done)


def fresh_learner(params, cfg):
    """Empty replay sampled under seed 0; the target copies params."""
    buf = ReplayBuffer(cfg.replay_cap, np.random.default_rng(0))
    return Learner(buf, params.copy(), cfg)


def record_only_learner(buf, params):
    """A learner whose warm-up outlasts its buffer: it only records."""
    cfg = DdqnConfig(p_dim=params.p_dim, k=params.k,
                     warmup_batches=buf.capacity + 1)
    return Learner(buf, params.copy(), cfg)


@st.composite
def split_instances(draw):
    """SteinLib-style input: a connected terminal component plus vertices
    outside it (isolated or in their own pieces), ids interleaved."""
    inside, outside = draw(st.integers(2, 7)), draw(st.integers(1, 4))
    ids = draw(st.permutations(range(inside + outside)))
    comp, rest = ids[:inside], ids[inside:]
    weights = {}
    for i in range(1, inside):  # a random spanning tree keeps comp connected
        weights[comp[draw(st.integers(0, i - 1))], comp[i]] = draw(st.integers(1, 9))
    for group in (comp, rest):
        pairs = list(itertools.combinations(group, 2))
        if pairs:
            for a, b in draw(st.lists(st.sampled_from(pairs), max_size=4)):
                if (a, b) not in weights and (b, a) not in weights:
                    weights[a, b] = draw(st.integers(1, 9))
    terminals = draw(st.sets(st.sampled_from(comp), min_size=1))
    graph = WeightedGraph(len(ids), [(a, b, w) for (a, b), w in weights.items()])
    return StpInstance(graph=graph, terminals=frozenset(terminals)), set(rest)


class TestInstanceStatic:
    def test_cached_per_instance(self):
        a = instance_static(REWARD_INSTANCE)
        b = instance_static(REWARD_INSTANCE)
        assert a is b

    def test_fixture_constants(self):
        st = instance_static(REWARD_INSTANCE)
        assert np.array_equal(st.table, [[0, 4], [1, 3], [3, 1], [4, 0]])
        assert st.scale == 4.0
        assert st.bonus_c == pytest.approx(2.25)
        assert list(st.t_bits) == [1.0, 0.0, 0.0, 1.0]

    def test_kmb_and_features_share_one_dijkstra_per_terminal(self, monkeypatch):
        calls = []
        real = graph_module.shortest_paths_with_parents

        def counting(graph, source):
            calls.append(source)
            return real(graph, source)

        monkeypatch.setattr(graph_module, "shortest_paths_with_parents", counting)
        monkeypatch.setattr(solvers_module, "shortest_paths_with_parents", counting)
        instance_static.cache_clear()
        inst = generate(GeneratorConfig(model="rr", n=30, terminal_ratio=0.2,
                                        weight_range=(1.0, 5.0), seed=101))
        kmb(inst)
        st = instance_static(inst)
        assert sorted(calls) == inst.terminal_list
        # the feature table is a view of the instance's own distances
        assert np.shares_memory(st.table, inst.terminal_paths[0])

    def test_instance_played_before_is_released(self):
        a, b = small_instance(seed=31), small_instance(seed=32)
        assert a != b
        gone = weakref.ref(a)
        reset(a)
        reset(b)
        del a
        gc.collect()
        assert gone() is None

    def test_rollout_and_active_search_miss_once(self):
        params = init_params(4, 2, seed=0)
        inst = small_instance(seed=33)
        t = len(inst.terminals)
        instance_static.cache_clear()
        greedy_rollout(inst, params)
        assert instance_static.cache_info() == (t - 1, 1, 1, 1)
        # the first rollout, 60 rounds and one periodic rollout: no new miss
        active_search(inst, params, budget_rounds=60, seed=1)
        assert instance_static.cache_info() == (t - 1 + t + 60 + t, 1, 1, 1)


class TestReset:
    def test_default_start_is_lowest_terminal(self):
        state = reset(REWARD_INSTANCE)
        assert state.in_tree[0] and state.in_tree.sum() == 1
        assert state.frontier == (1,)
        assert not state.done

    def test_explicit_start(self):
        state = reset(REWARD_INSTANCE, start=3)
        assert list(np.flatnonzero(state.in_tree)) == [3]
        assert state.frontier == (1, 2)

    def test_start_must_be_terminal(self):
        with pytest.raises(ValueError, match="not a terminal"):
            reset(REWARD_INSTANCE, start=1)

    def test_random_start_spans_terminals(self):
        rng = np.random.default_rng(7)
        starts = {int(np.flatnonzero(reset(REWARD_INSTANCE, rng=rng).in_tree)[0])
                  for _ in range(40)}
        assert starts == {0, 3}

    def test_single_terminal_is_immediately_done(self):
        inst = StpInstance(graph=WeightedGraph(2, [(0, 1, 1.0)]),
                           terminals=frozenset({1}))
        state = reset(inst)
        assert state.done and state.cost == 0.0

    def test_k_validation(self):
        with pytest.raises(ValueError, match="k must be positive"):
            reset(REWARD_INSTANCE, k=0)

    def test_features_normalized_and_start_deactivated(self):
        state = reset(REWARD_INSTANCE, start=0)
        # only terminal 3 is active; rows hold d(v,3)/4 then zero fill
        assert state.x[1].sum() == pytest.approx(0.75)
        assert state.x[2].sum() == pytest.approx(0.25)
        assert state.x[3].sum() == pytest.approx(0.0)


class TestStepRewards:
    def test_direct_path_rewards(self):
        state = reset(REWARD_INSTANCE, start=0)
        _, r1 = step(state, 1)
        assert r1 == pytest.approx(-1.75)   # -w(0,1) - 3/4
        assert not state.done
        _, r2 = step(state, 3)
        assert r2 == pytest.approx(-2.75)   # -w(1,3) - 0 + 2.25
        assert state.done
        assert state.cost == pytest.approx(6.0)

    def test_detour_path_rewards(self):
        state = reset(REWARD_INSTANCE, start=0)
        step(state, 1)
        _, r2 = step(state, 2)
        assert r2 == pytest.approx(-2.25)   # -w(1,2) - 1/4
        _, r3 = step(state, 3)
        assert r3 == pytest.approx(1.25)    # -w(2,3) - 0 + 2.25
        assert state.done
        assert state.cost == pytest.approx(4.0)

    def test_frontier_update(self):
        state = reset(REWARD_INSTANCE, start=0)
        step(state, 1)
        assert state.frontier == (2, 3)
        assert state.chosen_edges == [(0, 1, 1.0)]

    def test_cheapest_attachment_tie_prefers_lower_endpoint(self):
        inst = StpInstance(
            graph=WeightedGraph(4, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0),
                                    (1, 3, 1.0), (2, 3, 1.0)]),
            terminals=frozenset({0, 3}),
        )
        state = reset(inst, start=0)
        step(state, 1)
        step(state, 2)  # tree neighbors 0 and 1 tie at weight 1
        assert state.chosen_edges[-1] == (0, 2, 1.0)

    def test_illegal_steps(self):
        state = reset(REWARD_INSTANCE, start=0)
        with pytest.raises(ValueError, match="frontier"):
            step(state, 3)
        step(state, 1)
        step(state, 3)
        with pytest.raises(ValueError, match="finished"):
            step(state, 2)

    def test_net_input_isolated_from_later_steps(self):
        state = reset(REWARD_INSTANCE, start=0)
        inp = state.net_input()
        x = inp.x.copy()
        step(state, 1)
        step(state, 3)  # a terminal: the feature rows are replaced
        assert list(inp.s_bits) == [1.0, 0.0, 0.0, 0.0]
        assert np.array_equal(inp.x, x)
        assert list(state.net_input().s_bits) == [1.0, 1.0, 0.0, 1.0]


class TestActionSelection:
    def test_greedy_picks_argmax(self):
        state = reset(REWARD_INSTANCE, start=3)
        assert select_action(state, {1: 0.2, 2: 0.9}, 0.0) == 2

    def test_greedy_tie_goes_to_lowest_vertex(self):
        state = reset(REWARD_INSTANCE, start=3)
        assert select_action(state, {1: 0.5, 2: 0.5}, 0.0) == 1
        # a vertex-indexed vector, as frontier_q_values returns: same rule
        assert select_action(state, np.array([9.0, 0.5, 0.5, 9.0]), 0.0) == 1

    def test_exploration_needs_rng(self):
        state = reset(REWARD_INSTANCE, start=3)
        with pytest.raises(ValueError, match="rng"):
            select_action(state, {1: 0.0, 2: 0.0}, 0.5)

    def test_full_exploration_is_uniform(self):
        state = reset(REWARD_INSTANCE, start=3)
        rng = np.random.default_rng(11)
        counts = {1: 0, 2: 0}
        for _ in range(2000):
            counts[select_action(state, {1: 9.0, 2: 0.0}, 1.0, rng)] += 1
        assert stats.chisquare(list(counts.values())).pvalue > 1e-4

    def test_frontier_q_values_is_the_q_vector(self):
        params = init_params(2, 2, seed=0)
        state = reset(REWARD_INSTANCE, start=3)
        q = frontier_q_values(params, state)
        assert np.array_equal(q, q_values(params, state.net_input()))
        state.frontier = ()
        with pytest.raises(ValueError, match="empty frontier"):
            frontier_q_values(params, state)


class TestDdqnTarget:
    def make_transition(self, done):
        state = reset(REWARD_INSTANCE, start=0)
        tr_mid = recorded_step(state, 1)
        tr_done = recorded_step(state, 3)
        return tr_done if done else tr_mid

    def test_recorded_fields(self):
        tr = self.make_transition(done=False)
        assert tr.next_frontier == (2, 3) and not tr.done
        assert list(tr.before.s_bits) == [1.0, 0.0, 0.0, 0.0]
        assert list(tr.after.s_bits) == [1.0, 1.0, 0.0, 0.0]
        assert self.make_transition(done=True).done

    def test_done_transition_returns_reward(self):
        tr = self.make_transition(done=True)
        params = init_params(2, 2, seed=0)
        assert ddqn_target(tr, params, params, gamma=0.9) == tr.reward

    def test_gamma_zero_returns_reward(self):
        tr = self.make_transition(done=False)
        params = init_params(2, 2, seed=0)
        assert ddqn_target(tr, params, params, gamma=0.0) == pytest.approx(tr.reward)

    def test_identical_nets_reduce_to_max_target(self):
        tr = self.make_transition(done=False)
        params = init_params(3, 2, seed=1)
        q = q_values(params, tr.after)
        expected = tr.reward + 0.5 * max(q[v] for v in tr.next_frontier)
        assert ddqn_target(tr, params, params, gamma=0.5) == pytest.approx(expected)

    def test_double_estimator_uses_env_argmax(self):
        tr = self.make_transition(done=False)
        env = init_params(3, 2, seed=1)
        tgt = init_params(3, 2, seed=2)
        frontier = np.array(tr.next_frontier)
        v_star = frontier[np.argmax(q_values(env, tr.after)[frontier])]
        expected = tr.reward + 0.5 * q_values(tgt, tr.after)[v_star]
        assert ddqn_target(tr, env, tgt, gamma=0.5) == pytest.approx(expected)


class TestGreedyRule:
    """``select_action`` at epsilon 0 and ``ddqn_target`` pick by one rule:
    the highest value, the lowest vertex on ties, a NaN only when first."""

    @pytest.mark.parametrize("q2, q3, expected", [
        (0.5, 0.5, 2),
        (0.1, 0.9, 3),
        (0.9, 0.1, 2),
        (math.nan, 0.9, 2),
        (0.1, math.nan, 2),
    ])
    def test_action_and_target_pick_alike(self, monkeypatch, q2, q3, expected):
        state = reset(REWARD_INSTANCE, start=0)
        tr = recorded_step(state, 1)
        assert state.frontier == tr.next_frontier == (2, 3)
        assert select_action(state, {2: q2, 3: q3}, 0.0) == expected

        env, tgt = init_params(2, 2, seed=0), init_params(2, 2, seed=1)
        q_env = np.array([0.0, 0.0, q2, q3])
        q_tgt = np.array([0.0, 0.0, 20.0, 30.0])  # the pick is readable off the target
        monkeypatch.setattr(rl_module, "q_values",
                            lambda params, _: q_env if params is env else q_tgt)
        assert ddqn_target(tr, env, tgt, gamma=1.0) == tr.reward + 10.0 * expected


class TestReplayBuffer:
    def make(self, cap=3, seed=0):
        return ReplayBuffer(cap, np.random.default_rng(seed))

    def dummy(self, tag):
        inp = reset(REWARD_INSTANCE, start=0).net_input()
        return Transition(before=inp, action=tag, reward=float(tag), after=inp,
                          next_frontier=(1,), done=False)

    def test_ring_overwrites_oldest(self):
        buf = self.make(cap=3)
        for i in range(5):
            buf.push(self.dummy(i))
        assert len(buf) == 3
        held = {t.action for t in buf._data}
        assert held == {2, 3, 4}

    def test_sample_without_replacement(self):
        buf = self.make(cap=10, seed=3)
        for i in range(6):
            buf.push(self.dummy(i))
        batch = buf.sample(6)
        assert sorted(t.action for t in batch) == [0, 1, 2, 3, 4, 5]

    def test_sample_too_large(self):
        buf = self.make()
        buf.push(self.dummy(0))
        with pytest.raises(ValueError, match="holds 1"):
            buf.sample(2)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            self.make(cap=0)


class TestEpsilonSchedule:
    def test_endpoints(self):
        cfg = DdqnConfig(rounds=1000)
        assert epsilon_at(cfg, 0) == pytest.approx(0.1)
        assert epsilon_at(cfg, 400) == pytest.approx(0.05)
        assert epsilon_at(cfg, 800) == 0.0
        assert epsilon_at(cfg, 999) == 0.0

    def test_zero_rounds(self):
        assert epsilon_at(DdqnConfig(rounds=0), 0) == 0.0

    def test_monotone_nonincreasing(self):
        cfg = DdqnConfig(rounds=50)
        values = [epsilon_at(cfg, i) for i in range(50)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"gamma": 1.5}, {"gamma": -0.1}, {"p_dim": 0}, {"k": 0},
        {"batch": 0}, {"lr": 0.0}, {"rounds": -1}, {"target_sync": 0},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            DdqnConfig(**kwargs)

    @pytest.mark.parametrize("field, value", [
        (field, value) for field in ("epsilon_start", "epsilon_end", "epsilon_fraction")
        for value in (2.0, -1.0, math.nan)])
    def test_rejects_epsilon_outside_the_unit_interval(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must lie in \[0, 1\], got {value}$"):
            DdqnConfig(**{field: value})

    @pytest.mark.parametrize("lr", [math.nan, math.inf, -1e-3])
    def test_rejects_lr_that_is_not_a_positive_finite_number(self, lr):
        with pytest.raises(ValueError, match=f"^lr must be positive and finite, got {lr}$"):
            DdqnConfig(lr=lr)

    @pytest.mark.parametrize("kwargs, warm", [
        ({"rounds": 40, "replay_cap": 100}, 160),
        ({"batch": 8, "warmup_batches": 3, "replay_cap": 23}, 24),
        ({"batch": 32, "warmup_batches": 1, "replay_cap": 31}, 32),
    ])
    def test_rejects_replay_that_never_warms(self, kwargs, warm):
        with pytest.raises(ValueError, match=f"^replay_cap {kwargs['replay_cap']} is "
                                             f"below the {warm} transitions"):
            DdqnConfig(**kwargs)
        assert DdqnConfig(**{**kwargs, "replay_cap": warm}).warm_replay == warm


class TestTrainStep:
    def fill_buffer(self, buf, params, n_episodes=3):
        learner = record_only_learner(buf, params)
        rng = np.random.default_rng(5)
        for _ in range(n_episodes):
            play_episode(REWARD_INSTANCE, params, 1.0, rng, learner=learner)
        assert learner.steps == 0

    def test_zero_residual_leaves_params_unchanged(self):
        params = init_params(2, 2, seed=0)
        before = reset(REWARD_INSTANCE, start=0).net_input()
        q = float(q_values(params, before)[1])
        tr = Transition(before=before, action=1, reward=q, after=before,
                        next_frontier=(), done=True)
        buf = ReplayBuffer(4, np.random.default_rng(0))
        buf.push(tr)
        cfg = DdqnConfig(p_dim=2, k=2, batch=1, lr=0.5, rounds=1)
        frozen = {n: a.copy() for n, a in params.as_dict().items()}
        loss = train_step(buf, params, params.copy(), cfg)
        # q_values and grad's forward may differ in the last float ulp
        assert loss < 1e-25
        for name, arr in params.as_dict().items():
            assert np.allclose(arr, frozen[name], atol=1e-14, rtol=0)

    def test_replay_never_looks_up_instance_constants(self):
        params = init_params(2, 2, seed=0)
        buf = ReplayBuffer(200, np.random.default_rng(1))
        self.fill_buffer(buf, params)
        instance_static.cache_clear()
        info = instance_static.cache_info()
        cfg = DdqnConfig(p_dim=2, k=2, batch=len(buf), rounds=1)
        train_step(buf, params, params.copy(), cfg)
        assert instance_static.cache_info() == info

    def test_loss_falls_on_frozen_buffer(self):
        params = init_params(4, 2, seed=2)
        buf = ReplayBuffer(200, np.random.default_rng(1))
        self.fill_buffer(buf, params)
        cfg = DdqnConfig(p_dim=4, k=2, batch=len(buf), lr=1e-2, gamma=0.0,
                         rounds=1)
        target = params.copy()
        first = train_step(buf, params, target, cfg)
        for _ in range(30):
            last = train_step(buf, params, target, cfg)
        assert last < first

    def test_sync_target_is_isolated_copy(self):
        params = init_params(2, 2, seed=0)
        target = params.copy()
        g = zero_like(params)
        g["theta1"][:] = 1.0
        sgd_step(params, g, lr=1.0)
        assert not np.array_equal(params.theta1, target.theta1)


class TestTargetMemo:
    """``Learner.target_q`` prices each replayed successor under the frozen
    target once per target window.  The config keeps replay small next to
    a window's draws, so repeats happen in every window."""

    CONFIG = DdqnConfig(p_dim=2, k=2, batch=4, target_sync=3, warmup_batches=1,
                        lr=1e-2)
    INSTANCES = [REWARD_INSTANCE] + [small_instance(seed) for seed in range(3)]

    def learn(self, learner, params, episodes=16):
        rng = np.random.default_rng(8)
        losses = []
        for i in range(episodes):
            losses += play_episode(self.INSTANCES[i % len(self.INSTANCES)], params,
                                   0.5, rng, learner=learner)[1]
        return losses

    def test_memo_learns_the_bytes_of_the_memo_free_reference(self, monkeypatch):
        calls = []
        real_q_values = rl_module.q_values
        monkeypatch.setattr(rl_module, "q_values",
                            lambda *args: calls.append(1) or real_q_values(*args))

        def run():
            calls.clear()
            params = init_params(2, 2, seed=0)
            learner = fresh_learner(params, self.CONFIG)
            losses = self.learn(learner, params)
            return params, losses, learner.steps, len(calls)

        params, losses, steps, memo_calls = run()
        real_train_step = rl_module.train_step
        monkeypatch.setattr(rl_module, "train_step",  # ddqn_target with no memo
                            lambda buffer, env, target, config, target_q=None:
                            real_train_step(buffer, env, target, config))
        ref_params, ref_losses, ref_steps, ref_calls = run()

        assert steps == ref_steps >= 3 * self.CONFIG.target_sync
        assert memo_calls < ref_calls
        assert losses and np.array(losses).tobytes() == np.array(ref_losses).tobytes()
        for name, arr in params.as_dict().items():
            assert arr.tobytes() == ref_params.as_dict()[name].tobytes()

    def test_memo_holds_the_successors_drawn_since_the_last_sync(self):
        cfg = self.CONFIG
        params = init_params(2, 2, seed=0)
        learner = fresh_learner(params, cfg)
        drawn = []
        sample, observe = learner.buffer.sample, learner.observe

        def recorded_sample(batch):
            drawn.append(sample(batch))
            return drawn[-1]

        def checked_observe(params, transition):
            loss = observe(params, transition)
            window = learner.steps % cfg.target_sync
            since_sync = drawn[len(drawn) - window:] if window else []
            expected = {t for batch in since_sync for t in batch if not t.done}
            assert learner.target_q.keys() == expected
            assert len(learner.target_q) <= window * cfg.batch
            return loss

        learner.buffer.sample, learner.observe = recorded_sample, checked_observe
        self.learn(learner, params)
        assert learner.steps >= 3 * cfg.target_sync
        assert any(t.done for batch in drawn for t in batch)


class TestPlayEpisode:
    def test_invariants_over_many_episodes(self):
        rng = np.random.default_rng(17)
        for seed in range(12):
            inst = small_instance(seed)
            params = init_params(2, 2, seed=seed)
            state, losses = play_episode(inst, params, 0.3, rng)
            assert losses == []
            assert state.done
            tree_vertices = set(np.flatnonzero(state.in_tree).tolist())
            assert set(inst.terminals) <= tree_vertices
            assert len(state.chosen_edges) == len(tree_vertices) - 1
            assert list(state.frontier) == sorted(set(state.frontier))
            assert not set(state.frontier) & tree_vertices
            tree = verify_tree(inst, state.chosen_edges)
            assert tree.cost == pytest.approx(state.cost)

    def test_buffer_receives_every_transition(self):
        buf = ReplayBuffer(100, np.random.default_rng(0))
        params = init_params(2, 2, seed=0)
        learner = Learner(buf, params.copy(),
                          DdqnConfig(p_dim=2, k=2, warmup_batches=101))
        state, losses = play_episode(REWARD_INSTANCE, params, 0.0,
                                     np.random.default_rng(0), learner=learner)
        assert len(buf) == state.in_tree.sum() - 1
        assert losses == []

    def test_each_state_is_stored_once(self):
        inst = small_instance(4, n=12)
        params = init_params(2, 2, seed=4)
        buf = ReplayBuffer(100, np.random.default_rng(4))
        play_episode(inst, params, 0.3, np.random.default_rng(4),
                     learner=record_only_learner(buf, params))
        transitions = buf._data
        assert len(transitions) >= 2
        for prev, nxt in zip(transitions, transitions[1:]):
            assert prev.after is nxt.before

    def test_learner_steps_once_per_transition_after_warmup(self):
        params = init_params(2, 2, seed=0)
        cfg = DdqnConfig(p_dim=2, k=2, batch=2, warmup_batches=1, target_sync=2)
        learner = Learner(ReplayBuffer(100, np.random.default_rng(0)),
                          params.copy(), cfg)
        rng = np.random.default_rng(3)
        total = 0
        for _ in range(4):
            _, losses = play_episode(REWARD_INSTANCE, params, 0.5, rng,
                                     learner=learner)
            total += len(losses)
        # every push from the second on trains once
        assert total == learner.steps == len(learner.buffer) - 1

    def test_frontier_vertex_without_tree_neighbor_raises(self):
        state = reset(REWARD_INSTANCE, start=0)
        state.frontier += (3,)  # corrupt: 3 touches no tree vertex
        with pytest.raises(RuntimeError, match="no tree neighbor"):
            step(state, 3)


class TestEpisodeProperties:
    @settings(max_examples=60, deadline=None)
    @given(case=split_instances(), seed=st.integers(0, 2**16),
           epsilon=st.floats(0.0, 1.0))
    def test_episodes_stay_in_the_terminal_component(self, case, seed, epsilon):
        inst, outside = case
        params = init_params(3, 2, seed=seed)
        buf = ReplayBuffer(100, np.random.default_rng(seed))
        state, _ = play_episode(inst, params, epsilon, np.random.default_rng(seed),
                                learner=record_only_learner(buf, params))
        assert len(buf) == state.in_tree.sum() - 1
        # the start is the one tree vertex before the first step
        first = buf._data[0].before.s_bits if buf._data else state.in_tree
        frontier = reset(inst, start=int(np.flatnonzero(first)[0])).frontier
        assert not outside & set(frontier)
        for tr in buf._data:
            assert tr.action in frontier
            expected = tr.before.s_bits.copy()
            assert expected[tr.action] == 0.0
            expected[tr.action] = 1.0
            assert np.array_equal(tr.after.s_bits, expected)
            frontier = tr.next_frontier
            assert not outside & set(frontier)
        tree = greedy_rollout(inst, params)
        assert verify_tree(inst, tree.edges) == tree
        assert not outside & tree.vertices


class TestTrain:
    def tiny_config(self, **kw):
        base = dict(p_dim=2, k=2, batch=4, lr=1e-3, rounds=10, target_sync=5,
                    warmup_batches=1, replay_cap=500, seed=42,
                    validation_every=5)
        base.update(kw)
        return DdqnConfig(**base)

    def test_zero_rounds_returns_initial_params(self):
        params, curve = train(iter([]), self.tiny_config(rounds=0))
        assert curve == []
        assert params.p_dim == 2 and params.k == 2

    def test_exhausted_stream_raises(self):
        with pytest.raises(ValueError, match="exhausted"):
            train(iter([small_instance(0)]), self.tiny_config(rounds=3))

    def test_deterministic_given_seed(self):
        insts = [small_instance(s) for s in range(3)]
        cfg = self.tiny_config()
        p1, c1 = train(itertools.cycle(insts), cfg)
        p2, c2 = train(itertools.cycle(insts), cfg)
        for name, arr in p1.as_dict().items():
            assert np.array_equal(arr, p2.as_dict()[name])
        assert [(r.round, r.episode_cost, r.epsilon) for r in c1] == \
               [(r.round, r.episode_cost, r.epsilon) for r in c2]

    def test_curve_shape_and_epsilon_column(self):
        insts = [small_instance(s) for s in range(3)]
        cfg = self.tiny_config(rounds=8)
        _, curve = train(itertools.cycle(insts), cfg)
        assert [r.round for r in curve] == list(range(8))
        assert curve[0].epsilon == pytest.approx(0.1)
        assert all(np.isfinite(r.episode_cost) for r in curve)

    def test_validation_tracks_best_params(self):
        insts = [small_instance(s) for s in range(3)]
        cfg = self.tiny_config(rounds=10, validation_every=5)
        params, curve = train(itertools.cycle(insts), cfg,
                              validation_instances=insts[:2])
        gains = [r.gain_on_validation for r in curve]
        assert math.isnan(gains[0])
        assert np.isfinite(gains[-1])
        assert params.p_dim == 2

    def test_zero_classic_validation_instance_rejected_before_round_0(self):
        one = StpInstance(graph=REWARD_INSTANCE.graph, terminals=frozenset({2}),
                          name="one")
        rounds = []
        with pytest.raises(ValueError, match="validation instance one: classic cost 0"):
            train(itertools.cycle([small_instance(0)]),
                  self.tiny_config(rounds=2, validation_every=1),
                  validation_instances=[small_instance(1), one],
                  train_hook=lambda r, _: rounds.append(r))
        assert rounds == []

    def test_write_curve_csv(self, tmp_path):
        rows = [CurveRow(0, 3.5, math.nan, 0.1),
                CurveRow(1, 4.0, 0.25, 0.05, 1.125)]
        path = tmp_path / "curve.csv"
        write_curve_csv(rows, path)
        text = path.read_text().splitlines()
        assert text[0] == "round,episode_cost,mean_loss,epsilon,gain_on_validation"
        assert text[1] == "0,3.5,,0.1,"
        assert text[2] == "1,4.0,0.25,0.05,1.125"


class TestGreedyRollout:
    def test_single_terminal(self):
        inst = StpInstance(graph=WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)]),
                           terminals=frozenset({2}))
        tree = greedy_rollout(inst, init_params(2, 2, seed=0))
        assert tree.cost == 0.0 and tree.edges == ()

    def test_path_graph_is_forced(self):
        inst = StpInstance(
            graph=WeightedGraph(4, [(0, 1, 2.0), (1, 2, 3.0), (2, 3, 1.5)]),
            terminals=frozenset({0, 3}),
        )
        tree = greedy_rollout(inst, init_params(2, 2, seed=0))
        assert tree.cost == pytest.approx(6.5)

    def test_never_beats_exact_and_always_valid(self):
        rng = np.random.default_rng(23)
        for seed in range(8):
            inst = small_instance(seed, n=9)
            params = init_params(2, 2, seed=seed)
            tree = greedy_rollout(inst, params)
            opt = dreyfus_wagner(inst)
            verify_tree(inst, tree.edges)
            assert tree.cost >= opt.cost - 1e-9

    def test_deterministic(self):
        inst = small_instance(3)
        params = init_params(2, 2, seed=5)
        assert greedy_rollout(inst, params) == greedy_rollout(inst, params)


class TestActiveSearch:
    def test_zero_budget_equals_rollout(self):
        inst = small_instance(1)
        params = init_params(2, 2, seed=0)
        tree, adapted = active_search(inst, params, budget_rounds=0)
        assert tree == greedy_rollout(inst, params)
        for name, arr in adapted.as_dict().items():
            assert np.array_equal(arr, params.as_dict()[name])

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            active_search(small_instance(0), init_params(2, 2, seed=0), -1)

    def test_never_worse_than_rollout(self, monkeypatch):
        monkeypatch.setattr(rl_module, "ACTIVE_ROLLOUT_EVERY", 3)  # read at call time
        for seed in range(3):
            inst = small_instance(seed, n=9)
            params = init_params(2, 2, seed=seed)
            cfg = DdqnConfig(p_dim=2, k=2, batch=4, warmup_batches=1,
                             lr=1e-3, rounds=1)
            tree, _ = active_search(inst, params, budget_rounds=6, config=cfg,
                                    seed=seed)
            assert tree.cost <= greedy_rollout(inst, params).cost + 1e-9
            verify_tree(inst, tree.edges)

    def test_epsilon_anneals_over_the_budget_not_config_rounds(self, monkeypatch):
        learning = []
        real_play_episode = rl_module.play_episode

        def recorded(instance, params, epsilon, *args, learner=None, **kwargs):
            if learner is not None:
                learning.append(epsilon)
            return real_play_episode(instance, params, epsilon, *args,
                                     learner=learner, **kwargs)

        monkeypatch.setattr(rl_module, "play_episode", recorded)
        cfg = DdqnConfig(p_dim=2, k=2, batch=4, warmup_batches=1)  # rounds=6000
        active_search(small_instance(1), init_params(2, 2, seed=0), budget_rounds=5,
                      config=cfg)
        # the horizon is int(5 x 0.8) = 4 rounds of the budget
        assert learning == pytest.approx([0.1, 0.075, 0.05, 0.025, 0.0])

    def test_original_params_untouched(self):
        inst = small_instance(2)
        params = init_params(2, 2, seed=1)
        frozen = {n: a.copy() for n, a in params.as_dict().items()}
        cfg = DdqnConfig(p_dim=2, k=2, batch=4, warmup_batches=1, rounds=1)
        active_search(inst, params, budget_rounds=4, config=cfg)
        for name, arr in params.as_dict().items():
            assert np.array_equal(arr, frozen[name])
