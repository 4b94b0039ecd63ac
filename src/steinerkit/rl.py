"""Episode environment and DDQN training for the greedy tree builder.

An episode grows a partial solution S from a start terminal, one frontier
vertex per step, until every terminal is covered.  Rewards are the
negative attachment cost minus the vertex's remaining nearest-terminal
distance mass, plus a bonus for reaching a terminal.  Training is double
deep Q-learning: actions picked by the live network, valued by a frozen
target copy, from uniformly sampled replay.  A replayed transition stores
the network inputs it was played from and led to, so learning never looks
the instance up again.  Every episode is played by ``play_episode``;
``train`` and ``active_search`` learn through one loop around it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .features import feature_scale, knn_features, terminal_distance_matrix
from .graph import StpInstance
from .qnet import (
    NetInput,
    QNetParams,
    add_grads,
    grad,
    init_params,
    q_values,
    sgd_step,
    zero_like,
)
from .solvers import SteinerTree, cost_ratio, kmb, prune, verify_tree


@dataclass(frozen=True)
class InstanceStatic:
    """Per-instance constants shared by every episode on that instance."""

    table: np.ndarray      # (n, |T|) full vertex-to-terminal distances
    scale: float
    t_bits: np.ndarray     # (n,) terminal indicator
    adjacency: np.ndarray
    degrees: np.ndarray
    t_index: dict[int, int]
    bonus_c: float


@lru_cache(maxsize=1)
def instance_static(instance: StpInstance) -> InstanceStatic:
    """The episode constants of ``instance``: its terminal distance table
    and feature scale, terminal indicator and index, adjacency and degrees,
    and the terminal bonus (the mean edge weight).

    Only the instance being played is kept, so a dead instance is not held.
    A rollout's starts, active search's rounds and one instance's bench
    methods look it up back to back and miss once per instance.  ``train``
    misses every round: a generator stream never repeats an instance, and
    a cycled file or directory repeats one only after all the others.  The
    costly tables live on the instance and its graph (``terminal_paths``,
    ``adjacency_matrix``), so a miss recomputes only the cheap vectors.
    """
    table = terminal_distance_matrix(instance)
    adjacency = instance.graph.adjacency_matrix()
    terms = instance.terminal_list
    t_bits = np.zeros(instance.graph.vertex_count)
    t_bits[terms] = 1.0
    return InstanceStatic(
        table=table,
        scale=feature_scale(table),
        t_bits=t_bits,
        adjacency=adjacency,
        degrees=adjacency.sum(axis=1),
        t_index={t: i for i, t in enumerate(terms)},
        bonus_c=instance.graph.mean_edge_weight(),
    )


@dataclass
class EpisodeState:
    """Mutable episode: partial solution, sorted frontier, features, and cost."""

    instance: StpInstance
    static: InstanceStatic
    in_tree: np.ndarray
    frontier: tuple[int, ...]
    chosen_edges: list[tuple[int, int, float]]
    cost: float
    active_mask: np.ndarray
    x: np.ndarray  # normalized feature rows, replaced (never mutated) on updates
    done: bool

    def net_input(self) -> NetInput:
        return NetInput(
            x=self.x,
            s_bits=self.in_tree.astype(float),
            t_bits=self.static.t_bits,
            adjacency=self.static.adjacency,
            degrees=self.static.degrees,
        )


@dataclass(frozen=True, eq=False)
class Transition:
    """One replayed step, holding the network inputs it was played from.

    ``before``/``after`` own their state bits and feature rows (the episode
    replaces, never mutates, them), so later steps leave a transition as
    recorded; the instance constants are shared.  Transitions compare and
    hash by identity.
    """

    before: NetInput
    action: int
    reward: float
    after: NetInput
    next_frontier: tuple[int, ...]
    done: bool


DEFAULT_K = 2
ACTIVE_ROLLOUT_EVERY = 50  # active-search rounds between greedy rollouts


def reset(instance: StpInstance, rng: np.random.Generator | None = None,
          start: int | None = None, k: int = DEFAULT_K) -> EpisodeState:
    """Begin an episode at a terminal (random under rng, else the lowest).

    ``k`` must match the network's feature width; rows are zero-filled when
    fewer than k terminals remain active, so any k >= 1 is legal.
    """
    if k < 1:
        raise ValueError("k must be positive")
    terms = instance.terminal_list
    if start is not None:
        if start not in instance.terminals:
            raise ValueError(f"start vertex {start} is not a terminal")
        v1 = start
    elif rng is not None:
        v1 = terms[int(rng.integers(len(terms)))]
    else:
        v1 = terms[0]

    st = instance_static(instance)
    n = instance.graph.vertex_count
    in_tree = np.zeros(n, dtype=bool)
    in_tree[v1] = True
    active = np.ones(len(terms), dtype=bool)
    active[st.t_index[v1]] = False
    return EpisodeState(
        instance=instance, static=st, in_tree=in_tree,
        frontier=tuple(u for u, _ in instance.graph.neighbors(v1)),
        chosen_edges=[], cost=0.0, active_mask=active,
        x=knn_features(st.table, active, k) / st.scale, done=not active.any(),
    )


def step(state: EpisodeState, v: int) -> tuple[EpisodeState, float]:
    """Attach frontier vertex v by its cheapest edge into S; reward per Eq.-style
    rule: -(attachment weight) - (v's normalized remaining-distance mass),
    plus the instance bonus when v is a terminal.  Mutates and returns state."""
    if state.done:
        raise ValueError("episode already finished")
    if v not in state.frontier:
        raise ValueError(f"vertex {v} is not on the frontier")

    # one walk over v's neighbours: tree ones price the attachment, the rest join the frontier
    frontier = set(state.frontier) - {v}
    w_min, attach = math.inf, -1
    for u, w in state.instance.graph.neighbors(v):
        if not state.in_tree[u]:
            frontier.add(u)
        elif w < w_min:
            w_min, attach = w, u
    if attach < 0:
        raise RuntimeError(f"frontier vertex {v} has no tree neighbor")

    reward = -w_min - float(state.x[v].sum())
    is_terminal = bool(state.static.t_bits[v])
    if is_terminal:
        reward += state.static.bonus_c

    state.in_tree[v] = True
    a, b = (attach, v) if attach < v else (v, attach)
    state.chosen_edges.append((a, b, w_min))
    state.cost += w_min
    state.frontier = tuple(sorted(frontier))

    if is_terminal:
        state.active_mask[state.static.t_index[v]] = False
        state.x = (knn_features(state.static.table, state.active_mask,
                                state.x.shape[1]) / state.static.scale)
        state.done = not state.active_mask.any()
    return state, reward


def greedy_vertex(frontier, q) -> int:
    """The greedy rule: the ``frontier`` vertex of highest ``q[v]``, the lowest on ties."""
    return max(frontier, key=q.__getitem__)


def frontier_q_values(params: QNetParams, state: EpisodeState) -> np.ndarray:
    """The vertex-indexed Q vector of a state that still has a legal action."""
    if not state.frontier:
        raise ValueError("empty frontier")
    return q_values(params, state.net_input())


def select_action(state: EpisodeState, q, epsilon: float,
                  rng: np.random.Generator | None = None) -> int:
    """epsilon-greedy over the frontier; the greedy pick is ``greedy_vertex`` of ``q``."""
    frontier = state.frontier
    if not frontier:
        raise ValueError("empty frontier")
    if epsilon > 0:
        if rng is None:
            raise ValueError("exploration needs an rng")
        if rng.random() < epsilon:
            return int(frontier[int(rng.integers(len(frontier)))])
    return greedy_vertex(frontier, q)


def ddqn_target(transition: Transition, env_params: QNetParams,
                target_params: QNetParams, gamma: float,
                target_q: dict | None = None) -> float:
    """Double estimator: the frozen net prices the live net's ``greedy_vertex`` successor.

    ``target_q`` memoises the frozen net's values of ``transition.after``
    by transition; it is valid only while ``target_params`` stays unchanged.
    """
    if transition.done:
        return transition.reward
    if not transition.next_frontier:
        raise ValueError("non-terminal transition with empty next frontier")
    v_star = greedy_vertex(transition.next_frontier, q_values(env_params, transition.after))
    if target_q is not None and transition in target_q:
        q_tgt = target_q[transition]
    else:
        q_tgt = q_values(target_params, transition.after)
        if target_q is not None:
            target_q[transition] = q_tgt
    return transition.reward + gamma * float(q_tgt[v_star])


class ReplayBuffer:
    """Bounded ring of transitions with seeded uniform batch sampling."""

    def __init__(self, capacity: int, rng: np.random.Generator):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.rng = rng
        self._data: list[Transition] = []
        self._pos = 0

    def push(self, t: Transition) -> None:
        if len(self._data) < self.capacity:
            self._data.append(t)
        else:
            self._data[self._pos] = t
        self._pos = (self._pos + 1) % self.capacity

    def sample(self, batch: int) -> list[Transition]:
        if batch > len(self._data):
            raise ValueError(f"buffer holds {len(self._data)} < batch {batch}")
        idx = self.rng.choice(len(self._data), size=batch, replace=False)
        return [self._data[int(i)] for i in idx]

    def __len__(self) -> int:
        return len(self._data)


@dataclass(frozen=True)
class DdqnConfig:
    """Trainer knobs; defaults follow the reported best settings."""

    p_dim: int = 64
    k: int = DEFAULT_K
    gamma: float = 0.2
    lr: float = 1e-4
    batch: int = 16
    epsilon_start: float = 0.1
    epsilon_end: float = 0.0
    epsilon_fraction: float = 0.8
    target_sync: int = 100
    replay_cap: int = 50_000
    warmup_batches: int = 10
    rounds: int = 6000
    seed: int = 0
    validation_every: int = 500

    def __post_init__(self):
        for name in ("gamma", "epsilon_start", "epsilon_end", "epsilon_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:  # NaN fails too
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        for name in ("p_dim", "k", "batch", "target_sync", "replay_cap",
                     "warmup_batches", "validation_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if self.rounds < 0:
            raise ValueError("rounds must be non-negative")
        if self.replay_cap < self.warm_replay:
            raise ValueError(f"replay_cap {self.replay_cap} is below the {self.warm_replay} "
                             f"transitions replay holds before its first step")

    @property
    def warm_replay(self) -> int:
        """Transitions replay holds before the first SGD step: warmup_batches x batch."""
        return self.warmup_batches * self.batch


def epsilon_at(config: DdqnConfig, round_idx: int) -> float:
    """Linear anneal over the first epsilon_fraction of rounds, then flat end."""
    horizon = int(config.rounds * config.epsilon_fraction)
    if horizon <= 0 or round_idx >= horizon:
        return config.epsilon_end
    t = round_idx / horizon
    return config.epsilon_start + (config.epsilon_end - config.epsilon_start) * t


def train_step(buffer: ReplayBuffer, env_params: QNetParams,
               target_params: QNetParams, config: DdqnConfig,
               target_q: dict | None = None) -> float:
    """One SGD update from a uniform replay batch; returns the mean loss.
    ``target_q`` is ``ddqn_target``'s memo of ``target_params``' values."""
    batch = buffer.sample(config.batch)
    acc = zero_like(env_params)
    total_loss = 0.0
    for tr in batch:
        y = ddqn_target(tr, env_params, target_params, config.gamma, target_q)
        loss, g = grad(env_params, tr.before, tr.action, y)
        total_loss += loss
        add_grads(acc, g)
    for name in acc:
        acc[name] /= config.batch
        if not np.all(np.isfinite(acc[name])):
            raise FloatingPointError(f"non-finite gradient in {name}")
    sgd_step(env_params, acc, config.lr)
    return total_loss / config.batch


@dataclass
class Learner:
    """What an episode learns into: replay, the frozen target, step count,
    and ``target_q``, the frozen target's Q-values of each replayed
    successor state priced since the last re-sync.

    Replay draws a transition again within one target window whenever it
    is small next to the window's ``target_sync x batch`` draws; the memo
    then prices it once.  It is emptied at every re-sync and holds at most
    ``target_sync x batch`` vectors of n floats (finished transitions add
    none), so it also keeps at most that many evicted transitions alive.
    """

    buffer: ReplayBuffer
    target: QNetParams
    config: DdqnConfig
    steps: int = 0
    target_q: dict = field(default_factory=dict, repr=False)

    def observe(self, params: QNetParams, transition: Transition) -> float | None:
        """Record a transition; once replay is warm, take one SGD step on
        ``params`` (returning its loss) and re-sync the target on schedule."""
        self.buffer.push(transition)
        cfg = self.config
        if len(self.buffer) < cfg.warm_replay:
            return None
        loss = train_step(self.buffer, params, self.target, cfg, self.target_q)
        self.steps += 1
        if self.steps % cfg.target_sync == 0:
            self.target = params.copy()
            self.target_q = {}
        return loss


def play_episode(instance: StpInstance, params: QNetParams, epsilon: float,
                 rng: np.random.Generator | None = None, start: int | None = None,
                 learner: Learner | None = None) -> tuple[EpisodeState, list[float]]:
    """Play one epsilon-greedy episode from ``start`` (else a terminal drawn
    by rng, else the lowest).  With a learner, every transition is learned
    from as it happens; returns the finished state and the step losses."""
    state = reset(instance, rng=rng, start=start, k=params.k)
    losses = []
    # one NetInput per visited state: a step's `after` is the next step's `before`
    before = state.net_input() if learner is not None else None
    while not state.done:
        action = select_action(state, frontier_q_values(params, state), epsilon, rng)
        _, reward = step(state, action)
        if learner is not None:
            after = state.net_input()
            loss = learner.observe(params, Transition(
                before=before, action=action, reward=reward,
                after=after, next_frontier=state.frontier,
                done=state.done))
            before = after
            if loss is not None:
                losses.append(loss)
    return state, losses


def _episode_tree(state: EpisodeState) -> SteinerTree:
    return prune(verify_tree(state.instance, state.chosen_edges),
                 state.instance.terminals)


@dataclass
class CurveRow:
    round: int
    episode_cost: float
    mean_loss: float
    epsilon: float
    gain_on_validation: float = math.nan


def write_curve_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["round", "episode_cost", "mean_loss", "epsilon",
                    "gain_on_validation"])
        for r in rows:
            w.writerow([
                r.round,
                repr(r.episode_cost),
                "" if math.isnan(r.mean_loss) else repr(r.mean_loss),
                repr(r.epsilon),
                "" if math.isnan(r.gain_on_validation) else repr(r.gain_on_validation),
            ])


def _learning_episodes(instances, params: QNetParams, config: DdqnConfig,
                       rounds: int, episode_ss, buffer_ss):
    """The loop ``train`` and ``active_search`` share: per round, one episode
    on the next instance, learned into ``params`` as played, with epsilon
    annealed over ``rounds``; yields ``(round, epsilon, state, losses)``.
    Exploration draws from ``episode_ss`` and replay from ``buffer_ss``."""
    episode_rng = np.random.default_rng(np.random.PCG64(episode_ss))
    buffer_rng = np.random.default_rng(np.random.PCG64(buffer_ss))
    learner = Learner(ReplayBuffer(config.replay_cap, buffer_rng), params.copy(), config)
    schedule = replace(config, rounds=max(rounds, 1))
    stream = iter(instances)
    for round_idx in range(rounds):
        if (instance := next(stream, None)) is None:
            raise ValueError(f"instance stream exhausted at round {round_idx}")
        eps = epsilon_at(schedule, round_idx)
        state, losses = play_episode(instance, params, eps, episode_rng, learner=learner)
        yield round_idx, eps, state, losses


def train(instance_stream, config: DdqnConfig,
          validation_instances=None,
          train_hook=None) -> tuple[QNetParams, list[CurveRow]]:
    """DDQN over a stream of instances, one episode per round.

    Returns the parameters that scored the best validation Gain (mean
    rollout cost over the classic baseline), or the final parameters when
    no validation set is supplied, plus the per-round learning curve.
    """
    ss = np.random.SeedSequence(config.seed)
    init_ss, episode_ss, buffer_ss = ss.spawn(3)
    env_params = init_params(config.p_dim, config.k, init_ss)

    val_classic = None
    if validation_instances is not None:
        validation_instances = list(validation_instances)
        val_classic = [kmb(inst).cost for inst in validation_instances]
        zero = [inst.id for inst, ref in zip(validation_instances, val_classic)
                if not ref > 0]
        if zero:
            label = "instances" if len(zero) > 1 else "instance"
            raise ValueError(f"validation {label} {', '.join(zero)}: classic cost 0 "
                             f"leaves the validation Gain undefined")

    curve: list[CurveRow] = []
    best_params = env_params.copy()
    best_gain = math.inf
    last_gain = math.nan

    for round_idx, eps, state, losses in _learning_episodes(
            instance_stream, env_params, config, config.rounds, episode_ss, buffer_ss):
        if validation_instances and (round_idx + 1) % config.validation_every == 0:
            costs = [greedy_rollout(inst, env_params).cost
                     for inst in validation_instances]
            last_gain = float(np.mean([cost_ratio(c, ref) for c, ref
                                       in zip(costs, val_classic)]))
            if last_gain < best_gain:
                best_gain = last_gain
                best_params = env_params.copy()

        curve.append(CurveRow(
            round=round_idx,
            episode_cost=state.cost,
            mean_loss=float(np.mean(losses)) if losses else math.nan,
            epsilon=eps,
            gain_on_validation=last_gain,
        ))
        if train_hook is not None:
            train_hook(round_idx, env_params)

    if validation_instances and best_gain < math.inf:
        return best_params, curve
    return env_params, curve


def greedy_rollout(instance: StpInstance, params: QNetParams) -> SteinerTree:
    """Deterministic policy from every terminal start; cheapest pruned tree
    wins, the earliest start on ties."""
    trees = [_episode_tree(play_episode(instance, params, 0.0, start=start)[0])
             for start in instance.terminal_list]
    return min(trees, key=lambda tree: tree.cost)


def active_search(instance: StpInstance, params: QNetParams, budget_rounds: int,
                  config: DdqnConfig | None = None,
                  seed: int = 0) -> tuple[SteinerTree, QNetParams]:
    """Fine-tune a private parameter copy on one instance while searching.

    Every exploration episode is itself a candidate solution; a greedy
    rollout under the adapted parameters is retried every
    ``ACTIVE_ROLLOUT_EVERY`` rounds.  Epsilon anneals over the budget, and
    the returned tree is never worse than the initial greedy rollout.
    """
    if budget_rounds < 0:
        raise ValueError("budget must be non-negative")
    if config is None:
        config = DdqnConfig(p_dim=params.p_dim, k=params.k, seed=seed)
    local = params.copy()
    episode_ss, buffer_ss = np.random.SeedSequence(seed).spawn(2)

    best = greedy_rollout(instance, local)
    for round_idx, _, state, _ in _learning_episodes(
            [instance] * budget_rounds, local, config, budget_rounds, episode_ss, buffer_ss):
        candidate = _episode_tree(state)
        if candidate.cost < best.cost:
            best = candidate
        if (round_idx + 1) % ACTIVE_ROLLOUT_EVERY == 0:
            candidate = greedy_rollout(instance, local)
            if candidate.cost < best.cost:
                best = candidate
    return best, local
