"""
Anatomy of the Q-network: encode, process, decode
=================================================

The action-value network runs in three stages, all plain numpy.
``forward`` runs the first two and caches each one's output;
``q_values`` adds the third:

  1. encode  - each vertex v gets an embedding from [in-tree bit,
               terminal bit] and its K-nearest-terminal distance row x_v.
  2. process - one round of message passing; each vertex aggregates its
               embedding differences against neighbors and pushes the
               concatenation through two dense relu layers.
  3. decode  - Q(S, v) reads out a pooled graph embedding next to the
               candidate vertex's own embedding.

This script walks a 4-vertex instance through the stages, then checks
the hand-coded backward pass against central finite differences.
"""

import numpy as np

from steinerkit import StpInstance, WeightedGraph, init_params
from steinerkit.qnet import forward, grad, q_values
from steinerkit.rl import greedy_vertex, reset

instance = StpInstance(
    graph=WeightedGraph(4, [(0, 1, 1.0), (1, 2, 2.0), (1, 3, 5.0), (2, 3, 1.0)]),
    terminals=frozenset({0, 3}),
    name="path-with-detour",
)

# An episode state supplies the network input: normalized feature rows x,
# the in-tree indicator, the terminal indicator, and the adjacency.
state = reset(instance, start=0, k=2)
inp = state.net_input()
print("x (normalized nearest-terminal distances):")
print(inp.x)
print("s_bits:", inp.s_bits, " t_bits:", inp.t_bits)

params = init_params(p_dim=4, k=2, seed=0)

# Stage by stage.  The embedding matrix has one row per vertex.
cache = forward(params, inp)
print("\nencoded mu shape:", cache.mu.shape)
print(cache.mu)
print("processed mu' shape:", cache.mu_p.shape)
print(cache.mu_p)

# q_values decodes every vertex at once from the processed embeddings;
# only frontier vertices are legal actions, here just vertex 1.
q = q_values(params, inp)
for v in range(4):
    print(f"  Q(S, {v}) = {q[v]:+.4f}")
print("\nfrontier:", state.frontier, "-> greedy action",
      greedy_vertex(state.frontier, q))

# Backward check: perturb one weight at a time and compare the slope of
# the squared-residual loss to the analytic gradient.
target = 0.5
v = 1
_, analytic = grad(params, inp, v, target)
step = 1e-5
worst = 0.0
for name, tensor in params.as_dict().items():
    it = np.nditer(tensor, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        keep = tensor[idx]
        tensor[idx] = keep + step
        up = (q_values(params, inp)[v] - target) ** 2
        tensor[idx] = keep - step
        dn = (q_values(params, inp)[v] - target) ** 2
        tensor[idx] = keep
        numeric = (up - dn) / (2 * step)
        denom = max(abs(numeric), abs(analytic[name][idx]), 1.0)
        worst = max(worst, abs(numeric - analytic[name][idx]) / denom)
print(f"\nmax relative gradient error across all weights: {worst:.2e}")
assert worst <= 1e-4
