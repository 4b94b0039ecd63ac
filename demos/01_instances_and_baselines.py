"""
Building Steiner instances and comparing the two reference solvers
==================================================================

An STP instance is a weighted undirected graph plus a set of required
terminals.  This script builds instances three ways (by hand, from the
SteinLib text format, and from seeded random generators), then solves
each with the MST-based 2-approximation ("classic") and the exact
Dreyfus-Wagner dynamic program.
"""

from steinerkit import (
    GeneratorConfig,
    StpInstance,
    WeightedGraph,
    cost_ratio,
    dreyfus_wagner,
    generate,
    kmb,
    parse_steinlib,
    write_steinlib,
)

# A diamond with a cheap detour: the direct terminal-to-terminal edges
# (0,2) and (1,3) are expensive, so the optimum routes through the middle.
graph = WeightedGraph(4, [(0, 1, 1.0), (0, 2, 4.0), (1, 2, 2.0),
                          (1, 3, 5.0), (2, 3, 1.0)])
instance = StpInstance(graph=graph, terminals=frozenset({0, 3}), name="diamond")

classic = kmb(instance)
exact = dreyfus_wagner(instance)
print(f"{instance.name}: classic cost {classic.cost:g}, exact cost {exact.cost:g}")
print("exact tree edges:", exact.edges)

# The same instance round-trips through the SteinLib text format.
text = write_steinlib(instance)
print("\nSteinLib encoding:")
print(text)
assert parse_steinlib(text).graph == instance.graph

# Random ensembles come from three seeded models: random-regular (rr),
# Erdos-Renyi (er), and Watts-Strogatz (ws).  The same seed always
# yields the same instance.
print("Gain = solver cost / classic cost (lower is better, 1.0 = tie)")
for model in ("rr", "er", "ws"):
    cfg = GeneratorConfig(model=model, n=20, terminal_ratio=0.25,
                          weight_range=(1.0, 5.0), seed=11)
    inst = generate(cfg)
    c = kmb(inst).cost
    e = dreyfus_wagner(inst).cost
    print(f"  {inst.name}: |V|={inst.graph.vertex_count} "
          f"|E|={inst.graph.edge_count} |T|={len(inst.terminals)} "
          f"classic {c:g} exact {e:g} gain {cost_ratio(e, c):.3f}")

# The 2-approximation guarantee: classic never exceeds twice the optimum.
for seed in range(5):
    inst = generate(GeneratorConfig(model="er", n=15, terminal_ratio=0.3,
                                    weight_range=(1.0, 5.0), seed=seed))
    ratio = kmb(inst).cost / dreyfus_wagner(inst).cost
    assert 1.0 - 1e-9 <= ratio <= 2.0
    print(f"seed {seed}: classic/exact = {ratio:.3f}")
