"""
NP-hardness in action: SAT, vertex cover, and exact cover as Steiner trees
==========================================================================

Each reduction builds an STP instance and a bound such that the source
problem is a YES-instance exactly when some Steiner tree meets the
bound.  Solving the instance exactly therefore decides the source
problem, and the tree itself decodes back into a certificate: a
satisfying assignment, a vertex cover, or a choice of disjoint triples.
"""

from steinerkit import reduce_mvc, reduce_sat, reduce_x3c


def report(red, witness_label):
    check = red.certify()  # solves exactly, then applies the YES rule
    yes = check["yes_instance"]
    print(f"{red.instance.name}: |V|={red.instance.graph.vertex_count} "
          f"bound {red.bound:g}, optimal cost {check['optimal_cost']:g} "
          f"-> {'YES' if yes else 'NO'}")
    if yes:
        assert check["witness_ok"]
        print(f"  {witness_label}: {check['witness']}")
    return yes


# --- SAT ------------------------------------------------------------
# (x1 or not x2) and (not x1 or x2) is satisfiable; adding (x1) and
# (not x1) to anything is not.
print("satisfiability:")
report(reduce_sat(2, [[1, -2], [-1, 2]]), "assignment")
report(reduce_sat(1, [[1], [-1]]), "assignment")

# The gadget: a chain of variable anchors with a one-detour-per-variable
# choice of literal, and clause terminals that can only hang off chosen
# literal vertices through heavy edges.
red = reduce_sat(2, [[1, -2], [-1, 2]])
chain = [v for v, r in red.roles.items() if r.startswith("chain")]
lits = [v for v, r in red.roles.items() if r.startswith("lit")]
print(f"  gadget: {len(chain)} chain anchors, {len(lits)} literal vertices\n")

# --- Minimum vertex cover -------------------------------------------
# A 4-cycle needs 2 vertices to cover all edges: k=2 is YES, k=1 is NO.
print("vertex cover on a 4-cycle:")
square = [(0, 1), (1, 2), (2, 3), (0, 3)]
report(reduce_mvc(4, square, k=2), "cover")
report(reduce_mvc(4, square, k=1), "cover")
print()

# --- Exact cover by 3-sets ------------------------------------------
# Six elements: two disjoint triples cover exactly; three pairwise
# overlapping triples cannot.
print("exact cover by 3-sets:")
report(reduce_x3c(6, [(0, 1, 2), (3, 4, 5), (1, 2, 3)]), "chosen triples")
report(reduce_x3c(6, [(0, 1, 2), (2, 3, 4), (1, 4, 5)]), "chosen triples")
