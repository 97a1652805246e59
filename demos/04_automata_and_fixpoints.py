# Deciding temporal properties by subspace fixpoints
# ----------------------------------------------------
# Nondeterministic systems become automata: one trace-preserving channel per
# action.  Propositions are finite unions of subspaces, and the temporal
# operators are decided by exact chains of pre-images and images:
#
#   invariance         decreasing chain  Y -> Y  meet  all pre-images
#   stabilization      maximal invariant, then its maximal extension
#   recurrence         loop refinement over union components (needs the
#                      peripheral periods of the loop channels)
#
# The two limit shapes first walk the support graph (one node per reachable
# support, one edge per action).  A lasso there refutes them; when the graph
# closes and holds none, it decides them valid and the fixpoints never run.
# The bit-flip automaton's graph |0> -> |1> -> |0> closes, so its recurrence
# is decided on the graph, and the loop refinement is called on its own below.

from qtl import Mat, QuantumAutomaton, Subspace, SubspaceUnion, SuperOp
from qtl.checker import (
    _always_eventually_by_fixpoints,
    check_always_eventually,
    check_eventually_always,
    check_invariance,
    maximal_extension,
    maximal_invariant,
)

ket0 = Mat.from_rows([[1, 0], [0, 0]])
x_gate = SuperOp.from_unitary(Mat.from_rows([[0, 1], [1, 0]]))
automaton = QuantumAutomaton(2, {"x": x_gate}, ket0)

span0 = Subspace.from_vectors(2, [[1, 0]])
span1 = Subspace.from_vectors(2, [[0, 1]])
line = SubspaceUnion(2, [span0])
both = SubspaceUnion(2, [span0, span1])

print("bit-flip automaton from |0>:")
v = check_invariance(automaton, line)
print("  always in span|0>:", v.status, " witness word:", v.witness["word"])
v = check_invariance(automaton, both)
print("  always in span|0> OR span|1>:", v.status)

print("\nmaximal invariant inside {span|0>}:", maximal_invariant(automaton, line))
print("maximal invariant inside {span|0>, span|1>}:", maximal_invariant(automaton, both))
print("maximal extension of the pair:", maximal_extension(automaton, both))

print("\nstabilization (eventually always):")
print("  into the single line:", check_eventually_always(automaton, line).status)
print("  into the union:      ", check_eventually_always(automaton, both).status)

print("\nrecurrence (always eventually):")
v = check_always_eventually(automaton, line)
print("  returns to span|0>:", v.status, " support graph nodes:", v.diagnostics["graph_nodes"])
v = _always_eventually_by_fixpoints(automaton, line)
print("  the same by loop refinement:", v.status, " loop periods used:", v.diagnostics["periods"])
minus = SubspaceUnion(2, [Subspace.from_vectors(2, [[1, -1]])])
print("  reaches span|->:   ", check_always_eventually(automaton, minus).status)

# Recurrence needs period certificates.  A rational rotation has peripheral
# eigenvalues (3+4i)/5 of infinite order, so the checker refuses to guess:
rotation = SuperOp.from_unitary(Mat.from_rows([["3/5", "4/5"], ["-4/5", "3/5"]]))
spinning = QuantumAutomaton(2, {"r": rotation}, ket0)
v = check_always_eventually(spinning, line)
print("\nirrational rotation recurrence:", v.status)
print("  reason:", v.diagnostics["reason"])
