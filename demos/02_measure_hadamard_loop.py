# The measure-Hadamard loop: a program that almost terminates
# ------------------------------------------------------------
# A while loop measures a qubit in the computational basis; outcome 0 exits,
# outcome 1 applies a Hadamard and loops.  Starting from |->, the exit mass
# after 2n steps is exactly 1 - 2^-n: the program never terminates, but it
# almost terminates, and it reaches the exit in 4 expected steps.

from fractions import Fraction

from qtl import (
    Mat,
    Subspace,
    check_exit_formulas,
    compile_source,
    reachability_superop,
    simulate_deterministic,
)

SOURCE = """
qubits 1;
unitary H = sqrt(1/2) * [[1, 1], [1, -1]];
measurement M = {[[1, 0], [0, 0]], [[0, 0], [0, 1]]};
input [[1/2, -1/2], [-1/2, 1/2]];
skip;
while meas M(q0) == 1 { apply H to q0 }
"""

program = compile_source(SOURCE)
print("locations:", program.locations, " exit:", program.exit_location)

print("\nexact trajectory (per-location blocks):")
for step, state in enumerate(simulate_deterministic(program, 8)):
    blocks = {c: repr(b.trace()) for c, b in sorted(state.blocks.items())}
    print(f"  step {step}: trace by location {blocks}")

print("\nexit mass is exactly 1 - 2^-n at step 2n:")
trajectory = simulate_deterministic(program, 20)
for n in range(1, 11):
    mass = trajectory[2 * n].trace_of("l4")
    assert mass == 1 - Fraction(1, 2**n)
    print(f"  step {2*n:2d}: {mass}")

# The three exit-shaped verdicts
span0 = Subspace.from_vectors(2, [[1, 0]])
verdicts = check_exit_formulas(program, span0)
print("\neventually in |0> at the exit:     ", verdicts.eventually.status)
print("almost surely eventually there:    ", verdicts.almost_eventually.status)
print("always 'output is |0> if exited':  ", verdicts.always.status)

# The almost-sure verdict is exact: the reachable subspace R of the exit
# loop meets the never-exiting subspace T only in zero, and the exit
# arrivals m0 R lie in |0>
almost = verdicts.almost_eventually
print("\nexact <>~ record:", almost.diagnostics)
assert almost.diagnostics["trapped_dim"] == 0

# Reachability: all mass reaches the exit, in 4 expected steps
reach = reachability_superop(program)
print("\nreachable exit mass:", reach.diagnostics["reach_trace"])
print("expected steps to the exit:", reach.expected_steps)
# The program's semantic function, solved exactly: every input leaves the
# loop in |0>, so it has two Kraus operators (|0><0| and |0><1|), and it
# takes the input |-> to the exit state |0><0|
reach_block = reach.channel.apply(program.initial_state)
print("Kraus rank of the semantic function:", reach.kraus_rank)
print("semantic function applied to the input:", reach_block)
assert reach.kraus_rank == 2
assert reach_block == Mat.from_rows([[1, 0], [0, 0]])
