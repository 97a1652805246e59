# Every deterministic program is one while loop
# ----------------------------------------------
# A deterministic program with exit, however branched, is equivalent to a
# single while statement on the bigger space H (x) locations: the loop guard
# measures "at the exit?" and the body is the program's one-step channel.
# The equivalence is exact at every step, not just in the limit.

from qtl import (
    bohm_jacopini,
    compile_source,
    embed,
    initial_cq,
    simulate_deterministic,
)

SOURCE = """
qubits 1;
unitary H = sqrt(1/2) * [[1, 1], [1, -1]];
unitary X = [[0, 1], [1, 0]];
measurement M = {[[1, 0], [0, 0]], [[0, 0], [0, 1]]};
q0 := |0>;
apply H to q0;
if meas M(q0) { 0 -> skip; 1 -> apply X to q0; };
while meas M(q0) == 1 { apply H to q0 }
"""

program = compile_source(SOURCE)
print("compiled locations:", len(program.locations), " exit:", program.exit_location)

nf = bohm_jacopini(program)
print("normal form body channel:", nf.body_channel)
print("guard projections:  m0 + m1 = I:", (nf.m0 + nf.m1).is_hermitian())

sigma0 = embed(initial_cq(program), program)
trajectory = simulate_deterministic(program, 32)

# run the while loop itself: collect m0 sigma m0, apply the body to m1 sigma m1
print("\nexit blocks agree exactly at every step:")
sigma, collected = sigma0, nf.m0 @ sigma0 @ nf.m0
for k in range(33):
    assert collected == nf.m0 @ embed(trajectory[k], program) @ nf.m0
    sigma = nf.body_channel.apply(nf.m1 @ sigma @ nf.m1)
    collected = collected + nf.m0 @ sigma @ nf.m0
print("  checked k = 0 .. 32")

print("\nexit mass over time:")
for k in (0, 2, 4, 8, 16, 32):
    print(f"  step {k:2d}: {trajectory[k].trace_of(program.exit_location)}")
