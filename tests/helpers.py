"""Shared fixtures and exact random-instance generators for the test suite.

Channels are generated exactly trace preserving: signed-phase permutations,
rational rotations (Pythagorean), projective measurement channels, resets,
square-weight mixtures and compositions thereof.  The "finite order" subset
restricts to constructions whose peripheral eigenvalues are roots of unity,
which the period-detection paths of the checker can certify.
"""

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg

from qtl.checker import _PERIOD_BOUND, Verdict
from qtl.errors import DimensionMismatch, PreconditionViolated, QtlError, SingularMatrix, UncertifiedPeriod
from qtl.linalg import CRat, Mat, _peripheral_period, _perp_rows, kron, mat_power, mat_sum, rref, solve
from qtl.subspace import Subspace, SubspaceUnion, satisfies, support
from qtl.superop import MatrixRep, Measurement, SuperOp, hvec, image, least_fixpoint, preimage, unvec, vec
from qtl.checker import check_terminates, reachability_superop
from qtl.program import (
    CQState,
    ConcurrentProcess,
    ConcurrentProgram,
    LocationAction,
    QuantumAutomaton,
    SequentialProgram,
    coordinates,
    place_subspaces,
    simulate_deterministic,
    step_superop,
)

EXAMPLE_LOOP_SRC = """
qubits 1;
unitary H = sqrt(1/2) * [[1, 1], [1, -1]];
measurement M = {[[1, 0], [0, 0]], [[0, 0], [0, 1]]};
input [[1/2, -1/2], [-1/2, 1/2]];
skip;
while meas M(q0) == 1 { apply H to q0 }
"""

# while q0 = 1, apply X twice: the input |1> never exits, the input I/2
# exits with probability one half, and from |0> the trap is unreachable
_TRAP_LOOP_SRC = """qubits 1;
unitary X = [[0, 1], [1, 0]];
measurement M = {{[[1, 0], [0, 0]], [[0, 0], [0, 1]]}};
input {};
while meas M(q0) == 1 {{ apply X to q0; apply X to q0 }}
"""
NEVER_EXITS_SRC = _TRAP_LOOP_SRC.format("[[0, 0], [0, 1]]")
PARTIALLY_TRAPPED_SRC = _TRAP_LOOP_SRC.format("[[1/2, 0], [0, 1/2]]")
UNREACHED_TRAP_SRC = _TRAP_LOOP_SRC.format("[[1, 0], [0, 0]]")

# the 2-qubit member of the measure-Hadamard loop family: U = sqrt(1/2) (H x I) CX
TWO_QUBIT_LOOP_SRC = """qubits 2;
unitary U = sqrt(1/2) * [[1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, -1], [0, 1, -1, 0]];
measurement M = {[[1, 0], [0, 0]], [[0, 0], [0, 1]]};
input [[1/2, 0, -1/2, 0], [0, 0, 0, 0], [-1/2, 0, 1/2, 0], [0, 0, 0, 0]];
skip;
while meas M(q0) == 1 { apply U to q0, q1 }
"""

# the 3-qubit member: U = sqrt(1/2) (H x I x I) (CX x I), input |-> x |00>
THREE_QUBIT_LOOP_SRC = """qubits 3;
unitary U = sqrt(1/2) * [[1, 0, 0, 0, 0, 0, 1, 0], [0, 1, 0, 0, 0, 0, 0, 1], [0, 0, 1, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 1, 0, 0], [1, 0, 0, 0, 0, 0, -1, 0], [0, 1, 0, 0, 0, 0, 0, -1], [0, 0, 1, 0, -1, 0, 0, 0], [0, 0, 0, 1, 0, -1, 0, 0]];
measurement M = {[[1, 0], [0, 0]], [[0, 0], [0, 1]]};
input [[1/2, 0, 0, 0, -1/2, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0], [-1/2, 0, 0, 0, 1/2, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0]];
skip;
while meas M(q0) == 1 { apply U to q0, q1, q2 }
"""


def _qw_rows(rows) -> str:
    return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in rows) + "]"


# the 4-qubit member (D = 64): U = sqrt(1/2) (H x I x I x I) (CX x I x I),
# input |-> x |000>
_U4 = np.kron([[1, 1], [1, -1]], np.eye(8, dtype=int)) @ np.kron(np.eye(4, dtype=int)[[0, 1, 3, 2]], np.eye(4, dtype=int))
_RHO4 = np.kron([[Fraction(1, 2), Fraction(-1, 2)], [Fraction(-1, 2), Fraction(1, 2)]], np.diag([1] + [0] * 7))
FOUR_QUBIT_LOOP_SRC = f"""qubits 4;
unitary U = sqrt(1/2) * {_qw_rows(_U4.tolist())};
measurement M = {{[[1, 0], [0, 0]], [[0, 0], [0, 1]]}};
input {_qw_rows(_RHO4.tolist())};
skip;
while meas M(q0) == 1 {{ apply U to q0, q1, q2, q3 }}
"""


def rotation_loop_src(n):
    """while q0 = 1, rotate q0 by the rational rotation of t = 1/n, from |1>.

    U = [[a, -b], [b, a]] with a = (n^2-1)/(n^2+1), b = 2n/(n^2+1).  The
    cut body has spectral radius a^2 < 1, so the loop exits with
    probability one; for n = 10^5 and 10^6, a^2 lies within 10^-9 of one.
    """
    a, b = f"{n * n - 1}/{n * n + 1}", f"{2 * n}/{n * n + 1}"
    return f"""qubits 1;
unitary U = [[{a}, -{b}], [{b}, {a}]];
measurement M = {{[[1, 0], [0, 0]], [[0, 0], [0, 1]]}};
input [[0, 0], [0, 1]];
while meas M(q0) == 1 {{ apply U to q0 }}
"""


def rotation_loop_with_unreached_trap_src(n):
    """The rotation loop of ``rotation_loop_src(n)`` with a second qubit q1
    that selects the body: the rotation on q1 = 0, skip on q1 = 1.  From
    q0 q1 = |10> the loop exits almost surely; |11> is a trap (eigenvalue
    one of the cut) that the input never enters."""
    a, b = f"{n * n - 1}/{n * n + 1}", f"{2 * n}/{n * n + 1}"
    return f"""qubits 2;
unitary U = [[{a}, -{b}], [{b}, {a}]];
measurement M = {{[[1, 0], [0, 0]], [[0, 0], [0, 1]]}};
input [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]];
while meas M(q0) == 1 {{ if meas M(q1) {{ 0 -> apply U to q0; 1 -> skip; }} }}
"""


def rotation_loop_with_minus_trap_src(n):
    """The rotation loop of ``rotation_loop_src(n)`` with a second qubit q1
    measured in the |+>, |-> basis: the rotation on |+>, skip on |->.  From
    q0 q1 = |1+> the loop exits almost surely, after 3(n^2+1)^2/(4n^2) + 1
    expected steps; |1-> is a trap that the input never enters."""
    a, b = f"{n * n - 1}/{n * n + 1}", f"{2 * n}/{n * n + 1}"
    return f"""qubits 2;
unitary U = [[{a}, -{b}], [{b}, {a}]];
measurement M = {{[[1, 0], [0, 0]], [[0, 0], [0, 1]]}};
measurement S = {{[[1/2, 1/2], [1/2, 1/2]], [[1/2, -1/2], [-1/2, 1/2]]}};
input [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1/2, 1/2], [0, 0, 1/2, 1/2]];
while meas M(q0) == 1 {{ if meas S(q1) {{ 0 -> apply U to q0; 1 -> skip; }} }}
"""


KET_MINUS_DENSITY = Mat.from_rows([["1/2", "-1/2"], ["-1/2", "1/2"]])
KET_PLUS_DENSITY = Mat.from_rows([["1/2", "1/2"], ["1/2", "1/2"]])

PAULI_X = Mat.from_rows([[0, 1], [1, 0]])
PAULI_Z = Mat.from_rows([[1, 0], [0, -1]])
PAULI_Y = Mat.from_rows([[0, (0, -1)], [(0, 1), 0]])
HADAMARD_DIRECTION = Mat.from_rows([[1, 1], [1, -1]])  # sqrt(1/2) * this


# One example formula or more per shape of the table of qtl.check, over
# atoms named p0, p1 and pp.
SHAPE_EXAMPLES = {
    "f": ["p0", "p0 || p1", "true"],
    "X f": ["X p0", "X (p0 || pp)"],
    "[] f": ["[] p0", "[] (p0 || p1)"],
    "[] <> f": ["[] <> p0", "[] <> (p0 || pp)"],
    "<> [] f": ["<> [] p0", "<> [] (p0 || p1)"],
    "[] (f U g)": ["[] (p0 U p1)", "[] ((p0 || p1) U p1)"],
    "[] (p U~ q)": ["[] (p0 U~ p1)", "[] (pp U~ p0)"],
    "<> f": ["<> p0", "<> p1"],
    "<>~ p": ["<>~ p0", "<>~ p1"],
    "f U g": ["p0 U p1"],
}

# Shapes outside the table, over atoms named p and exit0.
UNSUPPORTED_FORMULAS = ["[] X p", "[] (p && exit0)", "X X p", "<> [] <> p", "X (p U exit0)"]


def span(*vectors):
    dim = len(vectors[0])
    return Subspace.from_vectors(dim, [list(v) for v in vectors])


def union(*subspaces):
    return SubspaceUnion(subspaces[0].ambient_dim, list(subspaces))


def mat_from_complex(array) -> Mat:
    """Exactly rationalize a float/complex array (binary floats are rationals)."""
    rows = np.asarray(array, dtype=complex).tolist()
    return Mat.from_rows([[(x.real, x.imag) for x in row] for row in rows])


def random_scalar(rng, bound=3, real=False):
    """A rational with numerator and denominator up to ``bound``; unless
    ``real``, with a rational imaginary part 40% of the time."""
    if real:
        return CRat(Fraction(rng.randint(-bound, bound), rng.randint(1, bound)))
    return CRat(
        Fraction(rng.randint(-bound, bound), rng.randint(1, bound)),
        Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) if rng.random() < 0.4 else 0,
    )


def random_matrix(rng, rows, cols=None, bound=3):
    cols = rows if cols is None else cols
    return Mat.from_rows([[random_scalar(rng, bound) for _ in range(cols)] for _ in range(rows)])


def random_cayley_unitary(rng, n):
    """The Cayley transform (I + iH)^-1 (I - iH) of a random Hermitian H on
    C^n (the two factors commute): exactly unitary, dense and complex."""
    b = random_matrix(rng, n, bound=2)
    ih = (b + b.dagger()) * CRat(0, 1)
    return solve(Mat.eye(n) + ih, Mat.eye(n) - ih)


def random_density(rng, n):
    while True:
        b = random_matrix(rng, n)
        rho = b.dagger() @ b
        tr = rho.trace().re
        if tr != 0:
            return rho * CRat(Fraction(1, 1) / tr)


def random_pure_state(rng, n):
    """|v><v| / <v|v> for a random nonzero v, a rank-one density."""
    v = random_vector(rng, n)
    rho = v @ v.dagger()
    return rho * CRat(1 / rho.trace().re)


def random_vector(rng, n, bound=3, real=False):
    while True:
        v = Mat.column([random_scalar(rng, bound, real) for _ in range(n)])
        if not v.is_zero():
            return v


def random_subspace(rng, n, dim=None, real=False):
    """The span of dim or dim + 1 random vectors of C^n, dim drawn when
    None; ``real`` draws real vectors only."""
    if dim is None:
        dim = rng.randint(0, n)
    if dim == 0:
        return Subspace.zero(n)
    return Subspace.from_vectors(n, [random_vector(rng, n, real=real) for _ in range(dim + rng.randint(0, 1))])


_PHASES = [CRat(1), CRat(-1), CRat(0, 1), CRat(0, -1)]


def random_phase_permutation(rng, n):
    """A unitary with one unit-phase entry per row: exactly unitary, finite order."""
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[CRat(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][perm[i]] = rng.choice(_PHASES)
    return Mat.from_rows(rows)


_TRIPLES = [(3, 4, 5), (5, 12, 13), (8, 15, 17)]


def random_rational_rotation(rng, n):
    """A rational orthogonal rotation in one coordinate plane (infinite order)."""
    a, b, c = rng.choice(_TRIPLES)
    i, j = sorted(rng.sample(range(n), 2))
    rows = [[CRat(1) if r == s else CRat(0) for s in range(n)] for r in range(n)]
    rows[i][i] = CRat(Fraction(a, c))
    rows[i][j] = CRat(Fraction(b, c))
    rows[j][i] = CRat(Fraction(-b, c))
    rows[j][j] = CRat(Fraction(a, c))
    return Mat.from_rows(rows)


def random_projective_channel(rng, n):
    """Measure-and-forget in a random basis-index partition."""
    groups = {}
    for idx in range(n):
        groups.setdefault(rng.randint(0, max(0, n // 2)), []).append(idx)
    kraus = []
    for members in groups.values():
        p = Mat.zeros(n)
        for idx in members:
            p = p + Mat.unit(n, idx, idx)
        kraus.append(p)
    return SuperOp(kraus, validate=False)


def random_reset_channel(rng, n):
    """Everything is replaced by a random basis state."""
    target = rng.randint(0, n - 1)
    return SuperOp([Mat.unit(n, target, k) for k in range(n)], validate=False)


def _mixture(rng, e1: SuperOp, e2: SuperOp):
    a, b, c = rng.choice(_TRIPLES)
    w1, w2 = CRat(Fraction(a, c)), CRat(Fraction(b, c))
    return SuperOp(
        [k * w1 for k in e1.kraus] + [k * w2 for k in e2.kraus], validate=False
    )


def random_tp_channel(rng, n, finite_order=False):
    """An exactly trace-preserving channel on dimension n."""
    def base():
        roll = rng.random()
        if roll < 0.45:
            return SuperOp.from_unitary(random_phase_permutation(rng, n))
        if roll < 0.55 and not finite_order and n >= 2:
            return SuperOp.from_unitary(random_rational_rotation(rng, n))
        if roll < 0.8:
            return random_projective_channel(rng, n)
        return random_reset_channel(rng, n)

    e = base()
    if rng.random() < 0.5:
        e = base().compose(e)
    if rng.random() < 0.4:
        e = _mixture(rng, e, base())
    return e


def random_automaton(rng, dim, n_actions, finite_order=False):
    actions = {
        f"a{k}": random_tp_channel(rng, dim, finite_order=finite_order)
        for k in range(n_actions)
    }
    return QuantumAutomaton(dim, actions, random_density(rng, dim))


def leaky_cycle_automaton(rng):
    """A basis cycle of length 2-3 in C^3 or C^4 that keeps amplitude 3/5 at
    one step and leaks 4/5 to a sink basis state, the basis states off the
    cycle fixed; the oscillation sits in decaying eigenvalues.  30% of
    them get a second, finite-order action.  Started in a cycle state or in
    a random density matrix."""
    dim = rng.choice([3, 4])
    length = rng.randint(2, min(3, dim - 1))
    leak, sink = rng.randrange(length), rng.randrange(length, dim)
    keep = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        if i < length:
            keep[(i + 1) % length][i] = "3/5" if i == leak else 1
        else:
            keep[i][i] = 1
    drain = [[0] * dim for _ in range(dim)]
    drain[sink][leak] = "4/5"
    actions = {"a0": SuperOp([Mat.from_rows(keep), Mat.from_rows(drain)], validate=True)}
    if rng.random() < 0.3:
        actions["a1"] = random_tp_channel(rng, dim, finite_order=True)
    k = rng.randrange(length)
    initial = Mat.unit(dim, k, k) if rng.random() < 0.5 else random_density(rng, dim)
    return QuantumAutomaton(dim, actions, initial)


def random_union(rng, dim, max_members=2):
    members = [random_subspace(rng, dim, dim=rng.randint(0, dim - 1)) for _ in range(rng.randint(1, max_members))]
    return SubspaceUnion(dim, members)


def basis_union(rng, dim, max_members=2):
    """Unions of coordinate subspaces (well matched to permutation actions)."""
    members = []
    for _ in range(rng.randint(1, max_members)):
        k = rng.randint(1, dim - 1)
        idxs = rng.sample(range(dim), k)
        members.append(
            Subspace.from_vectors(dim, [[1 if r == i else 0 for r in range(dim)] for i in idxs])
        )
    return SubspaceUnion(dim, members)


def random_deterministic_program(rng, dim, n_locations, ensure_exit_reachable=True):
    """A random deterministic program with exit, exactly valid by construction."""
    labels = [f"l{i}" for i in range(n_locations)] + ["exit"]
    basis_meas = Measurement([Mat.unit(dim, k, k) for k in range(dim)], validate=False)
    act = {}
    for i, loc in enumerate(labels[:-1]):
        channel = random_tp_channel(rng, dim)
        meas = basis_meas if rng.random() < 0.6 else Measurement.trivial(dim, dim)
        nxt = {}
        for j in range(dim):
            if ensure_exit_reachable and rng.random() < 0.35:
                nxt[j] = ("exit",)
            else:
                nxt[j] = (rng.choice(labels),)
        act[loc] = LocationAction(channel, meas, nxt)
    act["exit"] = LocationAction(
        SuperOp.identity(dim), Measurement.trivial(dim, dim), {j: ("exit",) for j in range(dim)}
    )
    return SequentialProgram(
        dim=dim,
        locations=labels,
        act=act,
        initial_state=random_density(rng, dim),
        initial_location=labels[0],
        exit_location="exit",
    )


def with_second_target(rng, prog):
    """prog with a second target of outcome 0 at one random location other
    than the exit, so it branches: the exit, or the first location if
    outcome 0 already targets the exit."""
    loc = rng.choice(prog.locations[:-1])
    a = prog.act[loc]
    extra = next(t for t in (prog.exit_location, *prog.locations) if t not in a.next[0])
    act = dict(prog.act)
    act[loc] = LocationAction(a.channel, a.measurement, {**a.next, 0: a.next[0] + (extra,)})
    return SequentialProgram(
        prog.dim, prog.locations, act, prog.initial_state, prog.initial_location, prog.exit_location
    )


def random_concurrent_program(rng, dim, n_processes):
    """A random concurrent program, exactly valid by construction: one or
    two locations per process, random channels, basis or trivial
    measurements, and for each outcome a target location and scheduled
    process, sometimes two."""
    basis_meas = Measurement([Mat.unit(dim, k, k) for k in range(dim)], validate=False)
    processes = []
    for k in range(n_processes):
        labels = tuple(f"p{k}l{i}" for i in range(rng.randint(1, 2)))
        act = {}
        for loc in labels:
            meas = basis_meas if rng.random() < 0.6 else Measurement.trivial(dim)
            nxt = {}
            targets = [(t, s) for t in labels for s in range(1, n_processes + 1)]
            for j in range(len(meas)):
                count = 2 if rng.random() < 0.15 and len(targets) > 1 else 1
                nxt[j] = tuple(rng.sample(targets, count))
            act[loc] = LocationAction(random_tp_channel(rng, dim), meas, nxt)
        processes.append(ConcurrentProcess(labels, act))
    return ConcurrentProgram(
        dim,
        processes,
        random_density(rng, dim),
        [p.locations[0] for p in processes],
        rng.randint(1, n_processes),
    )


def terminating_programs(seed, count, min_step=1):
    """Seeded random deterministic programs that terminate exactly, with
    their termination step, which is at least ``min_step``: most random
    programs that terminate do so at their first step."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        dim = rng.choice([2, 2, 3])
        prog = random_deterministic_program(rng, dim, rng.randint(1, 3))
        result = check_terminates(prog)
        if result.kind == "terminates" and result.step >= min_step:
            found.append((prog, result.step))
    return found


def simulated_exit_answers(program, exit_subspace: Subspace) -> dict:
    """Reference answers to the exit questions of a deterministic program
    with exit, read off its exact states sigma_0 .. sigma_(D-1) from
    ``simulate_deterministic``, D = dim*|L|.  The span of the states up to
    step n grows strictly until it settles, so within D - 1 steps every
    exit arrival has happened at least once and an exact exit is complete;
    the exit block's support only grows.  <>~ p also reads the exact reach
    trace of ``reachability_superop``.  Keys: "terminates" (kind, step) as
    ``check_terminates``; "<>" (status, step of a valid verdict or the
    failing conjunct); "[]" (status, first failing step or None); "<>~"
    the status."""
    exit_location = program.exit_location
    trajectory = simulate_deterministic(program, program.dim * len(program.locations) - 1)
    traces = [s.trace_of(exit_location) for s in trajectory]
    inside = [satisfies(s.block(exit_location), exit_subspace) for s in trajectory]
    exited = next((k for k, t in enumerate(traces) if t == 1), None)
    failing = next((k for k, ok in enumerate(inside) if not ok), None)
    if exited is None:
        terminates = ("no" if traces[-1] == 0 else "almost_candidate", None)
        eventually = ("not_valid", "exact_exit")
    else:
        terminates = ("terminates", exited)
        eventually = ("valid", exited) if inside[exited] else ("not_valid", "arrivals")
    almost = reachability_superop(program).reach_state.trace() == CRat(1) and inside[-1]
    return {
        "terminates": terminates,
        "<>": eventually,
        "[]": ("valid", None) if failing is None else ("not_valid", failing),
        "<>~": "valid" if almost else "not_valid",
    }


def normal_form_exit_series(loop, sigma0: Mat, steps: int) -> list:
    """The exit blocks [after 0 rounds, ..., after ``steps`` rounds] of the
    single while loop itself, on the embedded space: each round collects
    m0 sigma m0 and runs the body on the rest, sigma <- body(m1 sigma m1).
    It reads neither the program's locations nor its block stepping."""
    sigma = sigma0
    series = [loop.m0 @ sigma @ loop.m0]
    for _ in range(steps):
        sigma = loop.body_channel.apply(loop.m1 @ sigma @ loop.m1)
        series.append(series[-1] + loop.m0 @ sigma @ loop.m0)
    return series


def invariance_by_mixing(a: QuantumAutomaton, p: Subspace) -> Verdict:
    """Single-subspace invariance via the uniform mixture of the actions.

    Checks the first dim(H) iterates of the averaged channel; agrees with
    the pre-image chain of check_invariance on one-member unions.
    """
    reps = [a.actions[name].matrix_rep() for name in sorted(a.actions)]
    weight = CRat(Fraction(1, len(reps)))
    mixed = mat_sum(rep * weight for rep in reps)
    v = vec(a.initial_state)
    for k in range(a.dim):
        if not satisfies(unvec(v, a.dim), p):
            return Verdict.not_valid(diagnostics={"mixing_step": k})
        v = mixed @ v
    return Verdict.valid(diagnostics={"mixing_steps": a.dim})


def kleene_always_by_average(e: SuperOp, rho_ab: Mat, p: Subspace, t: int) -> Verdict:
    """The dense reference of checker.kleene_always on a validated input:
    one satisfaction check of the running average of the first t states of
    the lifted channel, and on a refutation the first state outside p."""
    lifted = SuperOp([kron(k, Mat.eye(rho_ab.rows // e.dim_in)) for k in e.kraus], validate=False)
    acc = Mat.zeros(rho_ab.rows)
    state = rho_ab
    for _ in range(t):
        acc = acc + state
        state = lifted.apply(state)
    if satisfies(acc, p):
        return Verdict.valid(diagnostics={"steps_averaged": t})
    step = 0
    probe = rho_ab
    while satisfies(probe, p):
        probe = lifted.apply(probe)
        step += 1
    return Verdict.not_valid(witness={"step": step}, diagnostics={"steps_averaged": t})


# ----------------------------------------------------------------------
# the loop refinement of check_always_eventually as a walk that joins the
# supports of the dense pulled-back operators term by term: the reference
# for the least fixpoint on the Kraus-form lattice per target that
# checker._p2_refine takes (same signature, a drop-in replacement)


def p2_refine_by_joins(members, cycle, u: SubspaceUnion, actions):
    """Shrink the first loop component to the states that keep landing in
    the target union along the loop's periodic subsequences.

    Every pull-back applies the dagger of a dense D^2 x D^2 matrix
    representation to a vec, and each piece is the complement of the join
    of the supports of prefix†((F_b†)^u y) over u = 0 .. D^2 + 1, one
    support per term, with no fixpoint argument."""
    j1 = cycle[0][0]
    word = [name for _, name, _ in cycle]
    dim = members[0].ambient_dim
    ms = [actions[name].matrix_rep() for name in word]
    k = len(ms)
    # prefixes[r] = ms[r-1] ... ms[0] for 1 <= r <= k, and
    # suffixes[r] = ms[k-1] ... ms[r] for 1 <= r < k
    prefixes = [None, ms[0]]
    for m in ms[1:]:
        prefixes.append(m @ prefixes[-1])
    suffixes = [None] * k
    for r in range(k - 1, 0, -1):
        suffixes[r] = ms[r] if r == k - 1 else suffixes[r + 1] @ ms[r]
    # the period from the loop's real matrix in the Hermitian operator basis
    loop = actions[word[0]].hermitian_rep()
    for name in word[1:]:
        loop = actions[name].hermitian_rep() @ loop
    _, b = _peripheral_period(loop, _PERIOD_BOUND)
    pieces = []
    for r in range(1, k + 1):
        # the loop channel rotated to start after the r-th action
        f_rep = prefixes[k] if r == k else prefixes[r] @ suffixes[r]
        f_dag = f_rep.dagger()
        fb_dag = MatrixRep(f_dag).power(b).m
        prefix_dag = prefixes[r].dagger()
        for p_s in u.members:
            y = vec(p_s.complement().projector)
            for _ in range(b):  # c = 1 .. b
                y = f_dag @ y
                # the states orthogonal to every pulled-back support: the
                # complement of their join, formed once
                seen = Subspace.zero(dim)
                w = y
                for _ in range(dim * dim + 2):  # u = 0 .. d^2 + 1
                    seen = seen.join(support(unvec(prefix_dag @ w, dim), validate=False))
                    if seen.is_full():
                        break
                    w = fb_dag @ w
                piece = members[j1].meet(seen.complement())
                if not piece.is_zero():
                    pieces.append(piece)
    new_members = [m for i, m in enumerate(members) if i != j1] + pieces
    refined = SubspaceUnion(dim, new_members)
    if refined.contains_subspace(members[j1]):
        raise QtlError("loop refinement failed to shrink the union")
    return refined, b


def projector_limit_coordinates(e: SuperOp, sigma0: Mat) -> list:
    """The limit cycle of sigma_n = E^n(sigma0) by the channel's spectral
    projector, as hvec coordinates: the period b of E's real matrix m in
    the Hermitian operator basis (SuperOp.hermitian_rep), then P hvec(sigma0)
    for the projector P of m^b at eigenvalue one, onto ker(m^b - I) along
    im(m^b - I), and its images under m.  With T = [kernel basis | image
    basis], P v = T[:, :k] (T^-1 v)[:k], one solve.  UncertifiedPeriod when
    the period is uncertified, kernel and image overlap, or the kernel's
    dimension k is not the peripheral one.  This forms D^2 x D^2 matrices;
    the checker runs on the orbit alone."""
    m = e.hermitian_rep()
    peripheral_dim, b = _peripheral_period(m, _PERIOD_BOUND)
    n = m.rows
    a = mat_power(m, b) - Mat.eye(n)
    r, cols = rref(a)
    k = n - len(cols)
    if k != peripheral_dim:
        raise UncertifiedPeriod(f"fixed space rank {k} != peripheral dimension {peripheral_dim}")
    t = _perp_rows(r, cols).transpose().hstack(a[:, list(cols)])
    try:
        v = t[:, :k] @ solve(t, hvec(sigma0))[:k]
    except SingularMatrix as exc:
        raise UncertifiedPeriod(f"limit projector unavailable: {exc}")
    cycle = []
    for _ in range(b):
        cycle.append(v)
        v = m @ v
    return cycle


# ----------------------------------------------------------------------
# the characteristic polynomial over Q(i): the reference for linalg._charpoly_int


def reference_charpoly(m: Mat) -> list:
    """The coefficients [c_0, ..., c_n] of det(zI - m) = sum_k c_k z^k, as
    CRats: a reduction to upper Hessenberg form H by elementary
    similarities over Q(i) (over Q when m is real), skipping zero entries,
    then p_k = (z - h_kk) p_{k-1} - sum_{i<k} h_ik h_{i+1,i} ... h_{k,k-1} p_{i-1}.
    """
    n = m.rows
    den = m.den
    if not m.is_real():
        zero, one = CRat(0), CRat(1)
        a = [
            [CRat(Fraction(re, den), Fraction(im, den)) if re or im else zero for re, im in zip(row_re, row_im)]
            for row_re, row_im in zip(m.num_re.tolist(), m.num_im.tolist())
        ]
    else:
        zero, one = Fraction(0), Fraction(1)
        a = [[Fraction(x, den) if x else zero for x in row] for row in m.num_re.tolist()]
    for k in range(n - 2):
        piv = next((i for i in range(k + 1, n) if a[i][k]), None)
        if piv is None:
            continue
        if piv != k + 1:
            a[piv], a[k + 1] = a[k + 1], a[piv]
            for row in a:
                row[piv], row[k + 1] = row[k + 1], row[piv]
        row_p = a[k + 1]
        for i in range(k + 2, n):
            row_i = a[i]
            if not row_i[k]:
                continue
            # row i -= u row k+1, then column k+1 += u column i
            u = row_i[k] / row_p[k]
            for j in range(k, n):
                if row_p[j]:
                    row_i[j] -= u * row_p[j]
            for row in a:
                if row[i]:
                    row[k + 1] += u * row[i]
    polys = [[one]]
    for k in range(n):
        new = [zero] + polys[k]
        if a[k][k]:
            for j, c in enumerate(polys[k]):
                new[j] -= a[k][k] * c
        t = one
        for i in range(k - 1, -1, -1):
            t = t * a[i + 1][i]
            if not t:
                break
            if a[i][k]:
                f = a[i][k] * t
                for j, c in enumerate(polys[i]):
                    new[j] -= f * c
        polys.append(new)
    return [CRat.coerce(c) for c in polys[n]]


# ----------------------------------------------------------------------
# the float split of a channel's peripheral spectrum and the exit loop on the
# block space: a test-only reference for the exact reach numbers


class ToleranceAmbiguity(Exception):
    """An eigenvalue modulus falls inside the unsafe classification band."""


@dataclass(frozen=True)
class SpectralSplit:
    """Split of a (sub)stochastic channel matrix into peripheral and stable parts.

    ``peripheral_projector`` projects onto the span of eigenspaces with
    modulus within ``tolerance`` of one; ``stable_part`` is the input with
    that component removed, so its spectral radius is strictly below one.
    Both are exact rationalizations of the numeric computation.
    """

    peripheral_projector: Mat
    stable_part: Mat
    tolerance: float
    eigenvalues: list  # [(complex estimate, algebraic multiplicity)]

    @property
    def peripheral_eigenvalues(self):
        cut = 1.0 - self.tolerance
        return [(lam, mult) for lam, mult in self.eigenvalues if abs(lam) >= cut]


def _cluster_eigenvalues(values, tol=1e-7):
    clusters = []
    for lam in values:
        for idx, (rep, mult) in enumerate(clusters):
            if abs(lam - rep) <= tol:
                clusters[idx] = ((rep * mult + lam) / (mult + 1), mult + 1)
                break
        else:
            clusters.append((lam, 1))
    return [(complex(rep), mult) for rep, mult in clusters]


def float_peripheral_split(m: Mat, tolerance: float = 1e-9) -> SpectralSplit:
    """Separate the modulus-one spectral component of a channel matrix.

    The input must have spectral radius at most one (matrix representation of
    a trace-non-increasing channel); PreconditionViolated otherwise.  The
    numeric core is a sorted complex Schur form: the spectral projector onto
    the eigenvalues of modulus at least 1 - tolerance comes from one
    Sylvester solve, and is rationalized exactly (binary floats are
    rationals).  An eigenvalue modulus inside [1-2*tol, 1-tol/2], or a
    projector failing its idempotency, commutation or stable-radius check,
    makes the classification unsafe and raises ToleranceAmbiguity.  Without
    any peripheral eigenvalue the projector is exactly zero and the stable
    part is the input itself.
    """
    if not m.is_square():
        raise DimensionMismatch("float_peripheral_split needs a square matrix")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    n = m.rows
    if n == 0:
        return SpectralSplit(m, m, tolerance, [])
    a = m.to_complex()
    cut = 1.0 - tolerance
    t, z, k = scipy.linalg.schur(a, output="complex", sort=lambda lam: abs(lam) >= cut)
    eigs = np.diag(t)
    radius = max(abs(eigs))
    if radius > 1.0 + max(tolerance, 64 * np.finfo(float).eps * max(1.0, radius)):
        raise PreconditionViolated(
            f"spectral radius {radius} exceeds 1; not a trace-non-increasing channel"
        )
    lo, hi = 1.0 - 2.0 * tolerance, 1.0 - 0.5 * tolerance
    for lam in eigs:
        if lo <= abs(lam) <= hi:
            raise ToleranceAmbiguity(
                f"eigenvalue modulus {abs(lam)} inside the unsafe band [{lo}, {hi}]"
            )
    eigenvalues = _cluster_eigenvalues(list(eigs))
    if k == 0:
        # nothing peripheral: the Schur diagonal above already bounds the
        # stable radius below the band
        return SpectralSplit(Mat.zeros(n), m, tolerance, eigenvalues)
    if k == n:
        projector = np.eye(n, dtype=complex)
    else:
        y = scipy.linalg.solve_sylvester(t[:k, :k], -t[k:, k:], t[:k, k:])
        r = np.zeros((n, n), dtype=complex)
        r[:k, :k] = np.eye(k)
        r[:k, k:] = y
        projector = z @ r @ z.conj().T
    scale = max(1.0, float(np.max(np.abs(projector))))
    if np.max(np.abs(projector @ projector - projector)) > 1e-7 * scale * scale:
        raise ToleranceAmbiguity("spectral projector failed the idempotency check")
    if np.max(np.abs(a @ projector - projector @ a)) > 1e-7 * scale:
        raise ToleranceAmbiguity("spectral projector does not commute with the input")
    if k < n:
        stable_radius = max(abs(np.linalg.eigvals(a @ (np.eye(n) - projector))))
        if stable_radius >= 1.0 - 0.5 * tolerance:
            raise ToleranceAmbiguity(
                f"stable part kept spectral radius {stable_radius}"
            )
    projector_mat = mat_from_complex(projector)
    return SpectralSplit(projector_mat, m - m @ projector_mat, tolerance, eigenvalues)



def block_space_cut(program) -> Mat:
    """Matrix representation of the exit-cut body on the d^2*|L| block
    space, which keeps the d x d block of every location (index l*d^2 + k
    holds entry k of the row-major vec of location l's block): block (t, s)
    sums kron(M_j, conj(M_j)) times s's channel over the outcomes j leading
    from s to t; the exit location's column is zero."""
    n_loc = len(program.locations)
    terms = [Mat.zeros(n_loc * program.dim * program.dim)]
    for s_idx, loc in enumerate(program.locations):
        if loc == program.exit_location:
            continue
        a = program.act[loc]
        for j, m_op in enumerate(a.measurement.operators):
            if not m_op.is_zero():
                t_idx = program.config_index(a.next[j][0])
                block = kron(m_op, m_op.conj()) @ a.channel.matrix_rep()
                terms.append(kron(Mat.unit(n_loc, t_idx, s_idx), block))
    return mat_sum(terms)


def block_vector(program, state) -> Mat:
    """The block-space vector of a classical-quantum state."""
    return functools.reduce(Mat.vstack, [vec(state.block(c)) for c in program.locations])


# ----------------------------------------------------------------------
# the exit loop on the embedded space: the dense cut body and its
# fixpoints on C^D, the references of the exit loop's location blocks


def dense_cut_body(program) -> SuperOp:
    """N on the embedded space: the one-step channel's Kraus operators that
    vanish on the exit's coordinates (K m1 = K for those, 0 for the exit's),
    or the zero channel if none is left."""
    body = step_superop(program)
    exit_coords = coordinates(program, program.exit_location)
    kraus = [k for k in body.kraus if k[:, exit_coords].is_zero()]
    return SuperOp(kraus or [Mat.zeros(body.dim_in)], validate=False)


def dense_exit_lattice(program) -> dict:
    """The exit loop's lattice on C^D with the dense cut body: R and R_in,
    least fixpoints of X -> start v N(X) from the placed starts; R ^ T and
    R_in ^ T, greatest fixpoints of Y -> start ^ O ^ N^-1(Y) (O the
    off-exit coordinates) within R and R_in; the arrivals (R read on the
    exit's coordinates) and the exit step off the chain R >= N(R) >= ..."""
    cut, d = dense_cut_body(program), program.dim

    def grow(start):
        return least_fixpoint(place_subspaces(program, start), functools.partial(image, cut))

    off_exit = place_subspaces(program, {c: Subspace.full(d) for c in program.locations if c != program.exit_location})

    def trap_within(start):
        t = start.meet(off_exit)
        while not t.is_zero():
            shrunk = t.meet(preimage(cut, t))
            if shrunk.dim == t.dim:
                break
            t = shrunk
        return t

    reachable = grow({program.initial_location: support(program.initial_state, validate=False)})
    input_reachable = grow({program.initial_location: Subspace.full(d)})
    chain, step = reachable, 0
    while not chain.is_zero():
        shrunk = image(cut, chain)
        if shrunk.dim == chain.dim:
            step = None
            break
        chain, step = shrunk, step + 1
    return {
        "cut": cut,
        "reachable": reachable,
        "input_reachable": input_reachable,
        "trapped": trap_within(reachable),
        "input_trapped": trap_within(input_reachable),
        "arrivals": Subspace(d, reachable.rref[:, coordinates(program, program.exit_location)]),
        "exit_step": None if step is None else step - 1,
    }


def sliced_compression(program, sub: Subspace) -> list:
    """[(V_c, L_c)] of a direct sum over locations held on C^D: V_c the
    rows of ``sub``'s RREF whose pivot lies at location c, read on c's
    coordinates, as columns."""
    parts = []
    for loc in program.locations:
        at = coordinates(program, loc)
        v = sub.rref[[i for i, p in enumerate(sub.pivots) if p in at]][:, at].transpose()
        parts.append((v, solve(v.dagger() @ v, v.dagger())))
    return parts


def stacked_compressed_cut(program, parts: list) -> Mat:
    """The compressed cut body assembled block by block: each block (t, s)
    the mat_sum of its kron(E, conj E), E = L_t M_j K V_s, zero blocks
    elsewhere, and the grid joined by hstack and vstack."""
    terms = {}
    for s, loc in enumerate(program.locations):
        v_s = parts[s][0]
        if loc == program.exit_location or not v_s.cols:
            continue
        a = program.act[loc]
        for j, m_op in enumerate(a.measurement.operators):
            t = program.config_index(a.next[j][0])
            l_t = parts[t][1]
            if m_op.is_zero() or not l_t.rows:
                continue
            for k in a.channel.kraus:
                e = l_t @ m_op @ k @ v_s
                terms.setdefault((t, s), []).append(kron(e, e.conj()))
    sizes = [v.cols**2 for v, _ in parts]
    grid = [
        [mat_sum(terms[t, s]) if (t, s) in terms else Mat.zeros(rows, cols) for s, cols in enumerate(sizes)]
        for t, rows in enumerate(sizes)
    ]
    return functools.reduce(Mat.vstack, [functools.reduce(Mat.hstack, row) for row in grid])


def dense_reachability(program) -> tuple:
    """(F, expected steps, almost-sure exit) by the solve of
    ``reachability_superop`` on the dense lattice: C = R_in ^ (R_in ^ T)^perp
    on C^D, sliced into location blocks, and the stacked compressed cut."""
    lattice, d = dense_exit_lattice(program), program.dim
    parts = sliced_compression(program, lattice["input_reachable"].meet(lattice["input_trapped"].complement()))
    offsets = [0]
    for v, _ in parts:
        offsets.append(offsets[-1] + v.cols**2)
    start, stop = program.config_index(program.initial_location), program.config_index(program.exit_location)
    l_in = parts[start][1]
    rhs = (
        Mat.zeros(offsets[start], d * d)
        .vstack(kron(l_in, l_in.conj()))
        .vstack(Mat.zeros(offsets[-1] - offsets[start + 1], d * d))
    )
    x = solve(Mat.eye(offsets[-1]) - stacked_compressed_cut(program, parts), rhs)
    v_out = parts[stop][0]
    semantics = kron(v_out, v_out.conj()) @ x[offsets[stop] : offsets[stop + 1], :]
    almost = lattice["reachable"].meet(lattice["input_trapped"]).is_zero()
    if not almost:
        return semantics, math.inf, almost
    y = x @ vec(program.initial_state)
    off_exit = CRat(0)
    for c, (v, _) in enumerate(parts):
        if c != stop and v.cols:
            off_exit += unvec(kron(v, v.conj()) @ y[offsets[c] : offsets[c + 1], :], d).trace()
    return semantics, float(off_exit.re), almost


# ----------------------------------------------------------------------
# random Q-While sources


_QW_PREAMBLE = """qubits 1;
unitary H = sqrt(1/2) * [[1, 1], [1, -1]];
unitary X = [[0, 1], [1, 0]];
unitary Z = [[1, 0], [0, -1]];
measurement M = {[[1, 0], [0, 0]], [[0, 0], [0, 1]]};
"""


def random_qwhile_source(rng, max_loops=2, max_len=3, max_locations=10):
    """Random single-qubit source with at most ``max_loops`` nested loops.

    Rejection-sampled down to ``max_locations`` compiled locations so the
    embedded spaces stay tractable for exact arithmetic.
    """

    def stmt(loops_left, length):
        parts = []
        for _ in range(rng.randint(1, length)):
            roll = rng.random()
            if roll < 0.2:
                parts.append("skip")
            elif roll < 0.35:
                parts.append("q0 := |0>")
            elif roll < 0.6:
                parts.append(f"apply {rng.choice(['H', 'X', 'Z'])} to q0")
            elif roll < 0.8 and loops_left > 0:
                parts.append(
                    f"while meas M(q0) == 1 {{ {stmt(loops_left - 1, max(1, length - 1))} }}"
                )
            else:
                arms = [stmt(0 if loops_left == 0 else loops_left - 1, 1) for _ in range(2)]
                parts.append(f"if meas M(q0) {{ 0 -> {arms[0]}; 1 -> {arms[1]}; }}")
        return "; ".join(parts)

    from qtl.qwhile import parse, _node_facts

    while True:
        source = _QW_PREAMBLE + stmt(max_loops, max_len)
        body = parse(source).body
        if _node_facts(body)[id(body)][0] < max_locations:
            return source


# ----------------------------------------------------------------------
# Kronecker reference of the embedded layout: H (x) C^|configs|, the block
# of configuration number c on the basis vectors e_h (x) e_c


def _config_unit(program, config, row=True) -> Mat:
    """<c| (a row) or |c> (a column) of the configuration register."""
    n, c = len(program.configs()), program.config_index(config)
    e = Mat.from_rows([[int(k == c) for k in range(n)]])
    return e if row else e.transpose()


def kron_embed(state, program) -> Mat:
    """Sum over the configurations c of block_c (x) |c><c|."""
    terms = [Mat.zeros(program.dim * len(program.configs()))]
    for config, block in state.blocks.items():
        terms.append(kron(block, _config_unit(program, config, False) @ _config_unit(program, config)))
    return mat_sum(terms)


def kron_extract(m: Mat, program) -> CQState:
    """The blocks (I (x) <c|) m (I (x) |c>) of every configuration c."""
    eye = Mat.eye(program.dim)
    blocks = {
        config: kron(eye, _config_unit(program, config)) @ m @ kron(eye, _config_unit(program, config, False))
        for config in program.configs()
    }
    return CQState(program.dim, blocks, validate=False)


def kron_step_kraus(program, selector) -> list:
    """kron(M_j K, |t><c|) over the configurations c, outcomes j and Kraus
    operators K, in the order of the one-step channel of a selector."""
    kraus = []
    for config in program.configs():
        a = program._action(config)
        for j, m_op in enumerate(a.measurement.operators):
            if m_op.is_zero():
                continue
            shift = _config_unit(program, program._target(config, selector, j), False) @ _config_unit(program, config)
            kraus += [kron(m_op @ k, shift) for k in a.channel.kraus]
    return kraus


def kron_atom(blocks: dict, program) -> Subspace:
    """The span of v (x) e_c over a basis v of each configuration's block."""
    rows = [kron(sub.rref, _config_unit(program, config)) for config, sub in blocks.items() if not sub.is_zero()]
    ambient = program.dim * len(program.configs())
    return Subspace(ambient, functools.reduce(Mat.vstack, rows)) if rows else Subspace.zero(ambient)


def kron_exit_guard(program) -> Mat:
    """m0 = I (x) |exit><exit|, the guard's "at the exit" projection."""
    e = program.exit_location
    return kron(Mat.eye(program.dim), _config_unit(program, e, False) @ _config_unit(program, e))


def kron_exit_shaped(proposition: Subspace, program):
    """The exit block of a proposition whose RREF rows satisfy
    rows m0^T = rows, read as rows (I (x) |exit>); None otherwise."""
    rows = proposition.rref
    if rows @ kron_exit_guard(program).transpose() != rows:
        return None
    return Subspace(program.dim, rows @ kron(Mat.eye(program.dim), _config_unit(program, program.exit_location, False)))
