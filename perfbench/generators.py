"""Seeded input generators for the benchmark workloads.

Adapted from the exact random-instance generators of the test suite, but
kept here and written in plain ``Fraction`` arithmetic, so that neither an
edit to the tests nor a change inside ``qtl`` can change a workload.  Every
generator takes a ``random.Random`` and returns JSON-ready data in the
file formats of the ``qtl`` command line: rationals as "p/q" strings,
complex entries as ``[re, im]`` pairs.

A complex rational is a pair ``(re, im)`` of Fractions; a matrix is a list
of rows of such pairs.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))
_PHASES = [ONE, (Fraction(-1), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1))]
_TRIPLES = [(3, 4, 5), (5, 12, 13), (8, 15, 17)]


# ----------------------------------------------------------------------
# exact complex-rational matrices


def c_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def c_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def real(x):
    return (Fraction(x), Fraction(0))


def zeros(rows, cols=None):
    return [[ZERO] * (rows if cols is None else cols) for _ in range(rows)]


def eye(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def unit(n, i, j):
    m = zeros(n)
    m[i][j] = ONE
    return m


def matmul(a, b):
    out = []
    for row in a:
        new = []
        for j in range(len(b[0])):
            acc = ZERO
            for k, x in enumerate(row):
                if x != ZERO and b[k][j] != ZERO:
                    acc = c_add(acc, c_mul(x, b[k][j]))
            new.append(acc)
        out.append(new)
    return out


def dagger(a):
    return [[(a[i][j][0], -a[i][j][1]) for i in range(len(a))] for j in range(len(a[0]))]


def scale(a, s):
    return [[c_mul(x, s) for x in row] for row in a]


def kron(a, b):
    return [
        [c_mul(x, y) for x in row_a for y in row_b]
        for row_a in a
        for row_b in b
    ]


def trace_re(a):
    return sum((a[i][i][0] for i in range(len(a))), Fraction(0))


def _rational_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def to_json(a):
    """Matrix in the qtl JSON format."""
    return [
        [_rational_text(x[0]) if x[1] == 0 else [_rational_text(x[0]), _rational_text(x[1])] for x in row]
        for row in a
    ]


def to_qw(a) -> str:
    """Real matrix as a .qw literal ``[[1, 0], [0, 1/2]]``."""
    if any(x[1] != 0 for row in a for x in row):
        raise ValueError(".qw literals written here are real")
    return "[" + ", ".join("[" + ", ".join(_rational_text(x[0]) for x in row) + "]" for row in a) + "]"


# ----------------------------------------------------------------------
# random matrices, states and subspaces


def random_scalar(rng, bound=3):
    re = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
    im = Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) if rng.random() < 0.4 else Fraction(0)
    return (re, im)


def random_matrix(rng, rows, cols=None, bound=3):
    cols = rows if cols is None else cols
    return [[random_scalar(rng, bound) for _ in range(cols)] for _ in range(rows)]


def random_density(rng, n):
    while True:
        b = random_matrix(rng, n)
        rho = matmul(dagger(b), b)
        tr = trace_re(rho)
        if tr != 0:
            return scale(rho, real(1 / tr))


def random_vector(rng, n, bound=3):
    while True:
        v = [random_scalar(rng, bound) for _ in range(n)]
        if any(x != ZERO for x in v):
            return v


def random_subspace(rng, n, dim):
    """Spanning vectors (possibly dependent) of a random subspace; [] is zero."""
    if dim == 0:
        return []
    return [random_vector(rng, n) for _ in range(dim + rng.randint(0, 1))]


def random_union(rng, dim, max_members=2):
    return [random_subspace(rng, dim, rng.randint(0, dim - 1)) for _ in range(rng.randint(1, max_members))]


def basis_union(rng, dim, max_members=2):
    """Unions of coordinate subspaces (well matched to permutation actions)."""
    members = []
    for _ in range(rng.randint(1, max_members)):
        idxs = rng.sample(range(dim), rng.randint(1, dim - 1))
        members.append([[ONE if r == i else ZERO for r in range(dim)] for i in idxs])
    return members


# ----------------------------------------------------------------------
# exactly trace-preserving channels, as Kraus lists


def random_phase_permutation(rng, n):
    """One unit-phase entry per row: exactly unitary, finite order."""
    perm = list(range(n))
    rng.shuffle(perm)
    rows = zeros(n)
    for i in range(n):
        rows[i][perm[i]] = rng.choice(_PHASES)
    return rows


def random_rational_rotation(rng, n):
    """A rational orthogonal rotation in one coordinate plane (infinite order)."""
    a, b, c = rng.choice(_TRIPLES)
    i, j = sorted(rng.sample(range(n), 2))
    rows = eye(n)
    rows[i][i] = real(Fraction(a, c))
    rows[i][j] = real(Fraction(b, c))
    rows[j][i] = real(Fraction(-b, c))
    rows[j][j] = real(Fraction(a, c))
    return rows


def random_projective_channel(rng, n):
    """Measure-and-forget in a random basis-index partition."""
    groups = {}
    for idx in range(n):
        groups.setdefault(rng.randint(0, max(0, n // 2)), []).append(idx)
    kraus = []
    for members in groups.values():
        p = zeros(n)
        for idx in members:
            p[idx][idx] = ONE
        kraus.append(p)
    return kraus


def random_reset_channel(rng, n):
    """Everything is replaced by a random basis state."""
    target = rng.randint(0, n - 1)
    return [unit(n, target, k) for k in range(n)]


def random_tp_channel(rng, n, finite_order=False):
    """Kraus list of an exactly trace-preserving channel on dimension n."""

    def base():
        roll = rng.random()
        if roll < 0.45:
            return [random_phase_permutation(rng, n)]
        if roll < 0.55 and not finite_order and n >= 2:
            return [random_rational_rotation(rng, n)]
        if roll < 0.8:
            return random_projective_channel(rng, n)
        return random_reset_channel(rng, n)

    kraus = base()
    if rng.random() < 0.5:
        kraus = [matmul(a, b) for a in base() for b in kraus]
    if rng.random() < 0.4:
        a, b, c = rng.choice(_TRIPLES)
        w1, w2 = real(Fraction(a, c)), real(Fraction(b, c))
        kraus = [scale(k, w1) for k in kraus] + [scale(k, w2) for k in base()]
    return kraus


def _support_projector(m):
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    keep = v[:, w > 1e-9 * max(1.0, float(w.max()))]
    return keep @ keep.conj().T


def support_graph_closes(actions, rho, max_depth=16, max_nodes=24) -> bool:
    """Floating-point pre-check that the reachable supports of an automaton
    form a finite graph within ``max_depth`` levels and ``max_nodes`` nodes.

    One node per distinct support, one edge per action (the support of the
    image).  On such a graph ``oracle_bfs`` closes and decides every query
    exactly.
    """

    def arr(m):
        return np.array([[complex(float(x[0]), float(x[1])) for x in row] for row in m])

    ops = [[arr(k) for k in kraus] for kraus in actions]

    def key(p):
        return (np.round(p, 6) + 0.0).tobytes()

    start = _support_projector(arr(rho))
    seen = {key(start)}
    frontier = [start]
    for _ in range(max_depth):
        nxt = []
        for p in frontier:
            for kraus in ops:
                q = _support_projector(sum(k @ p @ k.conj().T for k in kraus))
                if key(q) not in seen:
                    seen.add(key(q))
                    nxt.append(q)
                    if len(seen) > max_nodes:
                        return False
        if not nxt:
            return True
        frontier = nxt
    return False


def random_automaton_json(rng, dim, n_actions, finite_order=False):
    """A random automaton whose support graph closes (rejection-sampled)."""
    while True:
        actions = [random_tp_channel(rng, dim, finite_order) for _ in range(n_actions)]
        rho = random_density(rng, dim)
        if support_graph_closes(actions, rho):
            return {
                "dimension": dim,
                "actions": {f"a{k}": {"kraus": [to_json(op) for op in kraus]} for k, kraus in enumerate(actions)},
                "initial_state": to_json(rho),
            }


def subspace_json(dim, vectors):
    """A raw subspace spanned by ``vectors``; no vectors is the zero subspace."""
    return {"dim": dim, "basis": to_json(vectors) if vectors else []}


# ----------------------------------------------------------------------
# Q-While sources

KET = {
    "0": [[1, 0], [0, 0]],
    "1": [[0, 0], [0, 1]],
    "+": [["1/2", "1/2"], ["1/2", "1/2"]],
    "-": [["1/2", "-1/2"], ["-1/2", "1/2"]],
}

_QW_PREAMBLE = """qubits 1;
unitary H = sqrt(1/2) * [[1, 1], [1, -1]];
unitary X = [[0, 1], [1, 0]];
unitary Z = [[1, 0], [0, -1]];
measurement M = {[[1, 0], [0, 0]], [[0, 0], [0, 1]]};
"""


def _qw_matrix(rows) -> str:
    return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in rows) + "]"


def random_qwhile_body(rng, max_loops=2, max_len=3):
    """Random single-qubit statement with at most ``max_loops`` nested loops.

    Returns ``(text, locations)``: the statement and the number of locations
    ``qtl compile`` gives it, the fresh exit location included.  The count
    follows the compiler's layout (one location per basic statement, guard
    and loop head; loop-free branches padded with skips to the slowest
    branch) and is computed here, so that the sampled workload does not
    depend on the compiler.
    """

    def stmt(loops_left, length):
        # -> (text, locations, fixed step cost or None when it has a loop)
        parts = []
        for _ in range(rng.randint(1, length)):
            roll = rng.random()
            if roll < 0.2:
                parts.append(("skip", 1, 1))
            elif roll < 0.35:
                parts.append(("q0 := |0>", 1, 1))
            elif roll < 0.6:
                parts.append((f"apply {rng.choice(['H', 'X', 'Z'])} to q0", 1, 1))
            elif roll < 0.8 and loops_left > 0:
                text, locs, _ = stmt(loops_left - 1, max(1, length - 1))
                parts.append((f"while meas M(q0) == 1 {{ {text} }}", 1 + locs, None))
            else:
                arms = [stmt(0 if loops_left == 0 else loops_left - 1, 1) for _ in range(2)]
                text = f"if meas M(q0) {{ 0 -> {arms[0][0]}; 1 -> {arms[1][0]}; }}"
                costs = [cost for _, _, cost in arms]
                if None in costs:
                    parts.append((text, 1 + sum(locs for _, locs, _ in arms), None))
                else:
                    slowest = max(costs)
                    locs = 1 + sum(locs + slowest - cost for _, locs, cost in arms)
                    parts.append((text, locs, 1 + slowest))
        costs = [cost for _, _, cost in parts]
        return (
            "; ".join(text for text, _, _ in parts),
            sum(locs for _, locs, _ in parts),
            None if None in costs else sum(costs),
        )

    text, locations, _ = stmt(max_loops, max_len)
    return text, locations + 1


def random_qwhile_source(rng, body: str) -> str:
    """A single-qubit source around ``body`` with an input drawn from
    |0>, |1>, |+> and |->."""
    ket = rng.choice(sorted(KET))
    return _QW_PREAMBLE + f"input {_qw_matrix(KET[ket])};\n" + body + "\n"


def loop_family_source(n_qubits: int, rest: int = 0) -> str:
    """The n-qubit member of the measure-Hadamard loop family.

    ``skip; while meas M(q0) == 1 { apply U to q0..q(n-1) }`` with
    U = sqrt(1/2) (H_dir x I) CX on the first two qubits (H alone at one
    qubit) and input |-> x |rest> (|rest> a basis state of the other
    qubits, |0...0> by default).  Every member exits with probability one
    after 4 expected steps, always with q0 = 0.
    """
    h_dir = [[real(1), real(1)], [real(1), real(-1)]]
    if n_qubits == 1:
        u = h_dir
    else:
        cx = eye(4)
        cx[2][2], cx[2][3], cx[3][2], cx[3][3] = ZERO, ONE, ONE, ZERO
        tail = eye(1 << (n_qubits - 2))
        u = matmul(kron(kron(h_dir, eye(2)), tail), kron(cx, tail))
    minus = [[real(Fraction(1, 2)), real(Fraction(-1, 2))], [real(Fraction(-1, 2)), real(Fraction(1, 2))]]
    rho = kron(minus, unit(1 << (n_qubits - 1), rest, rest))
    qubits = ", ".join(f"q{k}" for k in range(n_qubits))
    return (
        f"qubits {n_qubits};\n"
        f"unitary U = sqrt(1/2) * {to_qw(u)};\n"
        "measurement M = {[[1, 0], [0, 0]], [[0, 0], [0, 1]]};\n"
        f"input {to_qw(rho)};\n"
        f"skip;\nwhile meas M(q0) == 1 {{ apply U to {qubits} }}\n"
    )


# ----------------------------------------------------------------------
# the concurrent scheduler with a two-location watcher


def scheduler_program_json(initial_bit: int):
    """Two processes sharing one qubit (D = 2 x 2 x 2 x 2 = 16).

    Process 1 flips the qubit once, then idles.  Process 2 measures at
    ``watch``: on outcome 0 it may keep control or go to ``flop`` and hand
    control back; ``flop`` applies X and returns to ``watch`` with
    scheduler 1.  The two choices on outcome 0 give two selector actions.
    """
    x = [[0, 1], [1, 0]]
    i2 = [[1, 0], [0, 1]]
    basis = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    return {
        "dimension": 2,
        "processes": [
            {
                "locations": ["flip", "done"],
                "initial_location": "flip",
                "act": {
                    "flip": {"kraus": [x], "measurement": basis, "next": {"0": [["done", 2]], "1": [["done", 2]]}},
                    "done": {"kraus": [i2], "measurement": basis, "next": {"0": [["done", 2]], "1": [["done", 2]]}},
                },
            },
            {
                "locations": ["watch", "flop"],
                "initial_location": "watch",
                "act": {
                    "watch": {
                        "kraus": [i2],
                        "measurement": basis,
                        "next": {"0": [["watch", 2], ["flop", 1]], "1": [["watch", 1]]},
                    },
                    "flop": {"kraus": [x], "measurement": basis, "next": {"0": [["watch", 1]], "1": [["watch", 1]]}},
                },
            },
        ],
        "initial_scheduler": 1,
        "initial_state": basis[initial_bit],
    }


def scheduler_configs():
    """Configuration labels of the scheduler program, as the atom files name them."""
    return [
        repr(((p1, p2), s))
        for p1 in ("flip", "done")
        for p2 in ("watch", "flop")
        for s in (1, 2)
    ]
