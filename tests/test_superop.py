import collections
import functools
import itertools
import json
import math
import pathlib
import random
import runpy
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import qtl.linalg as linalg
import qtl.subspace as subspace
from qtl import jsonio
from qtl.checker import check
from qtl.errors import DimensionMismatch, PreconditionViolated
from qtl.formula import Atom, atom_from_blocks, parse_formula
from qtl.linalg import CRat, Mat, kron, mat_sum
from qtl.program import QuantumAutomaton, to_automaton
from qtl.qwhile import compile_source
from qtl.subspace import Subspace, satisfies, support
from qtl.superop import (
    Measurement,
    MatrixRep,
    SuperOp,
    _Stack,
    _four_squares,
    hvec,
    image,
    image_union,
    preimage,
    preimage_union,
    unvec,
    vec,
)

from helpers import (
    HADAMARD_DIRECTION,
    KET_PLUS_DENSITY,
    PAULI_X,
    PAULI_Y,
    THREE_QUBIT_LOOP_SRC,
    basis_union,
    dense_cut_body,
    random_automaton,
    random_cayley_unitary,
    random_concurrent_program,
    random_density,
    random_deterministic_program,
    random_matrix,
    random_phase_permutation,
    random_projective_channel,
    random_rational_rotation,
    random_reset_channel,
    random_scalar,
    random_subspace,
    random_tp_channel,
    random_union,
    span,
    union,
)

DAMP = SuperOp(
    [Mat.from_rows([[1, 0], [0, 0]]), Mat.from_rows([[0, 1], [0, 0]])], validate=True
)
X_CONJ = SuperOp.from_unitary(PAULI_X)
HADAMARD = SuperOp.from_scaled_unitary(HADAMARD_DIRECTION, Fraction(1, 2))
KET0 = Mat.from_rows([[1, 0], [0, 0]])


def _trace_decreasing(rng, n):
    """A random channel with its last Kraus operator dropped and the rest halved."""
    kraus = random_tp_channel(rng, n).kraus
    return SuperOp([k * CRat(Fraction(1, 2)) for k in kraus[:-1] or kraus], validate=True)


class TestApply:
    def test_identity(self):
        rng = random.Random(0)
        rho = random_density(rng, 3)
        assert SuperOp.identity(3).apply(rho) == rho

    def test_hadamard_on_zero_gives_plus(self):
        assert HADAMARD.apply(KET0) == KET_PLUS_DENSITY

    def test_damping_on_plus(self):
        assert DAMP.apply(KET_PLUS_DENSITY) == KET0

    def test_trace_non_increasing(self):
        rng = random.Random(1)
        for _ in range(10):
            e = random_tp_channel(rng, 2)
            rho = random_density(rng, 2)
            assert e.apply(rho).trace() == rho.trace()


class TestDual:
    def test_unitary_dual(self):
        dual = X_CONJ.dual()
        assert dual.kraus == (PAULI_X.dagger(),)

    def test_involution(self):
        assert DAMP.dual().dual().kraus == DAMP.kraus

    def test_duality_identity_exact(self):
        rng = random.Random(2)
        for _ in range(10):
            e = random_tp_channel(rng, 2)
            a = random_matrix(rng, 2)
            rho = random_matrix(rng, 2)
            lhs = (a @ e.apply(rho)).trace()
            rhs = (e.dual().apply(a) @ rho).trace()
            assert lhs == rhs


def _stack_channels(rng):
    """Seeded channels for the stack tests: real and complex, square and
    rectangular (dim_in != dim_out), over unequal denominators."""
    third, fifth = CRat(Fraction(1, 3)), CRat(Fraction(2, 5), Fraction(-1, 7))

    def real_matrix(rows, cols):
        return Mat.from_rows([[random_scalar(rng, real=True) for _ in range(cols)] for _ in range(rows)])

    channels = []
    for n in (1, 2, 3, 4):
        channels += [random_tp_channel(rng, n), random_projective_channel(rng, n)]
        channels.append(SuperOp([random_matrix(rng, n) * third, random_matrix(rng, n) * fifth, Mat.zeros(n)], validate=False))
    for rows, cols in ((2, 3), (3, 2), (1, 4), (4, 2)):
        channels.append(SuperOp([random_matrix(rng, rows, cols) * third, random_matrix(rng, rows, cols) * fifth], validate=False))
        channels.append(SuperOp([real_matrix(rows, cols), Mat.zeros(rows, cols), real_matrix(rows, cols) * third], validate=False))
    return channels


def _eager_tables(kraus):
    """``turned`` and ``hits`` built at once from the Kraus grids: i (re + i
    im) = -im + i re per entry, and the rows hit per column when no operator
    has two rows there."""
    n, den = kraus[0].rows, math.lcm(*(k.den for k in kraus))
    turned, hits = [], []
    for v in range(kraus[0].cols):
        column, rows, single = [], set(), True
        for i, k in enumerate(kraus):
            hit = [u for u in range(n) if k.num_re[u, v] or k.num_im[u, v]]
            single = single and len(hit) <= 1
            rows.update(hit)
            for u in hit:
                scale = den // k.den
                column += [(i, u, -k.num_im[u, v] * scale)] if k.num_im[u, v] else []
                column += [(i, n + u, k.num_re[u, v] * scale)] if k.num_re[u, v] else []
        turned.append(column)
        hits.append(tuple(sorted(rows)) if single else None)
    return turned, hits


class TestStackByTransposition:
    """The dual's stack is its channel's transposed, the image tables are
    built on their first read, and neither changes an image."""

    def test_dual_stack_is_the_daggered_stack(self):
        rng = random.Random(3301)
        for e in _stack_channels(rng):
            daggers = [k.dagger() for k in e.kraus]
            built, moved = _Stack.of(daggers), e.dual()._stack
            assert (moved.den, moved.real, moved.dim_out, moved.n_ops) == (built.den, built.real, e.dim_in, len(e.kraus))
            assert len(moved.terms) == len(built.terms) == e.dim_out
            for got, want in zip(moved.terms, built.terms):
                assert collections.Counter(got) == collections.Counter(want)
            # the dual's Kraus operators are the adjoints, and dual twice is the channel
            assert e.dual().kraus == tuple(daggers)
            assert e.dual().dual() is e
            assert e.dual().dual()._stack is e._stack

    def test_lazy_tables_equal_the_eager_ones(self):
        rng = random.Random(3302)
        for e in _stack_channels(rng):
            for side in (e, e.dual()):
                st = side._stack
                assert st._turned is None and st._hits is None
                turned, hits = _eager_tables(side.kraus)
                assert [collections.Counter(t) for t in st.turned] == [collections.Counter(t) for t in turned]
                assert st.hits == hits
                assert st.turned is st.turned and st.hits is st.hits

    def test_images_equal_the_dense_references(self):
        # square channels against the matrix representation, rectangular
        # ones against the support of the sum of K rho K† and of its dual
        rng = random.Random(3303)
        for e in _stack_channels(rng):
            m, n = e.dim_in, e.dim_out
            ref = MatrixRep(e.matrix_rep()) if m == n else None
            for _ in range(3):
                s, t = random_subspace(rng, m), random_subspace(rng, n)
                if ref is not None:
                    assert image(e, s) == ref.image(s) and preimage(e, t) == ref.preimage(t)
                img = support(mat_sum(k @ s.projector @ k.dagger() for k in e.kraus), validate=False)
                pulled = mat_sum(k.dagger() @ t.complement().projector @ k for k in e.kraus)
                assert image(e, s) == (img if s.dim else Subspace.zero(n))
                assert preimage(e, t) == support(pulled, validate=False).complement()

    def test_loading_an_automaton_builds_no_image_table(self, monkeypatch):
        # validation reads the entries alone: loading lattice-sized
        # automata (d = 2-3, 1-3 actions) builds no turned or hits table
        rng = random.Random(3304)
        texts = [jsonio.dumps(jsonio.program_to_json(random_automaton(rng, rng.choice([2, 3]), rng.randint(1, 3))))
                 for _ in range(20)]
        read = []
        for name in ("turned", "hits"):
            table = getattr(_Stack, name)
            monkeypatch.setattr(_Stack, name, property(lambda st, _name=name, _t=table: read.append(_name) or _t.fget(st)))
        for text in texts:
            a = jsonio.program_from_json(json.loads(text))
            assert all(e._stack is not None and e._stack.terms is not None for e in a.actions.values())
        assert read == []

    def test_invariance_builds_one_stack_per_action(self, monkeypatch):
        # [] u pulls back through the duals: each action's stack is read
        # once, straight from its Kraus literals, with the entries of the
        # stack of its Kraus Mats in their order, and transposed for its
        # dual, and neither the channel nor its dual forms a Kraus Mat.
        # The initial state spans u, so the pre-image chain runs at least
        # one round
        rng = random.Random(3305)
        cases = []
        for _ in range(12):
            a = random_automaton(rng, rng.choice([2, 3]), rng.randint(1, 3))
            u = random_subspace(rng, a.dim, dim=rng.randint(1, a.dim - 1))
            a = QuantumAutomaton(a.dim, a.actions, u.projector * CRat(Fraction(1, u.dim)))
            cases.append((jsonio.dumps(jsonio.program_to_json(a)), {"u": Atom("u", u)}))
        built, formed = [], []
        init, mats = _Stack.__init__, _Stack.mats
        for text, atoms in cases:
            built.clear(), formed.clear()
            doc = json.loads(text)
            with monkeypatch.context() as m:
                m.setattr(_Stack, "__init__", lambda st, *args: built.append(st) or init(st, *args))
                m.setattr(_Stack, "mats", lambda st: formed.append(st) or mats(st))
                a = jsonio.program_from_json(doc)
                check(a, parse_formula("[] u", atoms), atoms)
            actions = [a.actions[name] for name in doc["actions"]]
            assert built == [e._stack for e in actions]
            for e, name in zip(actions, doc["actions"]):
                st, ref = e._stack, _Stack.of([Mat.from_rows(k) for k in doc["actions"][name]["kraus"]])
                assert (st.terms, st.den, st.real, st.dim_out, st.n_ops) == (ref.terms, ref.den, ref.real, a.dim, ref.n_ops)
            assert formed == []
            assert all(e._kraus is None and e._dual is not None and e._dual._kraus is None for e in actions)


def _read_path_kraus(rng, kind, n) -> list:
    """Kraus operators of a trace-non-increasing channel of one kind: "real"
    (rotations, projections, resets), "complex" (a trace-preserving channel
    after a dense complex unitary), "tall" and "wide" (rectangular: zero
    rows added, or each operator's rows split in two), "decreasing" (halved,
    with a zero operator)."""
    if kind == "real":
        return list(random_tp_channel(rng, n, finite_order=rng.random() < 0.5).kraus)
    v = random_cayley_unitary(rng, n)
    kraus = [k @ v for k in random_tp_channel(rng, n).kraus]
    if kind == "tall":
        extra = rng.randint(1, 2)
        return [k.vstack(Mat.zeros(extra, n)) for k in kraus]
    if kind == "wide":
        top = (n + 1) // 2
        return [part for k in kraus for part in (k[:top, :], k[top:, :].vstack(Mat.zeros(2 * top - n, n)))]
    if kind == "decreasing":
        return [k * CRat(Fraction(1, 2)) for k in kraus] + [Mat.zeros(n)]
    return kraus


class TestStackProduct:
    """``SuperOp.compose`` multiplies the two Kraus stacks
    (``_Stack.product``): the Kraus Mats of the Mat products, a-major, with
    the stack read off them, and no Mat product formed."""

    @staticmethod
    def _pairs(rng):
        channels = _stack_channels(rng)
        for outer in channels:
            for inner in channels:
                if inner.dim_out == outer.dim_in and rng.random() < 0.5:
                    yield outer, inner
        i_eye = SuperOp([Mat.eye(2) * CRat(0, 1)], validate=False)
        yield i_eye, i_eye  # i I times i I: complex factors, real product

    def test_compose_equals_the_mat_products(self, monkeypatch):
        rng = random.Random(4501)
        pairs = list(self._pairs(rng))
        assert len(pairs) > 20
        for outer, inner in pairs:
            products = [a @ b for a in outer.kraus for b in inner.kraus]
            with monkeypatch.context() as m:
                m.setattr(Mat, "__matmul__", lambda a, b: pytest.fail("formed a Mat product"))
                composed = outer.compose(inner)
            got, want = composed._stack, _Stack.of(products)
            assert (got.den, got.real, got.dim_out, got.n_ops) == (want.den, want.real, want.dim_out, want.n_ops)
            assert [collections.Counter(t) for t in got.terms] == [collections.Counter(t) for t in want.terms]
            assert (composed.dim_in, composed.dim_out) == (inner.dim_in, outer.dim_out)
            assert list(composed.kraus) == products
        assert pairs[-1][0].compose(pairs[-1][1])._stack.real

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            SuperOp.identity(2).compose(SuperOp.identity(3))


class TestRepr:
    def test_repr_forms_no_kraus_mat(self, monkeypatch):
        # a stacked channel counts its operators on the stack: the one
        # action of a 150-skip program, and a composition of two channels
        step = next(iter(to_automaton(compile_source("qubits 1;\n" + "; ".join(["skip"] * 150))).actions.values()))
        x, h = SuperOp.from_unitary(PAULI_X), SuperOp([HADAMARD_DIRECTION * CRat(Fraction(1, 2)), HADAMARD_DIRECTION * CRat(Fraction(1, 2))])
        composed = x.compose(h)
        monkeypatch.setattr(_Stack, "mats", lambda st: pytest.fail("formed the Kraus Mats"))
        assert repr(step) == "SuperOp(151 Kraus, 302->302)"
        assert repr(composed) == "SuperOp(2 Kraus, 2->2)"
        assert repr(SuperOp.from_unitary(PAULI_Y)) == "SuperOp(1 Kraus, 2->2)"


class TestReadPath:
    """A channel read from JSON reads its stack straight from the file's
    literals and forms its Kraus Mats, and its dual's, from the stacks."""

    def test_operator_literals_skip_the_grid_reader(self, monkeypatch):
        # of automata, the 3-qubit loop and a concurrent program, only the
        # initial state is read into integer grids (linalg._read_ints, under
        # _int_rows); no Kraus or measurement literal is, and no operator
        # Mat is formed
        rng = random.Random(3312)
        programs = [random_automaton(rng, 2 + k % 2, 1 + k % 3) for k in range(6)]
        programs += [compile_source(THREE_QUBIT_LOOP_SRC), random_concurrent_program(rng, 2, 2)]
        docs = [json.loads(jsonio.dumps(jsonio.program_to_json(p))) for p in programs]
        read, read_ints = [], linalg._read_ints
        monkeypatch.setattr(linalg, "_read_ints", lambda rows, per_row=False: read.append(rows) or read_ints(rows, per_row))
        monkeypatch.setattr(_Stack, "mats", lambda st: pytest.fail("formed an operator Mat"))
        for doc in docs:
            read.clear()
            jsonio.program_from_json(doc)
            assert read == [doc["initial_state"]]

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["real", "complex", "tall", "wide", "decreasing"]), st.integers(1, 4))
    def test_round_trip(self, seed, kind, n):
        rng = random.Random(seed)
        literals = [jsonio.mat_to_json(k) for k in _read_path_kraus(rng, kind, n)]
        text = jsonio.dumps({"kraus": literals})
        expected = tuple(Mat.from_rows(k) for k in literals)
        # the dual first: its Kraus Mats come from its own stack, and the
        # validation (the PSD gap too) forms none
        e = jsonio.channel_from_json(json.loads(text))
        assert e._kraus is None
        assert e.dual().kraus == tuple(k.dagger() for k in expected)
        assert e._kraus is None
        assert e.kraus == expected
        assert e.is_trace_preserving() == (kind != "decreasing")
        assert jsonio.dumps(jsonio.channel_to_json(e)) == text
        assert jsonio.dumps(jsonio.channel_to_json(e.dual())) == jsonio.dumps(
            {"kraus": [jsonio.mat_to_json(k.dagger()) for k in expected]}
        )

    def test_literals_in_any_form(self):
        # unreduced ratios, decimals, bare integers and [re, im] pairs read
        # as Mat.from_rows reads them, over the lcm of the denominators
        literals = [
            [["6/10", 0], ["0", "0.6"]],
            [[["0", "8/10"], "0"], [0, ["-0", "-0.8"]]],
            [["0", "0"], [["1/4", "1/4"], "-0.25"]],
        ]
        e = jsonio.channel_from_json({"kraus": literals[:2]})
        assert e.kraus == tuple(Mat.from_rows(k) for k in literals[:2])
        assert [k.den for k in e.kraus] == [5, 5] and e.is_trace_preserving()
        e = jsonio.channel_from_json({"kraus": [literals[0], literals[2]]})
        assert e.kraus == (Mat.from_rows(literals[0]), Mat.from_rows(literals[2]))
        assert [k.den for k in e.kraus] == [5, 4] and not e.is_trace_preserving()

    def test_measurements_read_from_json(self):
        rng = random.Random(3310)
        for _ in range(6):
            prog = random_deterministic_program(rng, rng.choice([2, 3]), rng.randint(2, 4))
            doc = json.loads(jsonio.dumps(jsonio.program_to_json(prog)))
            loaded = jsonio.program_from_json(doc)
            for loc, act in loaded.act.items():
                literals = doc["act"][loc]["measurement"]
                assert len(act.measurement) == len(literals)
                assert act.measurement.operators == tuple(Mat.from_rows(m) for m in literals)
                assert act.measurement == prog.act[loc].measurement
        # completeness is tested on the stack of the rows
        bad = {"kraus": [[["1", "0"], ["0", "1"]]], "measurement": [[["1", "0"], ["0", "0"]]], "next": {"0": ["l"]}}
        with pytest.raises(PreconditionViolated, match="do not sum to the identity"):
            jsonio._act_from_json(bad, False)
        with pytest.raises(DimensionMismatch, match="square and equal size"):
            jsonio._act_from_json(dict(bad, measurement=[[["1", "0"]]]), False)
        with pytest.raises(PreconditionViolated, match="at least one operator"):
            jsonio._act_from_json(dict(bad, measurement=[]), False)

    def test_lattice_queries_form_no_kraus_mat(self, monkeypatch):
        # loading an automaton and its atoms and deciding X, [], <>[] and
        # []<> form no Kraus Mat, and read no atom through Mat.from_rows:
        # the initial state is the one literal read as a Mat
        rng = random.Random(3311)
        cases = []
        for k in range(24):
            dim = 2 + k % 2
            a = random_automaton(rng, dim, 1 + k % 3, finite_order=k % 4 < 2)
            u = basis_union(rng, dim) if k % 2 else random_union(rng, dim, max_members=1)
            atoms = [{"name": f"u{j}", "subspace": jsonio.subspace_to_json(m)} for j, m in enumerate(u.members)]
            union_text = " || ".join(f"u{j}" for j in range(len(atoms)))
            cases.append((jsonio.dumps(jsonio.program_to_json(a)), jsonio.dumps(atoms), f"({union_text})"))
        formed, read = [], []
        mats, from_rows = _Stack.mats, Mat.from_rows
        monkeypatch.setattr(_Stack, "mats", lambda st: formed.append(st) or mats(st))
        monkeypatch.setattr(Mat, "from_rows", staticmethod(lambda rows: read.append(rows) or from_rows(rows)))
        coordinate = 0
        for text, atoms_text, u in cases:
            doc, atoms_doc = json.loads(text), json.loads(atoms_text)
            read.clear()
            a = jsonio.program_from_json(doc)
            assert read == [doc["initial_state"]]
            read.clear()
            atoms = jsonio.atoms_from_json(atoms_doc, a)
            coordinate += sum(atom.subspace.is_coordinate() for atom in atoms.values())
            for formula in (f"X {u}", f"[] {u}", f"<>[] {u}", f"[]<> {u}"):
                check(a, parse_formula(formula, atoms), atoms)
            assert read == []
        assert formed == [] and coordinate >= 12


class TestMatrixRep:
    def test_identity(self):
        assert SuperOp.identity(2).matrix_rep() == Mat.eye(4)

    def test_pauli_x(self):
        assert X_CONJ.matrix_rep() == kron(PAULI_X, PAULI_X)

    def test_vectorization_identity(self):
        # (E(A) x I)|Phi> = M (A x I)|Phi> with |Phi> the unnormalized
        # maximally entangled column, i.e. vec(E(A)) = M vec(A)
        rng = random.Random(3)
        for _ in range(20):
            dim = rng.choice([2, 3])
            e = SuperOp([random_matrix(rng, dim) for _ in range(rng.randint(1, 3))], validate=False)
            a = random_matrix(rng, dim)
            assert vec(e.apply(a)) == e.matrix_rep() @ vec(a)

    def test_rep_multiplicative_under_compose(self):
        rng = random.Random(4)
        for _ in range(10):
            e1 = random_tp_channel(rng, 2)
            e2 = random_tp_channel(rng, 2)
            composed = e1.compose(e2)
            assert composed.matrix_rep() == e1.matrix_rep() @ e2.matrix_rep()

    def test_matrixrep_wrapper_matches_channel(self):
        rng = random.Random(5)
        e = random_tp_channel(rng, 3)
        rep = MatrixRep(e.matrix_rep())
        rho = random_density(rng, 3)
        assert rep.apply(rho) == e.apply(rho)
        a = random_matrix(rng, 3)
        h = a.dagger() @ a
        assert rep.dual_apply(h) == e.dual().apply(h)

    def test_vec_unvec_roundtrip(self):
        rng = random.Random(6)
        a = random_matrix(rng, 3)
        assert unvec(vec(a), 3) == a


def _hermitian_basis(d) -> list:
    """The operators H_c of the slots c of hvec, in slot order: E_ii at
    i d + i, E_ij + E_ji at i d + j and i(E_ij - E_ji) at j d + i, i < j."""
    basis = {}
    for i, j in itertools.product(range(d), repeat=2):
        if i == j:
            basis[i * d + i] = Mat.unit(d, i, i)
        elif i < j:
            basis[i * d + j] = Mat.unit(d, i, j) + Mat.unit(d, j, i)
            basis[j * d + i] = (Mat.unit(d, i, j) - Mat.unit(d, j, i)) * CRat(0, 1)
    return [basis[c] for c in range(d * d)]


class TestHermitianRep:
    """The channel in the Hermitian operator basis, checked column by
    column against the channel applied to each basis operator: apply
    multiplies the Kraus operators out, sharing no code with the builder."""

    def test_columns_are_the_images_of_the_basis(self):
        rng = random.Random(32)
        channels = [_trace_decreasing(rng, 3)]
        for d in (2, 3, 4):
            channels += [random_tp_channel(rng, d) for _ in range(4)]
            channels += [SuperOp.from_unitary(random_cayley_unitary(rng, d)) for _ in range(2)]
        assert sum(not all(k.is_real() for k in e.kraus) for e in channels) >= 6
        assert not channels[0].is_trace_preserving()
        for e in channels:
            h = e.hermitian_rep()
            assert h.is_real()
            for c, basis_op in enumerate(_hermitian_basis(e.dim_in)):
                assert h[:, [c]] == hvec(e.apply(basis_op))

    def test_square_operators_only(self):
        e = SuperOp([Mat.from_rows([[1, 0]])], validate=False)
        for rep in (e.matrix_rep, e.hermitian_rep):
            with pytest.raises(DimensionMismatch):
                rep()

    def test_hvec_coordinates(self):
        # a Hermitian x is the sum of its coordinates times the basis
        # operators
        rng = random.Random(33)
        for d in (1, 2, 3, 4):
            for _ in range(5):
                b = random_matrix(rng, d)
                x = b + b.dagger()
                v = hvec(x)
                assert v.is_real() and v.rows == d * d
                assert mat_sum(op * v.entry(c, 0) for c, op in enumerate(_hermitian_basis(d))) == x


class TestPreimageImage:
    def test_unitary_pullback(self):
        assert preimage(X_CONJ, span((1, 0))) == span((0, 1))

    def test_identity_preimage(self):
        rng = random.Random(7)
        p = random_subspace(rng, 2)
        assert preimage(SuperOp.identity(2), p) == p

    def test_damp_preimage_of_one(self):
        assert preimage(DAMP, span((0, 1))).is_zero()

    def test_image_examples(self):
        rng = random.Random(8)
        p = random_subspace(rng, 2)
        assert image(SuperOp.identity(2), p) == p
        assert image(X_CONJ, span((1, 0))) == span((0, 1))
        assert image(DAMP, Subspace.full(2)) == span((1, 0))
        assert image(DAMP, Subspace.zero(2)).is_zero()

    def test_preimage_is_inverse_satisfaction_set(self):
        rng = random.Random(9)
        for _ in range(40):
            e = random_tp_channel(rng, 2)
            p = random_subspace(rng, 2)
            rho = random_density(rng, 2)
            assert satisfies(e.apply(rho), p) == satisfies(rho, preimage(e, p))

    def test_image_preimage_adjunction(self):
        # the Kraus-form image and pre-image are adjoint and agree with the
        # reference computed from the matrix representation
        rng = random.Random(10)
        makers = [random_tp_channel, random_reset_channel, random_projective_channel, _trace_decreasing]
        for n in (2, 3, 4):
            for make in makers:
                for _ in range(3):
                    e = make(rng, n)
                    ref = MatrixRep(e.matrix_rep())
                    subspaces = [Subspace.zero(n), Subspace.full(n)]
                    subspaces += [random_subspace(rng, n) for _ in range(2)]
                    for s in subspaces:
                        assert image(e, s) == ref.image(s)
                        assert preimage(e, s) == ref.preimage(s)
                        for p in subspaces:
                            assert p.contains(image(e, s)) == preimage(e, p).contains(s)

    def test_block_sparse_channels(self):
        # program actions map one configuration's block to another's, so
        # their Kraus stacks are mostly zero: the compressed stack must give
        # the reference image and pre-image and hand on no zero row
        rng = random.Random(12)
        channels = []
        for _ in range(4):
            prog = random_deterministic_program(rng, rng.choice([2, 3]), rng.randint(1, 3))
            channels += to_automaton(prog).actions.values()
            channels.append(dense_cut_body(prog))
        demo = pathlib.Path(__file__).resolve().parent.parent / "demos" / "05_concurrent_scheduler.py"
        channels += to_automaton(runpy.run_path(str(demo))["program"]).actions.values()
        kraus = random_tp_channel(rng, 3).kraus
        channels.append(SuperOp([kraus[0], Mat.zeros(3), *kraus[1:]], validate=True))
        channels.append(SuperOp([Mat.zeros(3), Mat.zeros(3)], validate=True))
        for e in channels:
            n = e.dim_in
            ref = MatrixRep(e.matrix_rep())
            picked = rng.sample(range(n), n // 2)
            coordinates = Subspace.from_vectors(n, [[int(i == j) for i in range(n)] for j in picked])
            subspaces = [Subspace.zero(n), Subspace.full(n), coordinates]
            subspaces += [random_subspace(rng, n) for _ in range(2)]
            for s in subspaces:
                assert image(e, s) == ref.image(s)
                assert preimage(e, s) == ref.preimage(s)
                for side in (e, e.dual()):
                    rows = side._image_rows(s.rref)
                    assert rows.cols == n
                    assert all(rows.num_re[i].any() or rows.num_im[i].any() for i in range(rows.rows))
                for p in subspaces:
                    assert p.contains(image(e, s)) == preimage(e, p).contains(s)

    @staticmethod
    def _kernel_channels(rng):
        """Channels for the image kernel: complex Kraus operators over
        unequal denominators (2, 3, 5 and 7), zero operators, program
        actions, and the duals of all of them."""
        third, fifth = CRat(Fraction(1, 3)), CRat(Fraction(2, 5), Fraction(-1, 7))
        channels = []
        for n in (2, 3, 4):
            kraus = [random_matrix(rng, n) * third, random_matrix(rng, n) * fifth, Mat.zeros(n)]
            channels.append(SuperOp([Mat.zeros(n), *kraus], validate=False))
        channels.append(SuperOp([PAULI_Y * CRat(Fraction(1, 2)), HADAMARD_DIRECTION * CRat(0, Fraction(1, 3))], validate=False))
        channels.append(SuperOp([Mat.zeros(3), Mat.zeros(3)], validate=True))
        for _ in range(2):
            prog = random_deterministic_program(rng, rng.choice([2, 3]), rng.randint(2, 3))
            channels += to_automaton(prog).actions.values()
        return channels + [e.dual() for e in channels]

    def test_image_rows_are_the_nonzero_kraus_images(self):
        # _image_rows returns every nonzero K_i r, row by row and operator by
        # operator, times one positive scale per call, and its span is the
        # reference image of the span of the input rows
        rng = random.Random(15)
        for e in self._kernel_channels(rng):
            n = e.dim_in
            ref = MatrixRep(e.matrix_rep())
            inputs = [random_matrix(rng, k, n) * CRat(Fraction(1, rng.randint(2, 9))) for k in (1, 2, 3)]
            inputs += [Mat.from_rows([[random_scalar(rng, real=True) for _ in range(n)] for _ in range(2)]), Mat.eye(n)]
            for rows in inputs:
                got = e._image_rows(rows)
                expected = [
                    image_row
                    for i in range(rows.rows)
                    for k in e.kraus
                    if not (image_row := (k @ rows[i : i + 1, :].transpose()).transpose()).is_zero()
                ]
                assert got.rows == len(expected) and got.cols == e.dim_out
                if not expected:
                    continue
                want = functools.reduce(Mat.vstack, expected)
                # the scale is the ratio of any nonzero entry, and positive
                i, j = next((i, j) for i in range(want.rows) for j in range(want.cols) if want.entry(i, j))
                scale = got.entry(i, j) / want.entry(i, j)
                assert scale.im == 0 and scale.re > 0
                assert got == want * scale
                assert Subspace(n, got) == ref.image(Subspace(n, rows))

    def test_kernels_build_no_matrices_beyond_their_result(self, monkeypatch):
        # one _image_rows call builds its result and no other Mat, even the
        # call that builds the channel's stack; a containment test builds none
        rng = random.Random(16)
        cases = [(e, random_subspace(rng, e.dim_in, dim=2)) for e in self._kernel_channels(rng)]
        tests = []
        for _ in range(10):
            big = random_subspace(rng, 4, dim=3)
            tests += [(big, big.rref[1:, :]), (big, random_matrix(rng, 2, 4)), (big, big.complement().rref)]
        built = []
        init = Mat.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Mat, "__init__", counted)
        for e, p in cases:
            rows = p.rref  # a coordinate subspace makes its unit rows on first read
            for _ in range(2):
                built.clear()
                e._image_rows(rows)
                assert len(built) == 1
        for big, rows in tests:
            built.clear()
            big._spans(rows)
            assert not built

    def test_memoized_images_match_the_matrix_rep(self):
        # each channel keeps its images by input subspace, and a pre-image
        # goes through its dual's: first and repeated calls must both give
        # the reference, and a repeated call the very same object
        rng = random.Random(13)
        for n in (2, 3, 4):
            for make in (random_tp_channel, random_projective_channel, random_reset_channel):
                e = make(rng, n)
                ref = MatrixRep(e.matrix_rep())
                subspaces = [Subspace.zero(n), Subspace.full(n)]
                subspaces += [random_subspace(rng, n) for _ in range(3)]
                for s in subspaces:
                    img, pre = image(e, s), preimage(e, s)
                    assert img == ref.image(s) and pre == ref.preimage(s)
                    # an equal subspace built anew finds the same entry
                    again = Subspace(n, s.rref)
                    assert image(e, again) is img and preimage(e, again) is pre

    def test_matrixrep_power_is_repeated_product(self):
        rng = random.Random(14)
        for make in (random_tp_channel, random_projective_channel, random_reset_channel):
            m = make(rng, 2).matrix_rep()
            expected = Mat.eye(m.rows)
            for k in range(6):
                assert MatrixRep(m).power(k).m == expected
                expected = expected @ m

    def test_union_versions_memberwise(self):
        rng = random.Random(11)
        e = random_tp_channel(rng, 2)
        u = union(span((1, 0)), span((0, 1)))
        assert preimage_union(e, u) == union(
            preimage(e, span((1, 0))), preimage(e, span((0, 1)))
        )
        assert image_union(e, u) == union(image(e, span((1, 0))), image(e, span((0, 1))))


class TestTracePreservation:
    def test_unitary_preserving(self):
        assert X_CONJ.is_trace_preserving()

    def test_half_identity_not(self):
        half = SuperOp([Mat.eye(2) * CRat(Fraction(1, 2))], validate=True)
        assert not half.is_trace_preserving()

    def test_damp_preserving(self):
        assert DAMP.is_trace_preserving()

    def test_exceeding_identity_rejected(self):
        with pytest.raises(PreconditionViolated):
            SuperOp([Mat.eye(2), Mat.eye(2)], validate=True)

    def test_four_squares(self):
        # one, two, three and four squares: 7 and 15 need four
        assert _four_squares(9) == (3,)
        assert _four_squares(5) == (2, 1)
        assert _four_squares(3) == (1, 1, 1)
        assert _four_squares(7) == (2, 1, 1, 1)
        for n in range(200):
            parts = _four_squares(n)
            assert len(parts) <= 4 and sum(x * x for x in parts) == n

    def test_scaled_unitary_validation(self):
        with pytest.raises(PreconditionViolated):
            SuperOp.from_scaled_unitary(HADAMARD_DIRECTION, Fraction(1, 3))
        assert HADAMARD.is_trace_preserving()
        rho = KET_PLUS_DENSITY
        assert HADAMARD.apply(HADAMARD.apply(rho)) == rho


def _dense_isometry(ops) -> bool:
    """sum K†K == I, by dense products: the reference for the stack test."""
    return mat_sum(k.dagger() @ k for k in ops) == Mat.eye(ops[0].cols)


class TestStackTracePreservation:
    """The trace-preservation and completeness tests on the nonzero entries
    of the Kraus stack against the dense sum of K†K."""

    @pytest.mark.parametrize("seed", range(3))
    def test_agrees_with_the_dense_sum(self, seed):
        rng = random.Random(3100 + seed)
        seen = set()
        for _ in range(40):
            n = rng.choice([1, 2, 3, 4])
            kraus = list(random_tp_channel(rng, n).kraus)
            roll = rng.random()
            if roll < 0.3:
                # every operator halved: sum K†K = I/4
                kraus = [k * CRat(Fraction(1, 2)) for k in kraus]
            elif roll < 0.5:
                # one entry moved off its value
                i, r, c = rng.randrange(len(kraus)), rng.randrange(n), rng.randrange(n)
                kraus[i] = kraus[i] + Mat.unit(n, r, c) * random_scalar(rng)
            elif roll < 0.6:
                # the operators stacked into one isometry C^n -> C^(m n)
                kraus = [functools.reduce(Mat.vstack, kraus)]
            expected = _dense_isometry(kraus)
            assert SuperOp(kraus, validate=False).is_trace_preserving() == expected
            # validated: trace preserving, trace decreasing, or rejected
            gap = Mat.eye(kraus[0].cols) - mat_sum(k.dagger() @ k for k in kraus)
            if expected or linalg.is_psd(gap):
                assert SuperOp(kraus).is_trace_preserving() == expected
                seen.add(expected)
            else:
                with pytest.raises(PreconditionViolated, match="exceed the identity"):
                    SuperOp(kraus)
                seen.add("rejected")
        assert seen == {True, False, "rejected"}

    @pytest.mark.parametrize("seed", range(2))
    def test_measurement_completeness_agrees(self, seed):
        rng = random.Random(3120 + seed)
        seen = set()
        for _ in range(30):
            n = rng.choice([2, 3, 4])
            ops = list(random_projective_channel(rng, n).kraus)
            if rng.random() < 0.5:
                u = random_phase_permutation(rng, n)
                ops = [u @ op for op in ops]
            if rng.random() < 0.4:
                i = rng.randrange(len(ops))
                ops[i] = ops[i] * random_scalar(rng)
            expected = _dense_isometry(ops)
            seen.add(expected)
            if expected:
                assert Measurement(ops).operators == tuple(ops)
            else:
                with pytest.raises(PreconditionViolated, match="do not sum to the identity"):
                    Measurement(ops)
        assert seen == {True, False}

    def test_scaled_isometry_agrees(self):
        """scale * sum K†K = I on the stack against the dense product, for
        scales that hold, that do not divide den^2, and that are zero or
        negative; from_unitary and from_scaled_unitary answer the same."""
        rng = random.Random(3130)
        seen = set()
        for _ in range(40):
            n = rng.choice([2, 3, 4])
            v = random_rational_rotation(rng, n) * CRat(rng.choice([1, 2, 3, Fraction(1, 2), Fraction(2, 3)]))
            if rng.random() < 0.3:
                v = v + Mat.unit(n, rng.randrange(n), rng.randrange(n)) * random_scalar(rng)
            for scale in (Fraction(1), Fraction(1, 4), Fraction(1, 9), Fraction(4), Fraction(9, 4), Fraction(2, 7), Fraction(0), Fraction(-1, 4)):
                expected = (v.dagger() @ v) * CRat(scale) == Mat.eye(n)
                assert _Stack.of([v]).is_isometry(scale) == expected
                seen.add(expected)
                if scale > 0 and expected:
                    assert SuperOp.from_scaled_unitary(v, scale).is_trace_preserving()
                elif scale > 0:
                    with pytest.raises(PreconditionViolated, match="is not the identity"):
                        SuperOp.from_scaled_unitary(v, scale)
            if _dense_isometry([v]):
                assert SuperOp.from_unitary(v).kraus == (v,)
            else:
                with pytest.raises(PreconditionViolated, match="not exactly unitary"):
                    SuperOp.from_unitary(v)
        assert seen == {True, False}


class TestMeasurement:
    def test_completeness_enforced(self):
        with pytest.raises(PreconditionViolated):
            Measurement([Mat.from_rows([[1, 0], [0, 0]])])

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            Measurement([Mat.eye(2), Mat.eye(3)])


class TestChannelEquality:
    def test_kraus_presentation_irrelevant(self):
        # the same channel through different Kraus sets
        one = SuperOp.from_scaled_unitary(HADAMARD_DIRECTION, Fraction(1, 2))
        half = HADAMARD_DIRECTION * CRat(Fraction(1, 2))
        other = SuperOp([half, half * CRat(0, 1)], validate=True)
        assert one == other

    def test_identity_in_kraus_form(self):
        # is_identity reads the Kraus set; == compares matrix representations
        rng = random.Random(12)
        three_fifths, four_fifths = CRat(Fraction(3, 5)), CRat(0, Fraction(4, 5))
        channels = [
            SuperOp.identity(2),
            SuperOp([Mat.eye(2) * three_fifths, Mat.eye(2) * four_fifths]),
            SuperOp([Mat.eye(2) * three_fifths]),
            X_CONJ,
            DAMP,
        ]
        channels += [random_tp_channel(rng, 2) for _ in range(10)]
        channels.append(SuperOp.from_unitary(Mat.from_rows([[1, 0], [0, -1]])))
        verdicts = [e.is_identity() for e in channels]
        assert verdicts == [e == SuperOp.identity(2) for e in channels]
        assert verdicts[:5] == [True, True, False, False, False] and verdicts[-1] is False


def _monomial(rng, n, real):
    """A matrix with at most one nonzero entry per column, some columns zero."""
    rows = [[CRat(0)] * n for _ in range(n)]
    for v in range(n):
        if rng.random() < 0.8:
            rows[rng.randrange(n)][v] = random_scalar(rng, real=real)
    return Mat.from_rows(rows)


def _coordinate_channels(rng):
    """Seeded channels for the coordinate paths: random trace-preserving
    ones, finite-order ones among them, on d = 2-4; monomial ones, real and
    complex; selector-like block moves, dense within a block; and program
    actions."""
    channels = []
    for n in (2, 3, 4):
        for finite_order in (False, True):
            channels += [random_tp_channel(rng, n, finite_order=finite_order) for _ in range(3)]
        for real in (True, False):
            channels.append(SuperOp([_monomial(rng, n, real) for _ in range(rng.randint(1, 3))], validate=False))
    for k in (2, 3):
        moves = [kron(Mat.unit(k, rng.randrange(k), j), random_matrix(rng, 2) if rng.random() < 0.5 else _monomial(rng, 2, False))
                 for j in range(k)]
        channels.append(SuperOp(moves, validate=False))
    prog = random_deterministic_program(rng, 2, 2)
    channels += to_automaton(prog).actions.values()
    return channels


def _coordinate_subspaces(rng, n):
    """Zero, the whole space, and pivot-built coordinate subspaces."""
    picks = [tuple(sorted(rng.sample(range(n), rng.randint(1, n - 1)))) for _ in range(3)]
    return [Subspace.zero(n), Subspace.full(n)] + [Subspace(n, None, p) for p in picks]


class TestCoordinatePaths:
    """The image of a coordinate subspace read off the Kraus stack, and the
    matrix representation summed from it, against the references: the
    MatrixRep image and pre-image, and mat_sum(kron(k, conj k))."""

    def test_images_equal_the_matrix_rep_reference(self):
        rng = random.Random(23)
        paths = set()
        for e in _coordinate_channels(rng):
            n = e.dim_in
            ref = MatrixRep(e.matrix_rep())
            for s in _coordinate_subspaces(rng, n) + [random_subspace(rng, n)]:
                assert image(e, s) == ref.image(s)
                assert preimage(e, s) == ref.preimage(s)
                # the coordinate path and the elimination agree, key and all
                rows_built = Subspace(n, e._image_rows(s.rref)) if s.dim else Subspace.zero(n)
                assert image(e, s) == rows_built and image(e, s).key() == rows_built.key()
                if s.is_coordinate():
                    paths.add(e._stack.coordinate_image(s.pivots) is None)
        # both paths are taken
        assert paths == {True, False}

    def test_matrix_rep_equals_the_kron_sum(self):
        rng = random.Random(24)
        channels = []
        while len(channels) < 300:
            channels += _coordinate_channels(rng)
            prog = random_deterministic_program(rng, rng.choice([2, 3]), rng.randint(2, 4))
            channels += to_automaton(prog).actions.values()
        channels.append(SuperOp([Mat.zeros(3), Mat.zeros(3)], validate=False))
        for e in channels:
            assert e.matrix_rep() == mat_sum(kron(k, k.conj()) for k in e.kraus)

    def test_unit_columns_take_no_elimination_or_kron(self, monkeypatch):
        # demo 05's scheduler: every selector column holds at most one
        # nonzero entry, so images and pre-images of coordinate subspaces,
        # and of its atoms, multiply no image rows and eliminate nothing,
        # and its matrix representations take no Kronecker product
        demo = pathlib.Path(__file__).resolve().parent.parent / "demos" / "05_concurrent_scheduler.py"
        program = runpy.run_path(str(demo))["program"]
        rng = random.Random(25)
        actions = list(to_automaton(program).actions.values())
        n = actions[0].dim_in
        blocks = {c: Subspace(2, None, (0,)) for c in program.configs()[::2]}
        subspaces = _coordinate_subspaces(rng, n) + [atom_from_blocks("p", blocks, program).subspace]
        calls = []
        for owner, name in ((SuperOp, "_image_rows"), (linalg, "rref"), (subspace, "rref"), (linalg, "kron")):
            exact = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, _exact=exact, _name=name: calls.append(_name) or _exact(*a))
        for e in actions:
            for s in subspaces:
                image(e, s), preimage(e, s)
            e.matrix_rep()
        assert calls == []
