"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Everything asserted here is computed at the stated tolerance against an
independent oracle (closed forms, brute-force simulation, exhaustive
enumeration) rather than against the code path under test.
"""

import contextlib
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from qtl.linalg import CRat, Mat, is_psd, kron
from qtl.subspace import SubspaceUnion, satisfies, support
from qtl.superop import SuperOp, preimage
from qtl.program import (
    embed,
    initial_cq,
    simulate_deterministic,
)
from qtl.qwhile import (
    bohm_jacopini,
    compile_qwhile,
    compile_source,
    denote_bounded,
    denote_steps,
    parse,
    steps_for_depth,
)
from qtl.checker import (
    check_always_eventually,
    check_eventually_always,
    check_exit_formulas,
    check_invariance,
    check_terminates,
    kleene_always,
    oracle_bfs,
    reachability_superop,
    replay_word,
)
from qtl.formula import Always, Atom, Eventually, FAtom, Or

from helpers import (
    EXAMPLE_LOOP_SRC,
    basis_union,
    normal_form_exit_series,
    random_automaton,
    random_density,
    random_deterministic_program,
    random_matrix,
    random_qwhile_source,
    random_subspace,
    random_tp_channel,
    random_union,
    span,
)


@contextlib.contextmanager
def criterion(number, description):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL  {description}")
        raise
    print(f"criterion {number:2d} PASS  {description}  ({time.time() - start:.2f}s)")


@pytest.fixture(scope="module")
def example_loop():
    return compile_source(EXAMPLE_LOOP_SRC)


KET0 = Mat.from_rows([[1, 0], [0, 0]])
KET1 = Mat.from_rows([[0, 0], [0, 1]])


def test_criterion_01_example_reproduction(example_loop):
    with criterion(1, "measure-Hadamard loop trajectory reproduced exactly"):
        start = time.time()
        trajectory = simulate_deterministic(example_loop, 21)
        half = CRat(Fraction(1, 2))
        quarter = CRat(Fraction(1, 4))
        minus = Mat.from_rows([["1/2", "-1/2"], ["-1/2", "1/2"]])
        assert trajectory[2].blocks == {"l4": KET0 * half, "l3": KET1 * half}
        assert trajectory[3].blocks == {"l4": KET0 * half, "l2": minus * half}
        assert trajectory[4].blocks == {
            "l4": KET0 * CRat(Fraction(3, 4)),
            "l3": KET1 * quarter,
        }
        for n in range(1, 11):
            weight = Fraction(1, 2**n)
            expected = {
                "l4": KET0 * CRat(1 - weight),
                "l3": KET1 * CRat(weight),
            }
            assert trajectory[2 * n].blocks == expected
        assert time.time() - start < 1.0


def test_criterion_02_example_verdict_triple(example_loop):
    with criterion(2, "verdicts eventually/almost-eventually/always match the source"):
        start = time.time()
        verdicts = check_exit_formulas(example_loop, span((1, 0)))
        assert verdicts.eventually.status == "not_valid"
        assert verdicts.almost_eventually.status == "valid"
        assert verdicts.always.status == "valid"
        assert time.time() - start < 5.0


def test_criterion_03_reachability(example_loop):
    with criterion(3, "reachability trace, 64-step residual and expected steps"):
        start = time.time()
        reach = reachability_superop(example_loop)
        assert abs(reach.diagnostics["reach_trace"] - 1.0) <= 1e-9

        # independent power-iteration oracle, exact: 64 steps of the block dynamics
        sigma64 = simulate_deterministic(example_loop, 64)[-1]
        exit64 = np.zeros((8, 8), dtype=complex)
        e_idx = example_loop.config_index("l4")
        block = sigma64.block("l4").to_complex()
        for h in range(2):
            for h2 in range(2):
                exit64[h * 4 + e_idx, h2 * 4 + e_idx] = block[h, h2]
        diff = exit64 - reach.reach_state.to_complex()
        assert np.sum(np.linalg.svd(diff, compute_uv=False)) < 2**-24

        # independent geometric-series oracle: mass 2^-n exits at step 2n
        oracle = float(sum(Fraction(2 * n, 2**n) for n in range(1, 80)))
        assert abs(reach.expected_steps - oracle) <= 1e-6
        assert abs(oracle - 4.0) < 1e-12
        assert time.time() - start < 5.0


def test_criterion_04_matrix_representation_identity():
    with criterion(4, "(E(A) x I)|Phi> = M (A x I)|Phi> exactly on 100 random channels"):
        rng = random.Random(404)
        for trial in range(100):
            d = 2 if trial % 2 == 0 else 3
            e = SuperOp(
                [random_matrix(rng, d) for _ in range(rng.randint(1, 3))], validate=False
            )
            a = random_matrix(rng, d)
            phi = Mat.zeros(d * d, 1)
            for j in range(d):
                phi = phi + Mat(
                    np.array([[1] if i == j * d + j else [0] for i in range(d * d)], dtype=object),
                    np.zeros((d * d, 1), dtype=object),
                )
            eye = Mat.eye(d)
            lhs = kron(e.apply(a), eye) @ phi
            rhs = e.matrix_rep() @ (kron(a, eye) @ phi)
            assert lhs == rhs


def test_criterion_05_spectral_structure():
    with criterion(5, "trace-preserving reps: radius <= 1, peripheral part semisimple"):
        rng = random.Random(505)
        for trial in range(50):
            d = 2 if trial % 2 == 0 else 3
            e = random_tp_channel(rng, d)
            m = e.matrix_rep().to_complex()
            eigs = np.linalg.eigvals(m)
            assert np.abs(eigs).max() <= 1 + 1e-9
            for lam in eigs:
                if abs(lam) > 1 - 1e-6:
                    algebraic = int(np.sum(np.abs(eigs - lam) < 1e-7))
                    sv = np.linalg.svd(m - lam * np.eye(m.shape[0]), compute_uv=False)
                    geometric = int(np.sum(sv < 1e-7 * max(1.0, sv[0])))
                    assert algebraic == geometric


def test_criterion_06_termination_bound():
    with criterion(6, "termination within dim*|L|-1 steps agrees with long simulation"):
        rng = random.Random(606)
        for _ in range(50):
            d = rng.choice([2, 3])
            n_locs = rng.randint(1, 3)  # plus the exit location
            prog = random_deterministic_program(rng, d, n_locs)
            bound = d * len(prog.locations) - 1
            horizon = 4 * d * len(prog.locations)
            trajectory = simulate_deterministic(prog, horizon)
            first_hit = next(
                (k for k, s in enumerate(trajectory) if s.trace_of("exit") == 1), None
            )
            result = check_terminates(prog)
            if first_hit is not None:
                # nothing terminates after the bound without terminating by it
                assert first_hit <= bound
                assert result.kind == "terminates" and result.step == first_hit
            else:
                assert result.kind in ("almost_candidate", "no")
                if result.kind == "no":
                    assert trajectory[horizon].trace_of("exit") == 0


def _union_formula(u):
    atoms = {f"m{i}": Atom(f"m{i}", m) for i, m in enumerate(u.members)}
    node = None
    for name in atoms:
        node = FAtom(name) if node is None else Or(node, FAtom(name))
    return atoms, node


def _replay_lasso(aut, witness, u, mode):
    # support evolution is deterministic per action, so an exact support
    # recurrence certifies an infinite path repeating the cycle forever
    prefix = witness.get("prefix", [])
    cycle = witness.get("cycle", [])
    if not cycle:
        return
    states = replay_word(aut, prefix + cycle)
    supports = [support(s, validate=False) for s in states]
    assert supports[len(prefix)] == supports[-1], "lasso support does not recur"
    cycle_supports = supports[len(prefix) : -1]
    if mode == "avoids":
        for s in cycle_supports:
            assert not u.contains_subspace(s)
    else:
        assert any(not u.contains_subspace(s) for s in cycle_supports)


def test_criterion_07_fixpoints_against_oracle():
    with criterion(7, "invariance / stabilization / recurrence agree with the oracle"):
        start = time.time()
        rng = random.Random(707)
        decided_recurrence = 0
        for trial in range(100):
            d = rng.choice([2, 3])
            n_act = rng.randint(1, 3)
            finite = trial % 2 == 0
            aut = random_automaton(rng, d, n_act, finite_order=finite)
            u = basis_union(rng, d) if rng.random() < 0.6 else random_union(rng, d)
            atoms, node = _union_formula(u)

            inv = check_invariance(aut, u)
            r = oracle_bfs(aut, Always(node), atoms, depth=12)
            if inv.is_valid:
                assert r.status != "fails"
            else:
                assert r.status != "holds"
                word = inv.witness["word"]
                states = replay_word(aut, word)
                assert not u.contains_subspace(support(states[-1], validate=False))
                if r.status == "fails":
                    oracle_states = replay_word(aut, r.witness["word"])
                    assert not u.contains_subspace(
                        support(oracle_states[-1], validate=False)
                    )

            ea = check_eventually_always(aut, u)
            r = oracle_bfs(aut, Eventually(Always(node)), atoms, depth=12)
            if ea.is_valid:
                assert r.status != "fails"
            else:
                assert r.status != "holds"
                if ea.witness:
                    _replay_lasso(aut, ea.witness, u, mode="recurrent")

            if finite:
                ae = check_always_eventually(aut, u)
                if ae.status != "unknown":
                    decided_recurrence += 1
                    r = oracle_bfs(aut, Always(Eventually(node)), atoms, depth=12)
                    if ae.is_valid:
                        assert r.status != "fails"
                    else:
                        assert r.status != "holds"
                        if ae.witness:
                            _replay_lasso(aut, ae.witness, u, mode="avoids")
        assert decided_recurrence >= 25
        assert time.time() - start < 300


def test_criterion_07_lassos_of_checker_and_oracle_replay():
    with criterion(7, "checker and oracle lassos replay, unions of up to three members"):
        rng = random.Random(717)
        replayed = {"checker": 0, "oracle": 0}
        for trial in range(80):
            d = rng.choice([2, 3])
            aut = random_automaton(rng, d, rng.randint(1, 3), finite_order=trial % 2 == 0)
            u = basis_union(rng, d, 3) if rng.random() < 0.5 else random_union(rng, d, 3)
            atoms, node = _union_formula(u)
            runs = [("recurrent", Eventually(Always(node)), check_eventually_always(aut, u))]
            if trial % 2 == 0:
                runs.append(("avoids", Always(Eventually(node)), check_always_eventually(aut, u)))
            for mode, formula, verdict in runs:
                r = oracle_bfs(aut, formula, atoms, depth=12)
                if verdict.status == "valid":
                    assert r.status != "fails" and r.witness is None
                elif verdict.status == "not_valid":
                    assert r.status != "holds"
                for who, witness in (("checker", verdict.witness), ("oracle", r.witness)):
                    if witness:
                        _replay_lasso(aut, witness, u, mode)
                        replayed[who] += 1
                if verdict.witness and r.witness:
                    # one search on one graph: the Kraus-form and the matrix
                    # representation images give the same supports
                    assert verdict.witness == r.witness
        assert min(replayed.values()) >= 80


def test_criterion_08_kleene_closure():
    with criterion(8, "averaged invariance with t = d^2-1 matches 200-step brute force"):
        rng = random.Random(808)
        for trial in range(50):
            d_env = rng.choice([2, 3, 4])
            e = random_tp_channel(rng, 2)
            rho = random_density(rng, 2 * d_env)
            lifted = SuperOp([kron(k, Mat.eye(d_env)) for k in e.kraus], validate=False)
            if trial % 2 == 0:
                # propositions that actually contain the orbit show the valid side
                acc = Mat.zeros(2 * d_env)
                state = rho
                for _ in range(6):
                    acc = acc + state
                    state = lifted.apply(state)
                p = support(acc, validate=False)
            else:
                p = random_subspace(rng, 2 * d_env)
            verdict = kleene_always(e, rho, p, t=3)
            # brute force: every iterate up to 200 satisfies p
            state = rho
            brute = True
            for _ in range(200):
                if not satisfies(state, p):
                    brute = False
                    break
                state = lifted.apply(state)
            assert verdict.is_valid == brute
            bigger = kleene_always(e, rho, p, t=9)
            assert bigger.is_valid == verdict.is_valid


def test_criterion_09_normal_form_soundness():
    with criterion(9, "single-while normal form preserves exit blocks; denotation aligned"):
        rng = random.Random(909)
        for _ in range(30):
            ast = parse(random_qwhile_source(rng, max_loops=2, max_len=2))
            prog = compile_qwhile(ast)
            nf = bohm_jacopini(prog)
            sigma0 = embed(initial_cq(prog), prog)
            trajectory = simulate_deterministic(prog, 64)
            series = normal_form_exit_series(nf, sigma0, 64)
            for k in range(65):
                original = nf.m0 @ embed(trajectory[k], prog) @ nf.m0
                assert series[k] == original
            # step-budgeted denotational semantics equals the exit block exactly
            for k in range(0, 25, 4):
                assert denote_steps(ast, prog.initial_state, k) == trajectory[k].block(
                    prog.exit_location
                )
            # unrolling depth maps into the exact step sandwich
            for n in (1, 2, 3):
                k = steps_for_depth(ast, n)
                if k > 64:
                    continue
                denoted, _ = denote_bounded(ast, prog.initial_state, n)
                exit_k = trajectory[k].block(prog.exit_location)
                assert is_psd(exit_k - denoted)
                wider, _ = denote_bounded(ast, prog.initial_state, k + 1)
                assert is_psd(wider - exit_k)


def test_criterion_10_lattice_property_suite():
    with criterion(10, "subspace lattice laws (500 instances) and pre-image equivalence (200)"):
        rng = random.Random(1010)
        for _ in range(500):
            n = rng.choice([2, 3])
            a = random_subspace(rng, n)
            b = random_subspace(rng, n)
            assert a.meet(b) == b.meet(a)
            assert a.join(b) == b.join(a)
            assert a.meet(a) == a and a.join(a) == a
            assert a.meet(a.join(b)) == a and a.join(a.meet(b)) == a
            assert a.complement().complement() == a
            assert a.meet(a.complement()).is_zero()
            assert a.join(b).dim + a.meet(b).dim == a.dim + b.dim
            u = SubspaceUnion(n, [a, b])
            assert u == SubspaceUnion(n, [b, a])
            assert u.meet(SubspaceUnion.full(n)) == u
        for _ in range(200):
            n = rng.choice([2, 3])
            e = random_tp_channel(rng, n)
            p = random_subspace(rng, n)
            rho = random_density(rng, n)
            assert satisfies(e.apply(rho), p) == satisfies(rho, preimage(e, p))
