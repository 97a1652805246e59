"""The three benchmark workloads: their inputs, queries and known answers.

Each workload's ``setup`` writes seeded input files into a work directory,
compiling ``.qw`` sources through ``qtl compile`` as a user would, and
returns a ``Plan``: the list of ``qtl`` command lines that form one pass of
the timed phase.  ``Oracle`` checks every output afterwards against an
answer the checker did not produce:

- closed forms for the loop family (exit mass 1, expected steps 4, and the
  exit triple ``<>`` not_valid, ``<>~`` valid, ``[]`` valid);
- ``qwhile.denote_steps``, the compiler-independent interpreter, for the
  random Q-While programs and for every normal form;
- ``oracle_bfs`` on the exact support graph for automata and for the
  lattice queries on programs;
- ``replay_word`` for every witness of a ``not_valid`` verdict.

``[] (f U g)`` is checked against the conjunction ``[] f`` and ``[]<> g``
that the command line documents as its decision procedure.  Where the
trace semantics of the until (decided by ``oracle_bfs`` on the whole
formula) holds although the conjunction fails, the query is counted as
conservative and listed; a ``valid`` answer the trace semantics refutes is
a failure.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np
from qtl import jsonio
from qtl.checker import oracle_bfs, replay_word
from qtl.errors import BudgetExceeded
from qtl.formula import Always, Eventually, FAtom, Until, parse_formula
from qtl.program import QuantumAutomaton, to_automaton
from qtl.qwhile import denote_steps, parse
from qtl.subspace import SubspaceUnion, support

import generators as gen

# Generator parameters of a full-size run; README.md says why each workload
# is in the benchmark and what it leaves out.
PARAMS = {
    "exit-reach": {
        # pass groups, each with its own random programs
        "groups": 3,
        # compiled locations (the exit included) of the random programs of
        # one pass group
        "random_program_locations": [2, 2, 2, 2, 2, 2, 3, 3],
        "max_loops": 2,
        "max_len": 3,
        # The 1-qubit loop runs twice per pass, every other program once.
        # With 50 queries per pass this puts the median inside the 2-location
        # programs' reach-type queries and the 90th percentile inside the
        # 1-qubit loop's, not on a boundary between two groups of queries.
        "loop1q_repeats": 2,
    },
    "lattice-small": {
        "automata": 288,
        "groups": 6,
        "dimensions": [2, 3],
        "actions": [1, 2, 3],
    },
}

EXIT_FORMULAS = ("<>~ exit_ok", "<> exit_ok", "[] partial_ok")


@dataclass
class Program:
    """One input program: its compiled JSON, atom file and known-answer data."""

    key: str
    path: str
    atoms: str | None = None
    source: str | None = None  # .qw text, for the denote_steps oracle
    answers: str = "bfs"  # "closed_form" | "interpreter" | "bfs": where the known answers come from


@dataclass
class Query:
    qid: str
    kind: str  # "reach" | "check" | "normal_form"
    program: str
    argv: list
    group: int  # pass group; -1 runs once per run, before the passes
    formula: str | None = None
    until: tuple | None = None  # (left, right) texts of [] (left U right)


@dataclass
class Plan:
    workload: str
    programs: dict = field(default_factory=dict)
    queries: list = field(default_factory=list)
    group: int = 0  # pass group of the queries added next
    # Nominal seconds of the queries run once and of one pass, of the order
    # of their reference seconds (pace.py).  They fix the number of passes
    # for a given --seconds, so the mix of queries in a run never depends on
    # how fast the machine happened to be.
    once_s: float = 0.0
    pass_s: float = 1.0

    def passes(self, seconds):
        """(queries run once, [queries of each pass, in order])."""
        groups = sorted({q.group for q in self.queries if q.group >= 0})
        rounds = max(1, int(max(0.0, seconds - self.once_s) // self.pass_s) // len(groups))
        return (
            [q for q in self.queries if q.group < 0],
            [[q for q in self.queries if q.group == g] for g in groups] * rounds,
        )


def _compile(main, src_path, out_path):
    rc = main(["compile", src_path, "-o", out_path])
    if rc != 0:
        raise RuntimeError(f"qtl compile {src_path} exited with {rc}")


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _program_from_source(plan, main, work, key, source, answers="bfs"):
    src = os.path.join(work, key + ".qw")
    out = os.path.join(work, key + ".json")
    with open(src, "w", encoding="utf-8") as fh:
        fh.write(source)
    _compile(main, src, out)
    with open(out, encoding="utf-8") as fh:
        compiled = json.load(fh)
    dim = compiled["dimension"]
    exit_loc = compiled["exit_location"]
    # q0 = 0 is the first half of the computational basis
    zero_q0 = {"dim": dim, "basis": [[1 if r == i else 0 for r in range(dim)] for i in range(dim // 2)]}
    full = {"dim": dim, "basis": [[1 if r == i else 0 for r in range(dim)] for i in range(dim)]}
    atoms = [
        {"name": "exit_ok", "blocks": {exit_loc: zero_q0}},
        {
            "name": "partial_ok",
            "blocks": {loc: (zero_q0 if loc == exit_loc else full) for loc in compiled["locations"]},
        },
    ]
    atoms_path = os.path.join(work, key + "_atoms.json")
    _write_json(atoms_path, atoms)
    plan.programs[key] = Program(key, out, atoms_path, source, answers)
    return plan.programs[key]


def _add(plan, kind, program, argv, formula=None, until=None):
    plan.queries.append(Query(f"q{len(plan.queries)}", kind, program.key, argv, plan.group, formula, until))


def _check(plan, program, formula, until=None):
    argv = ["check", program.path, "--atoms", program.atoms, "-f", formula, "--json"]
    _add(plan, "check", program, argv, formula, until)


def _random_program_source(rng, locations):
    """Rejection-sample a random single-qubit source with exactly
    ``locations`` compiled locations (the exit included)."""
    params = PARAMS["exit-reach"]
    while True:
        body, count = gen.random_qwhile_body(rng, params["max_loops"], params["max_len"])
        if count == locations:
            return gen.random_qwhile_source(rng, body)


def _exit_queries(plan, program):
    _add(plan, "reach", program, ["reach", program.path, "--json"])
    for formula in EXIT_FORMULAS:
        _check(plan, program, formula)
    _add(plan, "normal_form", program, ["compile", program.path, "--normal-form"])


def setup_exit_reach(main, work, rng, tiny):
    plan = Plan("exit-reach", once_s=20.0, pass_s=5.0)
    params = PARAMS["exit-reach"]
    loop1 = _program_from_source(plan, main, work, "loop1q", gen.loop_family_source(1), "closed_form")
    sizes = [2] if tiny else params["random_program_locations"]
    groups = 1 if tiny else params["groups"]
    randoms = [
        _program_from_source(plan, main, work, f"random{k}", _random_program_source(rng, size), "interpreter")
        for k, size in enumerate(sizes * groups)
    ]
    if not tiny:
        # the 2-qubit reach (about 20 s) runs once per run, the other
        # programs' queries form the passes
        loop2 = _program_from_source(plan, main, work, "loop2q", gen.loop_family_source(2), "closed_form")
        plan.group = -1
        _add(plan, "reach", loop2, ["reach", loop2.path, "--json"])
    for group in range(groups):
        plan.group = group
        group_randoms = randoms[group * len(sizes):(group + 1) * len(sizes)]
        for program in [loop1] * (1 if tiny else params["loop1q_repeats"]) + group_randoms:
            _exit_queries(plan, program)
    return plan


def _union_text(names):
    return names[0] if len(names) == 1 else "(" + " || ".join(names) + ")"


def setup_lattice_small(main, work, rng, tiny):
    plan = Plan("lattice-small", pass_s=5.5)
    params = PARAMS["lattice-small"]
    dims, actions = params["dimensions"], params["actions"]
    count = 3 if tiny else params["automata"]
    for k in range(count):
        # stratified: every (dimension, actions, channel family) cell gets
        # the same share, so the mix does not drift with the seed
        dim = dims[k % len(dims)]
        n_actions = actions[(k // len(dims)) % len(actions)]
        finite_order = (k // (len(dims) * len(actions))) % 2 == 0
        # pass groups of 48 automata, each holding whole cycles of the strata
        plan.group = (k // (2 * len(dims) * len(actions))) % params["groups"]
        automaton = gen.random_automaton_json(rng, dim, n_actions, finite_order)
        atoms = []
        names = {}
        for target in ("u", "v"):
            # 1-2 coordinate subspaces, or one random subspace: unions of two
            # random subspaces give []<> tails of tens of seconds at d = 3
            if rng.random() < 0.5:
                members = gen.basis_union(rng, dim)
            else:
                members = gen.random_union(rng, dim, max_members=1)
            names[target] = [f"{target}{j}" for j in range(len(members))]
            atoms += [
                {"name": name, "subspace": gen.subspace_json(dim, vectors)}
                for name, vectors in zip(names[target], members)
            ]
        key = f"automaton{k}"
        path = os.path.join(work, key + ".json")
        atoms_path = os.path.join(work, key + "_atoms.json")
        _write_json(path, automaton)
        _write_json(atoms_path, atoms)
        program = plan.programs[key] = Program(key, path, atoms_path)
        u, v = _union_text(names["u"]), _union_text(names["v"])
        for formula in (f"X {u}", f"[] {u}", f"<>[] {u}", f"[]<> {u}"):
            _check(plan, program, formula)
        _check(plan, program, f"[] ({u} U {v})", until=(u, v))
    return plan


def _scheduler(plan, work, initial_bit):
    path = os.path.join(work, "scheduler.json")
    atoms_path = os.path.join(work, "scheduler_atoms.json")
    _write_json(path, gen.scheduler_program_json(initial_bit))
    atoms = [
        {"name": name, "blocks": {config: {"dim": 2, "basis": [vector]} for config in gen.scheduler_configs()}}
        for name, vector in (("all0", [1, 0]), ("all1", [0, 1]))
    ]
    _write_json(atoms_path, atoms)
    plan.programs["scheduler"] = Program("scheduler", path, atoms_path)
    return plan.programs["scheduler"]


def setup_lattice_large(main, work, rng, tiny):
    plan = Plan("lattice-large", pass_s=15.0)
    if not tiny:
        # the seed picks the basis state of the two unmeasured qubits
        loop3 = _program_from_source(plan, main, work, "loop3q", gen.loop_family_source(3, rng.randrange(4)))
        _check(plan, loop3, "[] partial_ok")
        _check(plan, loop3, "<>[] partial_ok")
    # ... and the initial qubit of the scheduler program
    scheduler = _scheduler(plan, work, rng.randrange(2))
    if not tiny:
        _check(plan, scheduler, "[] (all0 || all1)")
        _check(plan, scheduler, "<>[] (all0 || all1)")
    _check(plan, scheduler, "<>[] all0")
    loop1 = _program_from_source(plan, main, work, "loop1q", gen.loop_family_source(1))
    _check(plan, loop1, "[]<> exit_ok")
    return plan


SETUP = {
    "exit-reach": setup_exit_reach,
    "lattice-small": setup_lattice_small,
    "lattice-large": setup_lattice_large,
}


# ----------------------------------------------------------------------
# known answers


def _status(holds: bool) -> str:
    return "valid" if holds else "not_valid"


class Oracle:
    """Known answers, computed after the timed phase and cached per query."""

    REACH_TOL = 1e-6
    BFS_DEPTH = 32
    BFS_BUDGET = 5000

    def __init__(self, plan: Plan, plant_wrong: bool = False):
        self.plan = plan
        self.plant_wrong = plant_wrong
        self._expected = {}
        self._models = {}
        self._series = {}
        self.conservative = []  # qids of [] (f U g) refuted only by the conjunction

    # -- models -------------------------------------------------------

    def _model(self, key):
        """(base program or None, automaton, atoms) loaded from the input files."""
        if key not in self._models:
            program = self.plan.programs[key]
            with open(program.path, encoding="utf-8") as fh:
                loaded = jsonio.program_from_json(json.load(fh))
            base = None if isinstance(loaded, QuantumAutomaton) else loaded
            automaton = loaded if base is None else to_automaton(loaded)
            with open(program.atoms, encoding="utf-8") as fh:
                atoms = jsonio.atoms_from_json(json.load(fh), base if base is not None else automaton)
            self._models[key] = (base, automaton, atoms)
        return self._models[key]

    def _exit_series(self, key, budget):
        """Exact exit blocks of ``denote_steps`` at the given budget."""
        cache = self._series.setdefault(key, {})
        if budget not in cache:
            ast = parse(self.plan.programs[key].source)
            base, _, _ = self._model(key)
            cache[budget] = denote_steps(ast, base.initial_state, budget)
        return cache[budget]

    def _budgets(self, key):
        base, _, _ = self._model(key)
        b1 = 64 * len(base.locations)
        return b1, 2 * b1

    # -- expected answers --------------------------------------------------

    def expected(self, query: Query):
        """The known answer, or None when no oracle can decide it."""
        key = (query.program, query.kind, query.formula)
        if key not in self._expected:
            self._expected[key] = self._compute(query)
        if self.plant_wrong and query is self.plan.queries[0]:
            return _planted(query, self._expected[key])
        return self._expected[key]

    def _compute(self, query: Query):
        program = self.plan.programs[query.program]
        if query.kind == "normal_form":
            base, _, _ = self._model(query.program)
            steps = 2 * base.dim * len(base.locations)
            return [self._exit_series(query.program, k).to_complex() for k in range(steps + 1)]
        if program.answers == "closed_form":
            if query.kind == "reach":
                return {"reach_trace": 1.0, "almost_terminates": True, "expected_steps": 4.0}
            return {"<>~ exit_ok": "valid", "<> exit_ok": "not_valid", "[] partial_ok": "valid"}[query.formula]
        if program.answers == "interpreter":
            return self._exit_answer(query)
        return self._bfs_answer(query)

    def _exit_answer(self, query):
        b1, b2 = self._budgets(query.program)
        e1 = self._exit_series(query.program, b1)
        e2 = self._exit_series(query.program, b2)
        mass1, mass2 = float(e1.trace().re), float(e2.trace().re)
        converged = abs(mass2 - mass1) <= 1e-9
        if query.kind == "reach":
            if not converged:
                return None
            almost = abs(mass2 - 1.0) <= 1e-7
            return {"reach_trace": mass2, "almost_terminates": almost, "expected_steps": None if almost else "inf"}
        if query.formula == "<>~ exit_ok":
            return _status(abs(float(_q0_mass(e2, 0)) - 1.0) <= 1e-7) if converged else None
        if query.formula == "<> exit_ok":
            # all mass at the exit, inside q0 = 0, at some step up to b1
            return _status(e1.trace().re == 1 and _q0_mass(e1, 1) == 0)
        return _status(_q0_mass(e2, 1) == 0)  # [] partial_ok

    def _bfs(self, key, text):
        _, automaton, atoms = self._model(key)
        try:
            result = oracle_bfs(automaton, parse_formula(text, atoms), atoms, self.BFS_DEPTH, self.BFS_BUDGET)
        except BudgetExceeded:
            return None
        return None if result.status == "inconclusive" else result.status == "holds"

    def _bfs_answer(self, query):
        if query.until is None:
            holds = self._bfs(query.program, query.formula)
            return None if holds is None else _status(holds)
        left, right = query.until
        always = self._bfs(query.program, f"[] {left}")
        recurs = self._bfs(query.program, f"[]<> {right}")
        if always is False or recurs is False:
            return "not_valid"
        return None if always is None or recurs is None else "valid"

    # -- comparison ----------------------------------------------------------

    def verify(self, query: Query, output):
        """(ok, detail) for one query's parsed output; ok is None when the
        answer cannot be checked."""
        expected = self.expected(query)
        if query.kind == "normal_form":
            return _compare_normal_form(self.plan.programs[query.program], output, expected)
        if query.kind == "reach":
            return _compare_reach(output, expected, self.REACH_TOL)
        status = output["status"]
        if status == "unknown":
            return True, "unknown"
        if expected is None:
            ok, detail = None, f"{status}; no oracle answer"
        else:
            ok, detail = status == expected, f"{status}, expected {expected}"
        if ok is not False and query.until is not None:
            holds = self._bfs(query.program, query.formula)
            if status == "valid" and holds is False:
                ok, detail = False, "valid, but the trace semantics of the until fails"
            elif status == "not_valid" and holds is True:
                self.conservative.append(query.qid)
        if ok is not False and status == "not_valid" and output.get("witness"):
            ok, detail = self._replay(query, output["witness"], ok, detail)
        return ok, detail

    def _replay(self, query, witness, ok, detail):
        """Replay a refuting witness exactly; it must show the violation."""
        _, automaton, atoms = self._model(query.program)
        node = parse_formula(query.formula, atoms)
        if isinstance(node, Always) and isinstance(node.body, Until):
            body = node.body.left if "word" in witness else node.body.right
        else:
            body = node.body.body if isinstance(node.body, (Always, Eventually)) else node.body

        def names(n):
            return [n.name] if isinstance(n, FAtom) else names(n.left) + names(n.right)

        target = SubspaceUnion(automaton.dim, [atoms[name].subspace for name in names(body)])

        def outside(state):
            return not target.contains_subspace(support(state, validate=False))

        if "word" in witness:
            good = outside(replay_word(automaton, witness["word"])[-1])
        else:
            prefix, cycle = witness["prefix"], witness["cycle"]
            states = replay_word(automaton, prefix + cycle)
            loop = states[len(prefix):]
            first, last = support(loop[0], validate=False), support(loop[-1], validate=False)
            closes = first.contains(last) and last.contains(first)
            if isinstance(node, Always):  # []<> g: the whole cycle avoids g
                good = closes and all(outside(s) for s in loop)
            else:  # <>[] f: the cycle starts outside f
                good = closes and outside(loop[0])
        if not good:
            return False, detail + "; witness does not replay"
        return ok, detail + "; witness replayed"


def _q0_mass(block, bit):
    """Exact mass of an exit block with q0 = bit (q0 is the leading qubit)."""
    half = block.rows // 2
    return sum((block.entry(i, i).re for i in range(bit * half, (bit + 1) * half)), 0)


def _planted(query, value):
    """A deliberately wrong known answer (for the benchmark's self-test)."""
    if query.kind == "normal_form":
        return [m + 1 for m in value]
    if query.kind == "reach":
        return dict(value, reach_trace=value["reach_trace"] + 0.5)
    return {"valid": "not_valid", "not_valid": "valid"}.get(value, "valid")


def _compare_reach(output, expected, tol):
    if expected is None:
        return None, "exit mass did not converge in the oracle budget"
    got = (output["reach_trace"], output["almost_terminates"], output["expected_steps"])
    ok = abs(output["reach_trace"] - expected["reach_trace"]) <= tol
    ok = ok and output["almost_terminates"] == expected["almost_terminates"]
    if expected["expected_steps"] is not None:
        steps = output["expected_steps"]
        ok = ok and (steps == expected["expected_steps"] if isinstance(steps, str) else
                     abs(steps - expected["expected_steps"]) <= tol)
    return ok, f"got {got}, expected {tuple(expected.values())}"


def _compare_normal_form(program, output, expected):
    """Iterate the emitted single-while loop numerically and compare its
    exit blocks with ``denote_steps`` at every step."""
    kraus = [jsonio.mat_from_json(k).to_complex() for k in output["body_channel"]["kraus"]]
    m0 = jsonio.mat_from_json(output["m0"]).to_complex()
    m1 = jsonio.mat_from_json(output["m1"]).to_complex()
    with open(program.path, encoding="utf-8") as fh:
        compiled = json.load(fh)
    n_loc = len(compiled["locations"])
    start = compiled["locations"].index(compiled["initial_location"])
    exit_idx = [i for i in range(m0.shape[0]) if m0[i, i] == 1]
    data = jsonio.mat_from_json(compiled["initial_state"]).to_complex()
    d = data.shape[0]
    sigma = np.zeros((d * n_loc, d * n_loc), dtype=complex)
    rows = [h * n_loc + start for h in range(d)]
    sigma[np.ix_(rows, rows)] = data
    acc = m0 @ sigma @ m0
    worst = 0.0
    for k, block in enumerate(expected):
        if k:
            cut = m1 @ sigma @ m1
            sigma = sum(e @ cut @ e.conj().T for e in kraus)
            acc = acc + m0 @ sigma @ m0
        worst = max(worst, float(np.max(np.abs(acc[np.ix_(exit_idx, exit_idx)] - block))))
    return worst <= 1e-9, f"max exit-block deviation {worst:.3g} over {len(expected)} steps"
