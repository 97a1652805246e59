"""Decision procedures for temporal properties of quantum automata and programs.

The workhorses are exact fixpoint computations on finite unions of
subspaces: decreasing pre-image chains decide invariance, a maximal
invariant plus its maximal extension decide "eventually always", and a loop
refinement over union components decides "always eventually" whenever the
relevant peripheral eigenvalue periods can be certified.  One function,
:func:`_graph_first`, decides each of these shapes: the limit shapes,
"always until" and invariance of a union of two or more members search the
support graph first, where a lasso or an escape refutes them and a closed
graph with none proves them; the lattice procedures, which return a
verdict with no witness, run only when neither is at hand, and a
refutation of theirs gets its witness from the same search on the one
graph of the call, grown.  The fixpoints, the loop refinement and the
witness search take images and pre-images from the actions' Kraus
operators (the refinement pulls subspaces back through the actions'
duals).  A channel's real matrix in a
Hermitian operator basis is built only where a spectrum is needed (the
period of the refinement's loop channel), and its complex matrix
representation only by the oracle, which keeps its own image path.
Every exit question about a deterministic program is asked of its one exit loop
(:class:`qwhile.WhileNormalForm`): almost-sure exit is decided on the
loop's subspace lattice; reachability solves exactly for the program's
semantic function, the d^2 x d^2 matrix of the map from input states to
exit states, on the operators over the loop's input-reachable subspace
modulo its trapped part (block by block over the locations, with no
spectrum), and reads every reach number off it; exact exit, <> p and
<>~ p are read off the loop's lattice too.

Verdicts are three-valued: some fragments are equivalent to open problems
in number theory, and the checker answers Unknown with a stated reason
rather than guess.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    PreconditionViolated,
    QtlError,
    UncertifiedPeriod,
    UnsupportedFormula,
)
from .linalg import (
    _peripheral_period,
    _polynomial_period,
    _primitive,
    _quotient,
    CRat,
    Mat,
    format_rational,
    kron,
    mat_sum,
    rank,
    solve,
)
from .subspace import Subspace, SubspaceUnion, satisfies, support
from .superop import MatrixRep, SuperOp, hvec, image, image_union, least_fixpoint, preimage_union, unvec, vec
from .program import (
    _validate_density,
    ConcurrentProgram,
    QuantumAutomaton,
    SequentialProgram,
    coordinates,
    to_automaton,
)
from .qwhile import WhileNormalForm, bohm_jacopini
from .formula import (
    AlmostEventually,
    AlmostUntil,
    Always,
    Atom,
    Eventually,
    FAtom,
    FFalse,
    FTrue,
    Next,
    Or,
    Until,
    atom_from_blocks,
    formula_to_str,
)

VALID = "valid"
NOT_VALID = "not_valid"
UNKNOWN = "unknown"

@dataclass
class Verdict:
    status: str
    witness: dict | None = None
    certificate: SubspaceUnion | None = None
    diagnostics: dict = field(default_factory=dict)

    @staticmethod
    def valid(certificate=None, diagnostics=None):
        return Verdict(VALID, None, certificate, diagnostics or {})

    @staticmethod
    def not_valid(witness=None, certificate=None, diagnostics=None):
        return Verdict(NOT_VALID, witness, certificate, diagnostics or {})

    @staticmethod
    def unknown(reason, diagnostics=None):
        d = dict(diagnostics or {})
        d["reason"] = reason
        return Verdict(UNKNOWN, None, None, d)

    @property
    def is_valid(self):
        return self.status == VALID

    def __repr__(self):
        return f"Verdict({self.status})"


@dataclass
class ReachabilityResult:
    """Exit reachability of a deterministic program, all of it exact.

    ``channel`` is the program's semantic function from input states at
    the initial location to exit states, as the matrix F of
    vec(out) = F vec(rho) (d x d blocks on both sides), and ``reach_state``
    is F applied to the initial state, embedded at the exit location.
    ``almost_terminates`` is the exit loop's lattice test
    (:attr:`qwhile.WhileNormalForm.exits_almost_surely`);
    ``expected_steps`` and the ``reach_trace`` diagnostic are the floats
    of exact rationals, both read off the one solve that gives F (the
    expected steps are the time spent before the exit).  ``kraus_rank`` is
    the exact rank of F's Choi matrix, the least number of Kraus operators
    of the semantic function (0 when no input ever exits).
    """

    expected_steps: float
    almost_terminates: bool
    reach_state: Mat
    channel: MatrixRep
    diagnostics: dict = field(default_factory=dict)

    @cached_property
    def kraus_rank(self) -> int:
        f, d = self.channel.m, self.channel.dim

        def choi(grid):
            # F[(i, j), (k, l)] -> C[(i, k), (j, l)]
            return grid.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)

        return rank(Mat(choi(f.num_re), choi(f.num_im), f.den, _normalized=True))


def _as_union(x) -> SubspaceUnion:
    if isinstance(x, SubspaceUnion):
        return x
    if isinstance(x, Atom):
        x = x.subspace
    if isinstance(x, Subspace):
        return SubspaceUnion(x.ambient_dim, [x])
    raise TypeError(f"expected a subspace or union, got {x!r}")


def _actions(a: QuantumAutomaton) -> dict:
    """The actions of the automaton in name order."""
    return dict(sorted(a.actions.items()))


def _initial_support(a: QuantumAutomaton) -> Subspace:
    """The support of the automaton's initial state, computed once per
    automaton: a validated state of full rank already gave the whole space
    (its rank is a by-product of the positivity test), and otherwise the
    first call eliminates and keeps the result on the automaton."""
    if a._support is None:
        object.__setattr__(a, "_support", support(a.initial_state, validate=False))
    return a._support


# ----------------------------------------------------------------------
# support graph (exact reachability skeleton shared by witness search and
# the brute-force oracle)


def find_cycle(successors: dict, allowed) -> list | None:
    """A cycle through ``allowed`` nodes only, as [(node, label, node), ...],
    or None when there is none.

    ``successors`` maps a node to its (label, node) out-edges in the order
    they are tried; a node it lacks has none.  One depth-first pass runs
    from each allowed node not yet reached, in sorted order, and the first
    edge back to a node on the current path closes the cycle."""
    allowed = set(allowed)
    on_path = {}  # node -> True while on the path, False once finished
    for start in sorted(allowed):
        if start in on_path:
            continue
        on_path[start] = True
        path = []  # the edges from start to the top of the stack
        stack = [(start, iter(successors.get(start, ())))]
        while stack:
            v, edges = stack[-1]
            for label, w in edges:
                if w not in allowed:
                    continue
                if on_path.get(w):
                    return list(itertools.dropwhile(lambda e: e[0] != w, path)) + [(v, label, w)]
                if w not in on_path:
                    on_path[w] = True
                    path.append((v, label, w))
                    stack.append((w, iter(successors.get(w, ()))))
                    break
            else:
                on_path[v] = False
                stack.pop()
                if path:
                    path.pop()
    return None


class _SupportGraph:
    """Reachable supports of an automaton: one node per distinct support,
    one deterministic edge per action (the exact image).

    Nodes are numbered breadth first from the root, node 0.
    ``successors`` maps every expanded node to its (action, node) edges in
    action-name order.  ``image_of(channel, subspace)`` computes the
    images; by default the Kraus-form :func:`superop.image`.  ``root`` is
    the support of the initial state where the caller already has it.

    The graph is the root, then :meth:`grow`.  Every search over it is a
    method here, shared by the checker's witnesses and :func:`oracle_bfs`,
    and reads the graph as far as it was built: each edge is an exact
    image, so a word or lasso found on a partial graph refutes as one
    found on a closed graph does.
    """

    def __init__(self, automaton: QuantumAutomaton, max_depth: int, budget: int, image_of=None, root=None):
        self._image_of = image if image_of is None else image_of
        self._actions = _actions(automaton)
        root = _initial_support(automaton) if root is None else root
        self.nodes = [root]
        self.depth = [0]
        self.parent = [None]  # (node index, action name)
        self.successors = {}
        self._index = {root.key(): 0}
        self.grow(max_depth, budget)

    def grow(self, max_depth: int, budget: int):
        """Expand the next node while fewer than ``budget`` are and its depth
        is below ``max_depth``; return the graph, ``closed`` if every node is
        expanded.  Depth never decreases with the index, so growing gives the
        graph built to the larger limits, node for node."""
        nodes, depth, parent, index, image_of = self.nodes, self.depth, self.parent, self._index, self._image_of
        n = len(self.successors)
        while n < len(nodes) and n < budget and depth[n] < max_depth:
            edges = self.successors[n] = []
            for name, e in self._actions.items():
                img = image_of(e, nodes[n])
                key = img.key()
                j = index.get(key)
                if j is None:
                    j = index[key] = len(nodes)
                    nodes.append(img)
                    depth.append(depth[n] + 1)
                    parent.append((n, name))
                edges.append((name, j))
            n += 1
        self.closed = n == len(nodes)
        return self

    def __len__(self):
        return len(self.nodes)

    def word_to(self, i) -> list:
        word = []
        while self.parent[i] is not None:
            i, name = self.parent[i]
            word.append(name)
        return word[::-1]

    def path(self, source: int, target: int, region=None) -> list | None:
        """A shortest nonempty action word from source to target whose
        intermediate nodes lie in ``region`` (anywhere when None), or None."""
        best = {source: []}
        frontier = [source]
        while frontier:
            nxt = []
            for i in frontier:
                for name, j in self.successors.get(i, ()):
                    if j == target:
                        return best[i] + [name]
                    if j not in best and (region is None or j in region):
                        best[j] = best[i] + [name]
                        nxt.append(j)
            frontier = nxt
        return None

    def escape(self, u: SubspaceUnion) -> int | None:
        """The shallowest node whose support lies outside the union, or None."""
        return next((i for i, s in enumerate(self.nodes) if not u.contains_subspace(s)), None)

    def recurrent_escape(self, u: SubspaceUnion) -> dict | None:
        """A lasso {"prefix", "cycle"} whose cycle starts at a support
        outside the union: the first such node that lies on a cycle."""
        for v, s in enumerate(self.nodes):
            if not u.contains_subspace(s):
                cycle = self.path(v, v)
                if cycle:
                    return {"prefix": self.word_to(v), "cycle": cycle}
        return None

    def avoiding_lasso(self, u: SubspaceUnion) -> dict | None:
        """A lasso {"prefix", "cycle"} whose whole cycle stays outside the
        union."""
        outside = [v for v, s in enumerate(self.nodes) if not u.contains_subspace(s)]
        cycle = find_cycle(self.successors, outside)
        if cycle is None:
            return None
        return {"prefix": self.word_to(cycle[0][0]), "cycle": [name for _, name, _ in cycle]}


# ----------------------------------------------------------------------
# the graph-first protocol


def _first_graph(a: QuantumAutomaton) -> _SupportGraph:
    """The support graph that a check_* call searches before any fixpoint
    or chain runs: 12 actions deep and D expansions wide on C^D."""
    return _SupportGraph(a, _WITNESS_DEPTH, a.dim)


def _graph_first(a: QuantumAutomaton, u: SubspaceUnion, graph, search, lattice) -> Verdict:
    """One shape's verdict on ``u``, and the one place where a refutation
    gets its witness.  ``graph`` is the caller's first graph, or None to go
    straight to the lattice; ``search`` finds a refutation on a graph
    (:func:`_escape_witness` or a lasso search); ``lattice`` is the shape's
    lattice procedure.

    A refutation on the graph decides not_valid (``search_nodes``): each
    edge is an exact Kraus image, so it replays with :func:`replay_word`.
    A closed graph with none decides valid (``graph_nodes``): its paths are
    exactly the support sequences of all traces, and the union of its
    nodes, an invariant union that holds the initial support, is the
    certificate.  Otherwise the lattice procedure decides.  When it
    refutes, the same search on the same graph, grown (or built when there
    is none), gives the witness: to the chain's ``chain_depth``, the depth
    of the shallowest escape, and 200,000 expansions (QtlError when the
    graph holds no escape), or to 12 actions and 4000 expansions for the
    fixpoints (no witness when it holds no lasso).  The refutation keeps
    the procedure's diagnostics and no certificate.
    """
    if graph is not None:
        witness = search(graph, u)
        if witness is not None:
            return Verdict.not_valid(witness=witness, diagnostics={"search_nodes": len(graph)})
        if graph.closed:
            return Verdict.valid(certificate=SubspaceUnion(u.ambient_dim, graph.nodes), diagnostics={"graph_nodes": len(graph)})
    v = lattice(a, u)
    if v.status != NOT_VALID:
        return v
    depth = v.diagnostics.get("chain_depth")
    limits = (_WITNESS_DEPTH, 4000) if depth is None else (depth, 200000)
    witness = search(_SupportGraph(a, *limits) if graph is None else graph.grow(*limits), u)
    if witness is None and depth is not None:
        raise QtlError("refuted invariance but found no witness within the bound")
    return Verdict.not_valid(witness=witness, diagnostics=v.diagnostics)


def _escape_witness(graph: _SupportGraph, u: SubspaceUnion) -> dict | None:
    """The graph's shallowest node outside the union as a refutation of
    [] u, {"word", "step", "support_dim"}, or None."""
    i = graph.escape(u)
    if i is None:
        return None
    return {"word": graph.word_to(i), "step": graph.depth[i], "support_dim": graph.nodes[i].dim}


# ----------------------------------------------------------------------
# next and invariance


def check_next(a: QuantumAutomaton, u) -> Verdict:
    """Every one-step successor of the initial state satisfies the union;
    a successor's support is the action's Kraus image of the initial
    support."""
    u = _as_union(u)
    root = _initial_support(a)
    for name in sorted(a.actions):
        if not u.contains_subspace(image(a.actions[name], root)):
            return Verdict.not_valid(witness={"action": name, "word": [name], "step": 1})
    return Verdict.valid()


def _invariance_chain(actions: dict, u: SubspaceUnion, root: Subspace):
    """The decreasing chain Y_0 = u, Y_{k+1} = Y_k meet all action pre-images
    of Y_k, as (Y_k, k): run to its greatest fixpoint, or stopped at the
    first Y_k that does not contain ``root``.  A subspace lies in Y_k
    exactly when every action word of length <= k maps it into u, so the
    chain stops at the depth of the shallowest escape of root."""
    y = u
    depth = 0
    while y.contains_subspace(root):
        y2 = y
        for e in actions.values():
            y2 = y2.meet(preimage_union(e, y))
        if y2 == y:
            break
        if not y2.subset_of(y):
            raise QtlError("invariance chain failed to decrease")
        y = y2
        depth += 1
    return y, depth


def _operand(a: QuantumAutomaton, u) -> SubspaceUnion:
    u = _as_union(u)
    if u.ambient_dim != a.dim:
        raise DimensionMismatch("proposition does not live on the automaton space")
    return u


def check_invariance(a: QuantumAutomaton, u) -> Verdict:
    """Decide that every reachable state satisfies the union of subspaces,
    by :func:`_graph_first` with the escape search and
    :func:`_invariance_by_chain`.

    Only a union of two or more members that holds the initial support,
    whose pre-image chain multiplies its members round by round, gets a
    first support graph.  A one-member union, whose chain is one kernel
    per round and stops within D rounds, goes straight to the chain and
    builds no graph unless the chain refutes.
    """
    u = _operand(a, u)
    graph = _first_graph(a) if len(u.members) > 1 and u.contains_subspace(_initial_support(a)) else None
    return _graph_first(a, u, graph, _escape_witness, _invariance_by_chain)


def _invariance_by_chain(a: QuantumAutomaton, u) -> Verdict:
    """[] on the lattice alone.  The certificate of a valid verdict is the
    stabilized pre-image chain.  The chain stops at the first round k that
    drops the initial support (``chain_depth``), the depth of the
    shallowest escape, where :func:`_graph_first` finds the witness."""
    u = _operand(a, u)
    root = _initial_support(a)
    psi, depth = _invariance_chain(_actions(a), u, root)
    diag = {"chain_depth": depth}
    if psi.contains_subspace(root):
        return Verdict.valid(certificate=psi, diagnostics=diag)
    return Verdict.not_valid(diagnostics=diag)


# ----------------------------------------------------------------------
# maximal invariant and maximal extension


def _joint_image(actions: dict, u: SubspaceUnion) -> SubspaceUnion:
    joint = None
    for e in actions.values():
        img = image_union(e, u)
        joint = img if joint is None else joint.union(img)
    return joint


def maximal_invariant(a: QuantumAutomaton, r) -> SubspaceUnion:
    """Largest sub-union x of r with (join of all action images of x) = x.

    Computed as the stabilization of the decreasing chain that intersects
    with every pre-image and with the joint image; both defining properties
    are re-checked on the result.
    """
    r = _as_union(r)
    actions = _actions(a)
    z = r
    while True:
        z2 = z
        for e in actions.values():
            z2 = z2.meet(preimage_union(e, z))
        z2 = z2.meet(_joint_image(actions, z))
        if z2 == z:
            break
        if not z2.subset_of(z):
            raise QtlError("maximal-invariant chain failed to decrease")
        z = z2
    if not (_joint_image(actions, z) == z and z.subset_of(r)):
        raise QtlError("maximal invariant failed its defining properties")
    return z


def _meet_of_preimages(actions: dict, u: SubspaceUnion) -> SubspaceUnion:
    pre = None
    for e in actions.values():
        q = preimage_union(e, u)
        pre = q if pre is None else pre.meet(q)
    return pre


# the pre-image chain of maximal_extension raises QtlError past this many
# steps, or past D + 1 on a space of dimension D where that is more: a
# strictly growing one-member chain of C^D takes up to D rounds, and one
# more round shows it stable
_EXTENSION_STEPS = 200
# the first support graph, and the witness search of refuted <>[] f and
# []<> f, go this many actions deep
_WITNESS_DEPTH = 12
# the peripheral eigenvalues of [] <> f, [] (f U g) and [] (p U~ q) need a
# common order up to this bound (UncertifiedPeriod otherwise)
_PERIOD_BOUND = 64
# the loop refinement of [] <> f forms one D^2 x D^2 loop matrix on a space
# of dimension D, and raises BudgetExceeded past this D instead: at D = 68,
# the largest program measured, [] <> f peaks at about 730 MB
_LOOP_DIM_MAX = 70
# reachability_superop raises BudgetExceeded past this many unknowns: the
# 4-qubit loop family has 640 and takes about 9 s on a 2-core host, the
# 3-qubit one (the largest in tests and workloads) 160 and 0.14 s
_REACH_UNKNOWNS_MAX = 640
# limit_states raises BudgetExceeded once an orbit spans more than this many
# dimensions: on a 2-core host an orbit reaches it in 3 s at D = 64 (the
# 4-qubit loop's dimension) and 16 s at D = 128, and every orbit at D <= 8
# stays within it; the loop family's orbits span 4 to 6
_ORBIT_DIM_MAX = 64


def maximal_extension(a: QuantumAutomaton, x) -> SubspaceUnion:
    """Smallest union y containing x with y = intersection of its pre-images
    (i.e. the set of states all of whose evolutions eventually enter and
    stay in x).

    Computed as the increasing chain Y -> meet of all action pre-images of
    Y starting from x; every element of the chain lies inside every
    admissible fixpoint, so the stabilized value is the wanted extension by
    construction.  Single-action pre-image trees (star nodes) can
    overshoot: a leaf that grows under one action may still be the meet
    fixpoint, so the chain is the reliable route.  Both defining properties
    are re-checked on the result.
    """
    x = _as_union(x)
    actions = _actions(a)
    if not _joint_image(actions, x) == x:
        raise PreconditionViolated("maximal_extension needs an invariant union")
    y = x
    for _ in range(max(_EXTENSION_STEPS, a.dim + 1)):
        y2 = _meet_of_preimages(actions, y)
        if y2 == y:
            break
        if not y.subset_of(y2):
            raise QtlError("pre-image chain lost monotonicity")
        y = y2
    else:
        raise QtlError("pre-image chain did not stabilize within the iteration cap")
    if not (x.subset_of(y) and _meet_of_preimages(actions, y) == y):
        raise QtlError("maximal extension failed its defining properties")
    return y


def check_eventually_always(a: QuantumAutomaton, u) -> Verdict:
    """Decide "from some point on, every continuation satisfies the union",
    by :func:`_graph_first` with the search for a lasso whose cycle starts
    at a support outside the union, and
    :func:`_eventually_always_by_fixpoints`."""
    u = _operand(a, u)
    return _graph_first(a, u, _first_graph(a), _SupportGraph.recurrent_escape, _eventually_always_by_fixpoints)


def _eventually_always_by_fixpoints(a: QuantumAutomaton, u) -> Verdict:
    """<> [] on the lattice alone: valid exactly when the initial support
    lies in the maximal extension of the maximal invariant of the union,
    which is the certificate either way."""
    u = _operand(a, u)
    x = maximal_invariant(a, u)
    psi = maximal_extension(a, x)
    diag = {"invariant_members": len(x.members), "certificate_members": len(psi.members)}
    if psi.contains_subspace(_initial_support(a)):
        return Verdict.valid(certificate=psi, diagnostics=diag)
    return Verdict.not_valid(certificate=psi, diagnostics=diag)


# ----------------------------------------------------------------------
# always eventually (loop refinement over union components)


def _member_successors(members, actions) -> dict:
    """The successor map of the members: i --action--> j where the image of
    member i is exactly member j; images that are no member give no edge."""
    index = {m: j for j, m in enumerate(members)}
    successors = {}
    for i, m in enumerate(members):
        for name, e in actions.items():
            j = index.get(image(e, m))
            if j is not None:
                successors.setdefault(i, []).append((name, j))
    return successors


def _p2_refine(members, cycle, u: SubspaceUnion, actions):
    """Shrink the first loop component to the states that keep landing in
    the target union along the loop's periodic subsequences.  ``cycle`` is
    the loop as :func:`find_cycle` returns it on the members.

    The loop channel's peripheral period (:func:`linalg._peripheral_period`)
    is the one place of the lattice procedures that needs a spectrum, and
    the loop matrix ms[k-1] ... ms[0] of the actions' real matrices in the
    Hermitian operator basis (:meth:`SuperOp.hermitian_rep`) is the one
    product formed; every other step pulls subspaces back through the
    actions' duals in Kraus form, one action at a time.  For a positive Y, supp E†(Y) is the span
    of the K_i† v over v in supp Y, the image of supp Y under the dual, and
    the support of a sum of positive operators is the join of their
    supports.  So for each rotation r of the loop, each target member p_s
    and each phase c, y is the complement of p_s pulled back c times
    through the rotation's duals, the support of the Krylov sum
    sum_u (F_b†)^u y is the least fixpoint of S -> y v F_b†(S)
    (:func:`superop.least_fixpoint`), and the states that stay orthogonal
    to it pulled back through the prefix's duals form the piece."""
    j1 = cycle[0][0]
    word = [name for _, name, _ in cycle]
    dim = members[0].ambient_dim
    if dim > _LOOP_DIM_MAX:
        raise BudgetExceeded(
            f"[] <> on a space of dimension {dim} needs a {dim * dim}x{dim * dim} loop matrix; "
            f"the limit is dimension {_LOOP_DIM_MAX}"
        )
    ms = [actions[name].hermitian_rep() for name in word]
    loop = ms[0]
    for m in ms[1:]:
        loop = m @ loop
    _, b = _peripheral_period(loop, _PERIOD_BOUND)
    duals = [actions[name].dual() for name in word]
    k = len(word)

    def pull_back(s: Subspace, positions) -> Subspace:
        for i in positions:
            s = image(duals[i], s)
        return s

    pieces = []
    for r in range(1, k + 1):
        # prefix_r† and the dual of the loop rotated to start after the r-th
        # action, as word positions in the order their duals apply
        prefix = list(range(r - 1, -1, -1))
        rotation = prefix + list(range(k - 1, r - 1, -1))
        rotation_b = rotation * b
        for p_s in u.members:
            y = p_s.complement()
            for _ in range(b):  # c = 1 .. b
                y = pull_back(y, rotation)
                orbit = least_fixpoint(y, lambda s: pull_back(s, rotation_b))
                piece = members[j1].meet(pull_back(orbit, prefix).complement())
                if not piece.is_zero():
                    pieces.append(piece)
    new_members = [m for i, m in enumerate(members) if i != j1] + pieces
    refined = SubspaceUnion(dim, new_members)
    if refined.contains_subspace(members[j1]):
        raise QtlError("loop refinement failed to shrink the union")
    return refined, b


def check_always_eventually(a: QuantumAutomaton, u) -> Verdict:
    """Decide "the union is visited infinitely often on every path", by
    :func:`_graph_first` with the search for a lasso whose whole cycle
    stays outside the union, and :func:`_always_eventually_by_fixpoints`."""
    u = _operand(a, u)
    return _graph_first(a, u, _first_graph(a), _SupportGraph.avoiding_lasso, _always_eventually_by_fixpoints)


def _always_eventually_by_fixpoints(a: QuantumAutomaton, u) -> Verdict:
    """[] <> on the lattice alone: alternates the maximal-invariant chain
    with a refinement of simple loops of union components that avoid the
    target.  The refinement uses the exact period of the loop channel's
    peripheral spectrum and returns Unknown, with the reason, when some
    peripheral eigenvalue is not a root of unity or the period exceeds
    ``_PERIOD_BOUND``.  The certificate, valid or not, is the maximal
    extension of the refined invariant.
    """
    u = _operand(a, u)
    actions = _actions(a)
    x = SubspaceUnion.full(a.dim)
    diag = {"refinements": 0, "periods": [], "period_bound": _PERIOD_BOUND}
    try:
        for _ in range(200):
            x = maximal_invariant(a, x)
            if x.is_zero():
                break
            members = list(x.members)
            outside = [j for j, m in enumerate(members) if not u.contains_subspace(m)]
            violating = find_cycle(_member_successors(members, actions), outside)
            if violating is None:
                break
            x, period = _p2_refine(members, violating, u, actions)
            diag["refinements"] += 1
            diag["periods"].append(period)
        else:
            raise QtlError("loop refinement did not converge")
    except UncertifiedPeriod as exc:
        return Verdict.unknown(str(exc), diag)
    psi = maximal_extension(a, x)
    diag["certificate_members"] = len(psi.members)
    if psi.contains_subspace(_initial_support(a)):
        return Verdict.valid(certificate=psi, diagnostics=diag)
    return Verdict.not_valid(certificate=psi, diagnostics=diag)


def check_always_until(a: QuantumAutomaton, phi, psi) -> Verdict:
    """Always (phi until psi), tested by invariance of phi plus
    always-eventually psi; a refutation names its failing ``conjunct``.

    The conjunction is sufficient, not necessary: [] (phi U psi) needs only
    invariance of phi || psi besides the recurrence of psi, so a refutation
    may be wrong (the "conservative" row of the :func:`check` table).  Each
    conjunct is decided by :func:`_graph_first`, as :func:`check_invariance`
    and :func:`check_always_eventually` decide it, on one support graph,
    built when the initial support lies in phi (otherwise the chain
    refutes at step 0).  When that graph closed, both conjuncts are
    decided on it, and a valid verdict has the union of the nodes as its
    certificate and ``graph_nodes`` as its diagnostics; otherwise a valid
    verdict carries the loop refinement's fixpoint, its diagnostics and
    the ``invariance_chain_depth``.
    """
    phi, psi = _operand(a, phi), _operand(a, psi)
    graph = _first_graph(a) if phi.contains_subspace(_initial_support(a)) else None
    inv = _graph_first(a, phi, graph, _escape_witness, _invariance_by_chain)
    if inv.status == NOT_VALID:
        inv.diagnostics = {"conjunct": "invariance", **inv.diagnostics}
        return inv
    ae = _graph_first(a, psi, graph, _SupportGraph.avoiding_lasso, _always_eventually_by_fixpoints)
    if ae.status == NOT_VALID:
        ae.diagnostics["conjunct"] = "always_eventually"
    elif ae.is_valid and "chain_depth" in inv.diagnostics:
        ae.diagnostics = {"invariance_chain_depth": inv.diagnostics["chain_depth"], **ae.diagnostics}
    return ae


# ----------------------------------------------------------------------
# single-action almost-surely machinery (certified root-of-unity regime)


def _orbit(step, start) -> tuple:
    """(states, mu): start, step(start), ... up to the first state x_K
    whose coordinates (:func:`superop.hvec`) depend on the earlier ones,
    and the orbit's minimal polynomial mu, a primitive integer list, lowest
    degree first; BudgetExceeded once the orbit spans more than
    ``_ORBIT_DIM_MAX`` dimensions.  The row of x_k, its coordinates and then
    the unit row of k, is reduced on integers against the earlier rows in
    echelon form; x_K's reduces to zero coordinates, then mu's coefficients."""
    states, echelon = [start], []  # (pivot, primitive integer row)
    while True:
        v = hvec(states[-1])
        r = np.concatenate((v.num_re[:, 0], np.zeros(_ORBIT_DIM_MAX + 1, dtype=object)))
        r[v.rows + len(echelon)] = v.den
        for p, row in echelon:
            if r[p]:
                r = row[p] * r - r[p] * row
        (nonzero,) = r[: v.rows].nonzero()
        if not len(nonzero):
            return states, _primitive(list(r[v.rows :]))
        if len(echelon) == _ORBIT_DIM_MAX:
            raise BudgetExceeded(f"the orbit spans more than {_ORBIT_DIM_MAX} dimensions, the limit")
        echelon.append((nonzero[0], r // math.gcd(*r)))
        states.append(step(states[-1]))


def limit_states(e: SuperOp, sigma0: Mat):
    """Exact limit cycle [tau_0 .. tau_{b-1}] of sigma_n = E^n(sigma0), for
    a density matrix sigma0 and a trace-preserving E (PreconditionViolated
    otherwise), from orbits alone (:func:`_orbit`).  b is the least order,
    up to ``_PERIOD_BOUND``, of the unimodular roots of the orbit's minimal
    polynomial (:func:`linalg._polynomial_period`; UncertifiedPeriod
    otherwise), so it divides the channel's period.  Under F = E^b those
    roots become one, so the orbit's minimal polynomial under F is
    nu = (z - 1) s (nu(1) = 0 by trace preservation), every other root of
    nu lies inside the unit disk, and s(1) != 0 as a channel's peripheral
    eigenvalues are semisimple (UncertifiedPeriod otherwise): F^n sigma0
    tends to tau_0 = s(F) sigma0 / s(1), and tau_c = E^c(tau_0).
    """
    _validate_density(sigma0, e.dim_in, "initial state")
    if not e.is_trace_preserving():
        raise PreconditionViolated("limit states need a trace-preserving channel")
    states, nu = _orbit(e.apply, sigma0)
    _, b = _polynomial_period(nu, _PERIOD_BOUND)
    if b > 1:
        def step(x):
            for _ in range(b):
                x = e.apply(x)
            return x
        states, nu = _orbit(step, sigma0)
    s = _quotient(nu, [-1, 1])
    if not sum(s):
        raise UncertifiedPeriod(f"period {b} uncertified: the orbit under E^{b} is not semisimple at one")
    taus = [mat_sum(x * c for x, c in zip(states, s) if c) * Fraction(1, sum(s))]
    for _ in range(b - 1):
        taus.append(e.apply(taus[-1]))
    return taus


def check_always_almost_until(
    e: SuperOp,
    sigma0: Mat,
    p: Subspace,
    q: Subspace,
) -> Verdict:
    """Always (p almost-until q) for a single action from the density
    matrix sigma0.

    The invariance conjunct is exact.  The almost-surely conjunct asks that
    the satisfaction probability of q has limit point one; in the certified
    root-of-unity regime this reduces to exact satisfaction checks on the
    finitely many limit states of the orbit (:func:`limit_states`), and is
    Unknown otherwise.  The ``period`` diagnostic is the orbit's own period,
    which divides the channel's, and ``limit_traces`` holds the exact
    probabilities tr(q tau_c) as rationals (:func:`linalg.format_rational`).
    """
    _validate_density(sigma0, e.dim_in, "initial state")
    a = QuantumAutomaton(e.dim_in, {"step": e}, sigma0, validate=False)
    inv = check_invariance(a, p)
    if inv.status == NOT_VALID:
        inv.diagnostics["conjunct"] = "invariance"
        return inv
    try:
        states = limit_states(e, sigma0)
    except UncertifiedPeriod as exc:
        return Verdict.unknown(str(exc))
    limit_traces = [format_rational((q.projector @ tau).trace().re) for tau in states]
    diag = {"period": len(states), "limit_traces": limit_traces}
    if any(satisfies(tau, q) for tau in states):
        return Verdict.valid(certificate=inv.certificate, diagnostics=diag)
    # no limit state reaches the target: the satisfaction probability is
    # bounded away from one along the whole orbit
    witness = {"conjunct": "limit_point", "limit_traces": limit_traces}
    return Verdict.not_valid(witness=witness, diagnostics=diag)


# ----------------------------------------------------------------------
# reachability of the exit and the exit-shaped formulas


def reachability_superop(program: SequentialProgram) -> ReachabilityResult:
    """The program's semantic function: all mass that ever reaches the exit.

    With N the cut body of the program's exit loop
    (:func:`qwhile.bohm_jacopini`), the reach state of an input rho at the
    initial location is Sum_n m0 N^n(rho) m0.  N maps B = R_in ^ T
    (``input_trapped``) into itself and m0 vanishes on B, so the exit mass
    depends only on the compression A of N onto C = R_in ^ B^perp, and
    I - A is nonsingular on the operators over C: a fixed state there would
    span, with B, a larger never-exiting invariant subspace than T.  All
    three are direct sums of location blocks, and so is C: its block c is
    R_in,c ^ B_c^perp, as the complement of a direct sum over disjoint
    coordinate blocks is the sum of the blocks' complements.  The solve has
    Sum_c dim(C_c)^2 unknowns; past ``_REACH_UNKNOWNS_MAX`` it is refused
    (BudgetExceeded) before any operator over C is formed.  One exact
    fraction-free solve (I - A) X = Lt, Lt the coordinates of the initial
    location's block (:meth:`WhileNormalForm.compression`, with I - A from
    :meth:`WhileNormalForm.identity_minus_compressed_cut`, both on the
    d x d edge operators), gives the d^2 x d^2 matrix F of the semantic
    function: its exit rows read through V_e (x) conj V_e.  There is no
    spectrum and no float.  The reach state is the exit block unvec(F vec rho_0), placed on
    the embedded space; ``almost_terminates`` is R ^ T = R ^ B = 0, under
    which the reach trace is checked to be exactly one.  The expected
    number of steps until the exit, in the program's own step counting,
    comes from the same solve: y = X vec rho_0 sums the compressed states
    A^n b, b = Lt vec rho_0, so its trace off the exit, Sum_{c != exit}
    tr(V_c Y_c V_c^dag), is Sum_n P(T > n) = E[T] (the fundamental matrix
    of an absorbing chain, applied once).  The compression loses none of
    that mass: N maps B into B, so the mass in B never decreases, and under
    almost-sure exit it tends to zero.  Otherwise the expected steps are
    infinite.
    """
    loop = bohm_jacopini(program)
    d = program.dim
    start = program.config_index(program.initial_location)
    stop = program.config_index(program.exit_location)
    kept = {c: r.meet(loop.input_trapped[c].complement()) for c, r in loop.input_reachable.items()}
    unknowns = sum(sub.dim**2 for sub in kept.values())
    if unknowns > _REACH_UNKNOWNS_MAX:
        raise BudgetExceeded(
            f"reachability needs an exact solve for {unknowns} unknowns; the limit is {_REACH_UNKNOWNS_MAX}"
        )
    parts = loop.compression(kept)
    offsets = list(itertools.accumulate((v.cols**2 for v, _ in parts), initial=0))
    lhs = loop.identity_minus_compressed_cut(parts)
    l_in = parts[start][1]
    rhs = (
        Mat.zeros(offsets[start], d * d)
        .vstack(kron(l_in, l_in.conj()))
        .vstack(Mat.zeros(unknowns - offsets[start + 1], d * d))
    )
    x = solve(lhs, rhs)
    v_out = parts[stop][0]
    semantics = kron(v_out, v_out.conj()) @ x[offsets[stop] : offsets[stop + 1], :]
    rho0 = vec(program.initial_state)
    reach_block = unvec(semantics @ rho0, d)
    almost = loop.exits_almost_surely
    expected = math.inf
    if almost:
        if reach_block.trace() != CRat(1):
            raise QtlError(f"the loop exits almost surely, but the reach trace is {reach_block.trace()}")
        # y = Sum_n A^n b; its mass off the exit is Sum_n P(T > n) = E[T]
        y = x @ rho0
        off_exit = CRat(0)
        for c, (v, _) in enumerate(parts):
            if c != stop and v.cols:
                off_exit += unvec(kron(v, v.conj()) @ y[offsets[c] : offsets[c + 1], :], d).trace()
        expected = float(off_exit.re)
    return ReachabilityResult(
        expected_steps=expected,
        almost_terminates=almost,
        reach_state=loop.exit_embedded(reach_block),
        channel=MatrixRep(semantics),
        diagnostics={"reach_trace": float(reach_block.trace().re)},
    )


@dataclass
class ExitVerdicts:
    eventually: Verdict
    almost_eventually: Verdict
    always: Verdict


def exit_atom_subspace(program: SequentialProgram, exit_subspace: Subspace) -> Subspace:
    """The proposition "at the exit, inside the given subspace"."""
    return atom_from_blocks(
        "exit_only", {program.exit_location: exit_subspace}, program
    ).subspace


def partial_correctness_subspace(program: SequentialProgram, exit_subspace: Subspace) -> Subspace:
    """Unconstrained off the exit, the given subspace at the exit."""
    blocks = {
        loc: (exit_subspace if loc == program.exit_location else Subspace.full(program.dim))
        for loc in program.locations
    }
    return atom_from_blocks("exit_partial", blocks, program).subspace


def check_exit_eventually(program: SequentialProgram, exit_subspace: Subspace) -> Verdict:
    """<> p: the exit loop exits exactly and every exit arrival lies in p;
    exact, on the loop's lattice.  A valid verdict carries the exit step,
    a refutation the conjunct that fails ("exact_exit" or "arrivals")."""
    return _exit_eventually(bohm_jacopini(program), exit_subspace)


def _exit_eventually(loop: WhileNormalForm, exit_subspace) -> Verdict:
    within = exit_subspace.contains(loop.arrivals)  # DimensionMismatch off the data space
    if loop.exit_step is None:
        return Verdict.not_valid(diagnostics={"conjunct": "exact_exit"})
    if not within:
        return Verdict.not_valid(diagnostics={"conjunct": "arrivals"})
    return Verdict.valid(diagnostics={"step": loop.exit_step})


def check_exit_almost_eventually(program: SequentialProgram, exit_subspace: Subspace) -> Verdict:
    """<>~ p: the exit loop exits almost surely (R ^ T = 0) and every exit
    arrival, spanned by m0 R, lies in p; exact, on the loop's lattice."""
    return _exit_almost_eventually(bohm_jacopini(program), exit_subspace)


def _exit_almost_eventually(loop: WhileNormalForm, exit_subspace) -> Verdict:
    ok = exit_subspace.contains(loop.arrivals) and loop.exits_almost_surely
    return Verdict(
        VALID if ok else NOT_VALID,
        diagnostics={
            "reachable_dim": sum(b.dim for b in loop.reachable.values()),
            "trapped_dim": sum(b.dim for b in loop.trapped.values()),
        },
    )


def check_exit_always(program: SequentialProgram, exit_subspace: Subspace) -> Verdict:
    """[] p: :func:`check_invariance` of :func:`partial_correctness_subspace`,
    as for every [] f; the exit loop's constructor checks the preconditions."""
    bohm_jacopini(program)
    return check_invariance(to_automaton(program), partial_correctness_subspace(program, exit_subspace))


def check_exit_formulas(program: SequentialProgram, exit_subspace: Subspace) -> ExitVerdicts:
    """The three exit-shaped properties of a deterministic program with exit,
    as :func:`check_exit_eventually`, :func:`check_exit_almost_eventually`
    and :func:`check_exit_always` decide them; <> p and <>~ p share one
    exit loop."""
    loop = bohm_jacopini(program)
    return ExitVerdicts(
        eventually=_exit_eventually(loop, exit_subspace),
        almost_eventually=_exit_almost_eventually(loop, exit_subspace),
        always=check_exit_always(program, exit_subspace),
    )


@dataclass(frozen=True)
class TerminationResult:
    kind: str  # "terminates" | "almost_candidate" | "no"
    step: int | None


def check_terminates(program: SequentialProgram) -> TerminationResult:
    """Exact termination, read off the program's exit loop lattice.

    "terminates" carries the loop's exit step, the first step with all mass
    at the exit (0 for a program starting at its exit).  With no exit
    arrivals (A = 0) no mass ever reaches the exit ("no"); otherwise the
    verdict is a candidate for almost-termination, to be certified by
    :func:`reachability_superop`, which also gives the exact reach trace.
    """
    loop = bohm_jacopini(program)
    if loop.exit_step is not None:
        return TerminationResult("terminates", loop.exit_step)
    return TerminationResult("no" if loop.arrivals.is_zero() else "almost_candidate", None)


# ----------------------------------------------------------------------
# entanglement-assisted invariance


def kleene_always(e: SuperOp, rho_ab: Mat, p: Subspace, t: int | None = None) -> Verdict:
    """Invariance of p under (E on the first factor) from a joint input for
    t steps: not valid at the first s < t whose support S_s (S_0 = supp
    rho_ab, then Kraus images) leaves p; valid once their join stops growing.

    t defaults to d^2 - 1 for a d-dimensional action space and may only be
    enlarged (PreconditionViolated otherwise); the bound does not depend on
    the environment dimension.  rho_ab must be a density matrix
    (PreconditionViolated otherwise).
    """
    d = e.dim_in
    _validate_density(rho_ab, rho_ab.rows, "joint state")
    if rho_ab.rows % d != 0:
        raise DimensionMismatch("joint state dimension is not a multiple of the action space")
    d_env = rho_ab.rows // d
    if p.ambient_dim != rho_ab.rows:
        raise DimensionMismatch("proposition must live on the joint space")
    t_min = max(1, d * d - 1)
    if t is None:
        t = t_min
    elif t < t_min:
        raise PreconditionViolated(f"t may not be below the bound {t_min}")
    lifted = SuperOp([kron(k, Mat.eye(d_env)) for k in e.kraus], validate=False)
    diag = {"steps_averaged": t}
    joined, s = Subspace.zero(rho_ab.rows), support(rho_ab, validate=False)
    for step in range(t):
        if not p.contains(s):
            return Verdict.not_valid(witness={"step": step}, diagnostics=diag)
        if joined.contains(s):
            break
        joined, s = joined.join(s), image(lifted, s)
    return Verdict.valid(diagnostics=diag)


# ----------------------------------------------------------------------
# Hoare-style correctness through the exit formulas


def hoare_check(
    program: SequentialProgram,
    pre_sub: Subspace,
    post_sub: Subspace,
    mode: str = "partial",
) -> Verdict:
    """Partial or total correctness of {pre} program {post}.

    Partial correctness is the invariance of "post at the exit,
    unconstrained elsewhere"; total correctness is almost-sure arrival in
    "post at the exit".  Both depend on the input only through its support,
    and the supports of a mixture join, so the quantification over the
    states of pre is discharged by one instance started in pre's projector
    over dim pre.
    """
    if mode not in ("partial", "total"):
        raise PreconditionViolated("mode must be 'partial' or 'total'")
    if pre_sub.ambient_dim != program.dim or post_sub.ambient_dim != program.dim:
        raise DimensionMismatch("pre and post conditions live on the data space")
    if pre_sub.is_zero():
        return Verdict.valid(diagnostics={"vacuous": True})
    instance = program.with_initial_state(pre_sub.projector * CRat(Fraction(1, pre_sub.dim)))
    if mode == "partial":
        return check_exit_always(instance, post_sub)
    return check_exit_almost_eventually(instance, post_sub)


# ----------------------------------------------------------------------
# the formula table: one classifier for the checker and the oracle

_TABLE_POINTER = "see the decidable fragment table in `qtl check --help` or in qtl.check"


def _formula_union(node, atoms: dict, ambient: int) -> SubspaceUnion:
    """Or-combinations of atoms (and true/false) as a union of subspaces."""
    if isinstance(node, FTrue):
        return SubspaceUnion.full(ambient)
    if isinstance(node, FFalse):
        return SubspaceUnion.zero(ambient)
    if isinstance(node, FAtom):
        return SubspaceUnion(ambient, [atoms[node.name].subspace])
    if isinstance(node, Or):
        return _formula_union(node.left, atoms, ambient).union(
            _formula_union(node.right, atoms, ambient)
        )
    raise UnsupportedFormula(
        f"operand {formula_to_str(node)} is not true, false, an atom or a || of them; "
        + _TABLE_POINTER
    )


def _classify(formula, atoms: dict, ambient: int):
    """The table entry of a formula: its shape, as written in the table of
    :func:`check`, and its operands, converted to unions of subspaces (f, g)
    or to atom subspaces (p, q).  Anything else raises UnsupportedFormula."""

    def union(node):
        return _formula_union(node, atoms, ambient)

    match formula:
        case FTrue() | FFalse() | FAtom() | Or():
            return "f", (union(formula),)
        case Next(body):
            return "X f", (union(body),)
        case Always(Eventually(body)):
            return "[] <> f", (union(body),)
        case Always(Until(left, right)):
            return "[] (f U g)", (union(left), union(right))
        case Always(AlmostUntil(left, right)):
            return "[] (p U~ q)", (atoms[left].subspace, atoms[right].subspace)
        case Always(body):
            return "[] f", (union(body),)
        case Eventually(Always(body)):
            return "<> [] f", (union(body),)
        case Eventually(body):
            return "<> f", (union(body),)
        case AlmostEventually(name):
            return "<>~ p", (atoms[name].subspace,)
        case Until(left, right):
            return "f U g", (union(left), union(right))
    raise UnsupportedFormula(
        f"formula {formula_to_str(formula)} has no shape in the table; " + _TABLE_POINTER
    )


def _exit_shaped(proposition, target) -> Subspace | None:
    """The data-space part of a one-member proposition supported only on the
    exit location of a deterministic program with exit, or None."""
    if isinstance(proposition, SubspaceUnion):
        if len(proposition.members) != 1:
            return None
        (proposition,) = proposition.members
    if not isinstance(target, SequentialProgram) or target.exit_location is None or not target.deterministic:
        return None
    at_exit = coordinates(target, target.exit_location)
    if not Subspace(proposition.ambient_dim, None, tuple(at_exit)).contains(proposition):
        return None
    return Subspace(target.dim, proposition.rref[:, at_exit])


def check(target, formula, atoms: dict) -> Verdict:
    """Decide a parsed formula on a program or a quantum automaton.

    ``atoms`` maps the atom names of the formula to :class:`Atom`.  The
    decidable fragment is a fixed table of shapes; f and g stand for true,
    false, an atom or a || of them, p and q for atoms:

        f              satisfaction by the initial state
        X f            one-step successors
        [] f           invariance (for two or more members, a search of
                       the support graph, which also decides valid when
                       the graph closes; then the pre-image chain,
                       stopped at the first round that drops the initial
                       support)
        [] <> f        recurrence (lasso search, which also decides
                       valid when its graph closes; then loop refinement,
                       may be Unknown)
        <> [] f        stabilization (lasso search, which also decides
                       valid when its graph closes; then maximal
                       invariant + extension)
        [] (f U g)     invariance conjunct plus recurrence conjunct,
                       both searched on one support graph, which also
                       decides valid when it closes; then the chain and
                       the loop refinement (conservative: may refute what
                       holds on every trace)
        [] (p U~ q)    single-action systems only; limit-point analysis
                       on the initial state's orbit, whose period (the
                       period diagnostic) divides the channel's
        <> f           deterministic programs with exit, f one exit-shaped
                       atom; exact exit on the exit loop's subspace
                       lattice; anything else is Unknown by construction
        <>~ p          likewise with p; exact almost-sure exit on the exit
                       loop's subspace lattice
        f U g          Unknown by construction (termination problem)

    Every other shape, and an object that is no parsed formula (formula
    text, say), raises :class:`UnsupportedFormula`; a target that is
    neither a program nor an automaton raises PreconditionViolated.  No
    float is on any verdict path.  The periods of [] <> f, [] (f U g) and
    [] (p U~ q) are exact: with p the characteristic polynomial of the loop channel
    (for [] (p U~ q), the minimal polynomial of the initial state's orbit),
    the verdict is Unknown when g = gcd(p, z^n p(1/z)) is not in Z[z] (a
    peripheral eigenvalue is not a root of unity) or when its roots have no
    common order up to 64.  The automaton of a program is built only
    for the shapes that run on it.

    [] f, <> [] f, [] <> f and both conjuncts of [] (f U g) are decided by
    one protocol.  The limit shapes, [] (f U g), and [] f of two or more
    members whose initial support lies in f, search the support graph
    before any fixpoint or chain runs, on the graph built 12 actions deep
    or until D expansions on a space of dimension D, whichever stops it
    first.  A refuting lasso or escape on it decides not_valid.  When the
    graph closed (every node's action images are nodes) and holds none,
    its paths are exactly the support sequences of all traces, so the
    shape is valid: the certificate is the union of the nodes, an
    invariant union that holds the initial support, and the diagnostics
    give graph_nodes.  Everywhere else the fixpoints or the chain decide,
    and a valid verdict carries the fixpoint as its certificate and the
    pass's own keys as its diagnostics: chain_depth for the [] chain, and
    for [] (f U g) invariance_chain_depth beside the loop refinement's
    keys.  A refutation carries no certificate: the evidence of a refuted
    [] f, <> [] f, [] <> f or [] (f U g) is its witness, an action word or
    a lasso (prefix and cycle) that replays exactly.  When the chain or
    the fixpoints refute, the same search runs again on the same graph,
    grown to the chain's depth (that of the shallowest escape) and 200,000
    expansions for the chain, and to 12 actions and 4000 expansions for
    the fixpoints of a limit shape, whose refutation has no witness when
    that graph holds no lasso.  A refutation's diagnostics name the pass
    that refuted it: search_nodes for the search, chain_depth for the []
    chain, the fixpoint's own keys otherwise.
    """
    if isinstance(target, QuantumAutomaton):
        ambient = target.dim
    elif isinstance(target, (SequentialProgram, ConcurrentProgram)):
        ambient = target.dim * len(target.configs())
    else:
        raise PreconditionViolated(f"check takes a program or a quantum automaton, got {target!r}")
    shape, operands = _classify(formula, atoms, ambient)
    if shape == "f U g":
        return Verdict.unknown(
            "until is decided only as [] (f U g) (reducible to the termination problem otherwise)"
        )
    if shape == "<> f":
        sub = _exit_shaped(operands[0], target)
        if sub is None:
            return Verdict.unknown(
                "eventually is decided only for exit-shaped atoms of deterministic "
                "programs with exit (reducible to the termination problem otherwise)"
            )
        return check_exit_eventually(target, sub)
    if shape == "<>~ p":
        sub = _exit_shaped(operands[0], target)
        if sub is None:
            return Verdict.unknown(
                "almost-eventually is decided only for exit-shaped atoms of "
                "deterministic programs with exit"
            )
        return check_exit_almost_eventually(target, sub)
    a = target if isinstance(target, QuantumAutomaton) else to_automaton(target)
    if shape == "f":
        if operands[0].contains_subspace(_initial_support(a)):
            return Verdict.valid()
        return Verdict.not_valid(witness={"step": 0})
    if shape == "X f":
        return check_next(a, *operands)
    if shape == "[] f":
        return check_invariance(a, *operands)
    if shape == "[] <> f":
        return check_always_eventually(a, *operands)
    if shape == "<> [] f":
        return check_eventually_always(a, *operands)
    if shape == "[] (f U g)":
        return check_always_until(a, *operands)
    # "[] (p U~ q)"
    if len(a.actions) != 1:
        return Verdict.unknown("almost-until needs a single action (deterministic system)")
    (action,) = a.actions.values()
    return check_always_almost_until(action, a.initial_state, *operands)


# ----------------------------------------------------------------------
# brute-force oracle over the exact support graph


@dataclass
class OracleResult:
    status: str  # "holds" | "fails" | "inconclusive"
    witness: dict | None = None
    closed: bool = False  # the support graph closed within its depth and budget

    def __repr__(self):
        return f"OracleResult({self.status})"


def oracle_bfs(target, formula, atoms: dict, depth: int = 12, budget: int = 20000) -> OracleResult:
    """Brute-force evaluation over the exact reachable support graph.

    Refutations of box-shaped formulas (explicit violating words) and
    witnesses of diamond-shaped ones are sound at any depth; exact
    recurrences (lassos) refute the limit formulas.  The graph stops at
    ``depth`` and after ``budget`` expansions, and the refutations are
    read off it as far as it was built.  When it closes within both the
    answers are complete for the shapes of the table of :func:`check`
    (with the trace semantics of [] (f U g)) except the almost-surely ones;
    otherwise a formula with no refutation on the graph, or a shape
    outside the table, is Inconclusive.
    """
    a = target if isinstance(target, QuantumAutomaton) else to_automaton(target)
    try:
        shape, operands = _classify(formula, atoms, a.dim)
    except UnsupportedFormula:
        return OracleResult("inconclusive")
    if shape in ("<>~ p", "[] (p U~ q)"):
        return OracleResult("inconclusive")
    # the oracle's own root, by elimination, not the checker's _initial_support
    graph = _SupportGraph(a, depth, budget, _matrix_rep_image, root=support(a.initial_state, validate=False))
    u = operands[0]
    if shape == "f":
        ok = u.contains_subspace(graph.nodes[0])
        return OracleResult("holds" if ok else "fails", None if ok else {"word": [], "step": 0}, True)
    if shape == "X f":
        if 0 not in graph.successors:
            return OracleResult("inconclusive")
        for name, j in graph.successors[0]:
            if not u.contains_subspace(graph.nodes[j]):
                return OracleResult("fails", {"word": [name], "step": 1}, graph.closed)
        return OracleResult("holds", None, True)
    if shape in ("[] f", "<> [] f", "[] <> f"):
        if shape == "[] f":
            i = graph.escape(u)
            witness = None if i is None else {"word": graph.word_to(i), "step": graph.depth[i]}
        elif shape == "<> [] f":
            witness = graph.recurrent_escape(u)
        else:
            witness = graph.avoiding_lasso(u)
        if witness is not None:
            return OracleResult("fails", witness, graph.closed)
        return OracleResult("holds" if graph.closed else "inconclusive", None, graph.closed)
    if shape == "[] (f U g)":
        worst = OracleResult("holds", None, graph.closed)
        for v in range(len(graph)):
            r = _oracle_until(graph, *operands, root=v)
            if r.status == "fails":
                prefix = graph.word_to(v)
                witness = dict(r.witness or {})
                witness["word"] = prefix + witness.get("word", witness.pop("prefix", []))
                return OracleResult("fails", witness, graph.closed)
            if r.status == "inconclusive":
                worst = OracleResult("inconclusive")
        if not graph.closed:
            return OracleResult("inconclusive")
        return worst
    if shape == "<> f":
        return _oracle_until(graph, SubspaceUnion.full(a.dim), u)
    # "f U g"
    return _oracle_until(graph, *operands)


def _matrix_rep_image(e: SuperOp, s: Subspace) -> Subspace:
    """The oracle's image, from the matrix representation: independent of the
    Kraus-form lattice of the checker."""
    return MatrixRep(e.matrix_rep()).image(s)


def _oracle_until(graph: _SupportGraph, phi: SubspaceUnion, psi: SubspaceUnion, root: int = 0) -> OracleResult:
    """Decide (phi U psi) over all paths from ``root`` on the support graph."""
    if psi.contains_subspace(graph.nodes[root]):
        return OracleResult("holds", {"step": 0}, True)
    region = set()
    frontier = [root]
    cut = False

    def word_from_root(i):
        return graph.path(root, i, region) if i != root else []

    while frontier:
        nxt = []
        for i in frontier:
            if i in region:
                continue
            region.add(i)
            if not phi.contains_subspace(graph.nodes[i]):
                return OracleResult(
                    "fails",
                    {"word": word_from_root(i), "step": graph.depth[i]},
                    graph.closed,
                )
            if i not in graph.successors:
                cut = True
                continue
            for name, j in graph.successors[i]:
                if not psi.contains_subspace(graph.nodes[j]) and j not in region:
                    nxt.append(j)
        frontier = nxt
    cycle = find_cycle(graph.successors, region)
    if cycle:
        return OracleResult(
            "fails",
            {
                "prefix": word_from_root(cycle[0][0]),
                "cycle": [name for _, name, _ in cycle],
            },
            graph.closed,
        )
    if cut:
        return OracleResult("inconclusive")
    return OracleResult("holds", None, graph.closed)


def replay_word(a: QuantumAutomaton, word) -> list:
    """Exact state trajectory along an action word, starting at sigma_0."""
    states = [a.initial_state]
    for name in word:
        states.append(a.actions[name].apply(states[-1]))
    return states
