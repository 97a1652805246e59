"""Location-based quantum program models and their execution semantics.

A sequential program associates each location with a trace-preserving
channel, a measurement, and a set-valued next-location map: one step applies
the channel of the current location, measures, and relabels according to the
outcome.  Concurrent programs carry one location register per process plus a
scheduler register; the scheduled process acts, the others idle.  Each
location's measurement keeps its own outcomes, and its next map names a
nonempty set of targets for exactly those outcomes; both models check each
location's action with the same helper.

One step at a configuration is stated once, as its outcome channels M_j o E
(``outcome_channels``), each composed on the Kraus stacks of the
measurement's operator j and of the channel.  Nondeterminism is resolved by
whole-step selectors: a selector fixes one target for every (outcome,
location) pair, and so induces one successor state and one trace-preserving
action of the derived automaton, whose Kraus stack places those d x d
channels from each configuration to its targets (``SuperOp.placed``).  So
the automaton is built from stacks alone, with no Kraus or measurement Mat
and no Mat product.  States and subspaces embed in H (x) configurations,
one block per configuration on its ``coordinates`` (``place_blocks``,
``place_subspaces``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    MalformedState,
    NonClassicalCoherence,
    NotDeterministic,
    PreconditionViolated,
    SelectorExplosion,
)
from .linalg import Mat, _psd_rank_rows, is_psd
from .subspace import Subspace
from .superop import Measurement, SuperOp

DEFAULT_SELECTOR_CAP = 4096
# step_superop and to_automaton place sparse Kraus stacks, but reading one
# (`compile --normal-form`, SuperOp.apply, replay_word) forms each operator
# as a dense D x D Mat: they raise BudgetExceeded before placing any past
# this many entries in all (operators times D^2).  A chain of 160 skips
# (161 operators at D = 322) is at the limit; tests and workloads reach 73,728
_GRID_ENTRIES_MAX = 2**24


@dataclass(frozen=True)
class LocationAction:
    """Channel, measurement and outcome-indexed next-location choices."""

    channel: SuperOp
    measurement: Measurement
    next: dict  # outcome -> tuple of targets (labels, or (label, scheduler))


def _validate_density(rho: Mat, dim: int, what: str) -> int:
    """The rank of rho, or the QtlError of the first check it fails: rho is
    dim x dim, positive semidefinite and of trace one.  The grids are read
    into lists once, for the trace and for the Hermiticity test and PSD
    sweep of :func:`linalg._psd_rank_rows`."""
    if rho.rows != dim or rho.cols != dim:
        raise DimensionMismatch(f"{what} must be {dim}x{dim}")
    re = rho.num_re.tolist()
    # trace one: the real diagonal numerators sum to the denominator (a
    # Hermitian diagonal is real); summed before the sweep works in place
    trace = sum(re[i][i] for i in range(dim))
    rank = _psd_rank_rows(re, None if rho.is_real() else rho.num_im.tolist())
    if rank is None:
        raise PreconditionViolated(f"{what} is not positive semidefinite")
    if trace != rho.den:
        raise PreconditionViolated(f"{what} must have trace one")
    return rank


def _checked_act(act, dim: int, where: str, known_target) -> LocationAction:
    """The action at a location, with each outcome's targets as a tuple in
    outcome order, or the QtlError of the first check it fails.  The channel
    and the measurement act on the d-dimensional register, the channel is
    trace preserving, and ``next`` names, for exactly the outcomes of the
    measurement, a nonempty tuple of distinct targets that ``known_target``
    accepts."""
    if act is None:
        raise PreconditionViolated(f"{where} has no action")
    if act.channel.dim_in != dim or act.channel.dim_out != dim:
        raise DimensionMismatch(f"channel at {where} has wrong dimension")
    if not act.channel.is_trace_preserving():
        raise PreconditionViolated(f"channel at {where} is not trace preserving")
    if act.measurement.dim != dim:
        raise DimensionMismatch(f"measurement at {where} has wrong dimension")
    n = len(act.measurement)
    for j in act.next:
        if j not in range(n):
            raise PreconditionViolated(f"next({j!r}, {where}) names no outcome of the {n}-outcome measurement")
    nxt = {}
    for j in range(n):
        targets = nxt[j] = tuple(act.next.get(j, ()))
        if not targets:
            raise PreconditionViolated(f"next({j}, {where}) is missing or empty")
        for t in targets:
            if not known_target(t):
                raise PreconditionViolated(f"next({j}, {where}) targets unknown {t}")
        if len(set(targets)) != len(targets):
            raise PreconditionViolated(f"next({j}, {where}) names a target twice")
    return LocationAction(act.channel, act.measurement, nxt)


def _checked_acts(act: dict, locations: tuple, dim: int, owner: str, known_target) -> dict:
    """``_checked_act`` of each location, named "location <label><owner>", or
    PreconditionViolated for an ``act`` entry whose label is no location."""
    known = set(locations)
    for label in act:
        if label not in known:
            raise PreconditionViolated(f"act names {label!r}, which is not a location{owner}")
    return {loc: _checked_act(act.get(loc), dim, f"location {loc}{owner}", known_target) for loc in locations}


class SequentialProgram:
    """Locations, per-location dynamics and a set-valued control flow map."""

    __slots__ = (
        "dim",
        "locations",
        "act",
        "initial_state",
        "initial_location",
        "exit_location",
    )

    def __init__(self, dim, locations, act, initial_state, initial_location, exit_location=None):
        locations = tuple(locations)
        if not locations or len(set(locations)) != len(locations):
            raise PreconditionViolated("locations must be nonempty and unique")
        if initial_location not in locations:
            raise PreconditionViolated("initial location is not a location")
        if exit_location is not None and exit_location not in locations:
            raise PreconditionViolated("exit location is not a location")
        act = _checked_acts(act, locations, dim, "", frozenset(locations).__contains__)
        _validate_density(initial_state, dim, "initial state")
        if exit_location is not None:
            e = act[exit_location]
            if not e.channel.is_identity():
                raise PreconditionViolated("exit channel must be the identity channel")
            if not e.measurement.is_trivial():
                raise PreconditionViolated("exit measurement must be {I, 0, ..., 0}")
            if any(targets != (exit_location,) for targets in e.next.values()):
                raise PreconditionViolated("exit location must loop to itself")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "locations", locations)
        object.__setattr__(self, "act", act)
        object.__setattr__(self, "initial_state", initial_state)
        object.__setattr__(self, "initial_location", initial_location)
        object.__setattr__(self, "exit_location", exit_location)

    def __setattr__(self, name, value):
        raise AttributeError("SequentialProgram is immutable")

    # ------------------------------------------------------------------

    @property
    def deterministic(self) -> bool:
        return all(len(choices) == 1 for _, choices in self._selector_domain())

    def configs(self) -> tuple:
        return self.locations

    def config_index(self, config) -> int:
        return self.locations.index(config)

    def initial_config(self):
        return self.initial_location

    def with_initial_state(self, rho: Mat) -> "SequentialProgram":
        return SequentialProgram(
            self.dim, self.locations, self.act, rho, self.initial_location, self.exit_location
        )

    def _selector_domain(self):
        return [((j, loc), targets) for loc in self.locations for j, targets in self.act[loc].next.items()]

    def _action(self, config) -> LocationAction:
        return self.act[config]

    def _target(self, config, selector, j):
        return selector[(j, config)]


@dataclass(frozen=True)
class ConcurrentProcess:
    """One process of a concurrent program: its locations and local actions."""

    locations: tuple
    act: dict  # location -> LocationAction, targets (label, scheduler)


class ConcurrentProgram:
    """Shared register, one control component per process, and a scheduler."""

    __slots__ = (
        "dim",
        "processes",
        "initial_state",
        "initial_locations",
        "initial_scheduler",
        "_configs",
    )

    def __init__(self, dim, processes, initial_state, initial_locations, initial_scheduler):
        processes = tuple(processes)
        if not processes:
            raise PreconditionViolated("need at least one process")
        m = len(processes)
        if not 1 <= initial_scheduler <= m:
            raise PreconditionViolated("scheduler index out of range (1-based)")
        initial_locations = tuple(initial_locations)
        if len(initial_locations) != m:
            raise PreconditionViolated("need one initial location per process")
        validated = []
        for k, p in enumerate(processes):
            locations = tuple(p.locations)
            if not locations or len(set(locations)) != len(locations):
                raise PreconditionViolated(f"locations of process {k + 1} must be nonempty and unique")
            if initial_locations[k] not in locations:
                raise PreconditionViolated(f"initial location of process {k + 1} unknown")

            def known_target(t, locations=locations):
                return isinstance(t, tuple) and len(t) == 2 and t[0] in locations and t[1] in range(1, m + 1)

            acts = _checked_acts(p.act, locations, dim, f" of process {k + 1}", known_target)
            validated.append(ConcurrentProcess(locations, acts))
        _validate_density(initial_state, dim, "initial state")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "processes", tuple(validated))
        object.__setattr__(self, "initial_state", initial_state)
        object.__setattr__(self, "initial_locations", initial_locations)
        object.__setattr__(self, "initial_scheduler", initial_scheduler)
        products = itertools.product(*(p.locations for p in validated))
        object.__setattr__(self, "_configs", tuple((locs, s) for locs in products for s in range(1, m + 1)))

    def __setattr__(self, name, value):
        raise AttributeError("ConcurrentProgram is immutable")

    @property
    def deterministic(self) -> bool:
        return all(len(choices) == 1 for _, choices in self._selector_domain())

    def configs(self) -> tuple:
        return self._configs

    def config_index(self, config) -> int:
        locs, s = config
        idx = 0
        for k, p in enumerate(self.processes):
            idx = idx * len(p.locations) + p.locations.index(locs[k])
        return idx * len(self.processes) + (s - 1)

    def initial_config(self):
        return (self.initial_locations, self.initial_scheduler)

    def _selector_domain(self):
        return [
            ((k, j, loc), targets)
            for k, p in enumerate(self.processes)
            for loc in p.locations
            for j, targets in p.act[loc].next.items()
        ]

    def _action(self, config) -> LocationAction:
        """The action of the scheduled process at its location."""
        locs, s = config
        return self.processes[s - 1].act[locs[s - 1]]

    def _target(self, config, selector, j):
        """The scheduled process's move and the next scheduled process."""
        locs, s = config
        loc_t, sched_t = selector[(s - 1, j, locs[s - 1])]
        return (locs[: s - 1] + (loc_t,) + locs[s:], sched_t)


class CQState:
    """A block-sparse classical-quantum state: one PSD block per configuration."""

    __slots__ = ("dim", "blocks")

    def __init__(self, dim, blocks, validate: bool = True):
        pruned = {}
        for config, block in blocks.items():
            if block.is_zero():
                continue
            if validate:
                if block.rows != dim or block.cols != dim:
                    raise MalformedState("block has the wrong dimension")
                if not is_psd(block):
                    raise MalformedState(f"block at {config} is not PSD")
            pruned[config] = block
        if validate:
            total = sum((b.trace().re for b in pruned.values()), Fraction(0))
            if total != 1 or any(b.trace().im != 0 for b in pruned.values()):
                raise MalformedState(f"total trace is {total}, not one")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "blocks", pruned)

    def __setattr__(self, name, value):
        raise AttributeError("CQState is immutable")

    def block(self, config) -> Mat:
        return self.blocks.get(config, Mat.zeros(self.dim))

    def trace_of(self, config) -> Fraction:
        b = self.blocks.get(config)
        return b.trace().re if b is not None else Fraction(0)

    def key(self):
        return tuple(sorted((repr(c), b.key()) for c, b in self.blocks.items()))

    def __eq__(self, other):
        if not isinstance(other, CQState):
            return NotImplemented
        return self.dim == other.dim and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        parts = ", ".join(f"{c}: tr {b.trace()!r}" for c, b in sorted(self.blocks.items(), key=lambda kv: repr(kv[0])))
        return f"CQState({parts})"


def initial_cq(program) -> CQState:
    """The initial state, unchecked: the program's constructor checked it."""
    return CQState(program.dim, {program.initial_config(): program.initial_state}, validate=False)


# ----------------------------------------------------------------------
# transition semantics


def _selector_assignments(program, cap):
    domain = program._selector_domain()
    branching = [(key, choices) for key, choices in domain if len(choices) > 1]
    count = 1
    for _, choices in branching:
        count *= len(choices)
        if count > cap:
            raise SelectorExplosion(f"selector count exceeds the cap of {cap}")
    fixed = {key: choices[0] for key, choices in domain if len(choices) == 1}
    if not branching:
        return [fixed]
    selectors = []
    keys = [key for key, _ in branching]
    for combo in itertools.product(*[choices for _, choices in branching]):
        sel = dict(fixed)
        sel.update(zip(keys, combo))
        selectors.append(sel)
    return selectors


def _step_with_selector(program, state: CQState, selector) -> CQState:
    out = {}
    for config, rho in state.blocks.items():
        a = program._action(config)
        mid = a.channel.apply(rho)
        for j, m_op in enumerate(a.measurement.operators):
            piece = m_op @ mid @ m_op.dagger()
            if piece.is_zero():
                continue
            tgt = program._target(config, selector, j)
            out[tgt] = out[tgt] + piece if tgt in out else piece
    return CQState(program.dim, out, validate=False)


def _check_state_fits(program, state: CQState):
    if state.dim != program.dim:
        raise MalformedState("state dimension does not match the program")
    for config in state.blocks:
        try:
            program.config_index(config)
        except (ValueError, KeyError, TypeError):
            raise MalformedState(f"unknown configuration {config}")


def successors(program, state: CQState):
    """All one-step successors, one per selector, deduplicated by value."""
    unique = {}
    for nxt in selector_successors(program, state, DEFAULT_SELECTOR_CAP):
        unique.setdefault(nxt.key(), nxt)
    return list(unique.values())


def selector_successors(program, state: CQState, cap: int = DEFAULT_SELECTOR_CAP):
    """One successor per selector, in selector order, without deduplication.

    Distinct selectors can resolve to equal states; scheduler enumeration
    (simulation traces) keeps them apart, satisfaction analysis does not.
    """
    _check_state_fits(program, state)
    return [
        _step_with_selector(program, state, sel)
        for sel in _selector_assignments(program, cap)
    ]


def simulate_deterministic(program, steps: int):
    """Exact state trajectory sigma_0 .. sigma_steps of a deterministic program."""
    if not program.deterministic:
        raise NotDeterministic("trajectory simulation needs a deterministic program")
    sel = _selector_assignments(program, 1)[0]
    trajectory = [initial_cq(program)]
    for _ in range(steps):
        trajectory.append(_step_with_selector(program, trajectory[-1], sel))
    return trajectory


# ----------------------------------------------------------------------
# embedding into one big space H (x) configurations


def coordinates(program, config) -> range:
    """Where a configuration's block sits in the embedded space: entry h of
    the block of configuration number c (``config_index``) at h |configs| + c."""
    n_configs = len(program.configs())
    return range(program.config_index(config), program.dim * n_configs, n_configs)


def place_blocks(program, blocks: dict) -> Mat:
    """The block-diagonal operator on the embedded space with the d x d
    block ``blocks[c]`` on the coordinates of configuration c."""
    size = program.dim * len(program.configs())
    den = math.lcm(1, *(b.den for b in blocks.values()))
    re, im = np.zeros((2, size, size), dtype=object)
    for config, block in blocks.items():
        at = np.ix_(coordinates(program, config), coordinates(program, config))
        re[at] = block.num_re * (den // block.den)
        im[at] = block.num_im * (den // block.den)
    # in lowest terms, as each block is, with no gcd sweep: a prime p
    # dividing den divides some block's denominator as often, so that
    # block's scale den // block.den is prime to p, and its numerators,
    # not all multiples of p, stay so
    return Mat(re, im, den, _normalized=True, _real=all(b.is_real() for b in blocks.values()))


def place_subspaces(program, blocks: dict) -> Subspace:
    """The direct sum of ``blocks`` (configuration -> subspace of C^d, zero
    where missing) on the embedded space, with no elimination: placing keeps
    a block's entry order and configurations share no coordinate, so the
    placed RREF rows sorted by pivot are the RREF of the sum."""
    size = program.dim * len(program.configs())
    placed = [(coordinates(program, c), sub) for c, sub in blocks.items() if not sub.is_zero()]
    pivots = sorted(at[h] for at, sub in placed for h in sub.pivots)
    if all(sub.is_coordinate() for _, sub in placed):
        return Subspace(size, None, tuple(pivots))
    den = math.lcm(*(sub.rref.den for _, sub in placed))
    re, im = np.zeros((2, len(pivots), size), dtype=object)
    for at, sub in placed:
        rows = np.ix_(np.searchsorted(pivots, [at[h] for h in sub.pivots]), at)
        re[rows] = sub.rref.num_re * (den // sub.rref.den)
        im[rows] = sub.rref.num_im * (den // sub.rref.den)
    return Subspace(size, Mat(re, im, den, _real=all(sub.rref.is_real() for _, sub in placed)), tuple(pivots))


def embed(state: CQState, program) -> Mat:
    """Block-diagonal embedding: each configuration's block on its own
    coordinates (``place_blocks``)."""
    return place_blocks(program, state.blocks)


def extract(m: Mat, program) -> CQState:
    """Inverse of embed; raises NonClassicalCoherence on off-diagonal blocks."""
    configs = program.configs()
    size = program.dim * len(configs)
    if m.rows != size or m.cols != size:
        raise DimensionMismatch("matrix does not match the embedded space")
    blocks = {c: m[np.ix_(coordinates(program, c), coordinates(program, c))] for c in configs}
    state = CQState(program.dim, blocks, validate=False)
    if embed(state, program) != m:
        raise NonClassicalCoherence("matrix has coherences between configurations")
    return state


def outcome_channels(program, config) -> list:
    """One step at a configuration: [(j, M_j o E)] in outcome order, over
    the outcomes j with M_j != 0 (even where every M_j K is zero), each the
    d x d channel of the operators M_j K_1, ..., M_j K_m over the Kraus
    operators K of the configuration's channel E.  Each is composed on the
    Kraus stacks (:meth:`SuperOp.compose`), of M_j split off the
    measurement's and of E: no Kraus or measurement Mat is formed."""
    a = program._action(config)
    return [(j, m.compose(a.channel)) for j, m in a.measurement.operator_channels()]


def _selector_channels(program, selectors) -> list:
    """One channel per selector: each configuration's
    :func:`outcome_channels`, placed from it to the selector's target of
    each outcome; or BudgetExceeded before any is placed when their Kraus
    operators would hold more than ``_GRID_ENTRIES_MAX`` entries as dense
    grids.  The outcome channels depend on the configuration's action
    alone, which configurations of a concurrent program share (those at
    which the scheduled process sits at one location), so they are
    computed once per distinct action, at its first configuration.  The
    count reads the outcome channels' stacks, so no Kraus Mat is formed
    for it."""
    size = program.dim * len(program.configs())
    by_action = {}
    table = []
    for c in program.configs():
        key = id(program._action(c))
        if key not in by_action:
            by_action[key] = outcome_channels(program, c)
        table.append((c, by_action[key]))
    grids = len(selectors) * sum(e._stack.n_ops for _, row in table for _, e in row)
    if grids * size * size > _GRID_ENTRIES_MAX:
        raise BudgetExceeded(
            f"the one-step channels need {grids} dense {size}x{size} Kraus operators "
            f"({grids * size * size} entries); the limit is {_GRID_ENTRIES_MAX} entries"
        )
    at = {c: coordinates(program, c) for c, _ in table}
    return [
        SuperOp.placed(size, [(at[program._target(c, sel, j)], at[c], e) for c, row in table for j, e in row])
        for sel in selectors
    ]


def step_superop(program) -> SuperOp:
    """The single trace-preserving channel that advances a deterministic program."""
    if not program.deterministic:
        raise NotDeterministic("only deterministic programs step by one channel")
    return _selector_channels(program, _selector_assignments(program, 1))[0]


class QuantumAutomaton:
    """Finitely many named trace-preserving actions plus an initial state.

    ``_support`` holds the support of the initial state once it is known:
    from the validation when the state has full rank, else from the first
    query that needs it (``checker._initial_support``)."""

    __slots__ = ("dim", "actions", "initial_state", "_support")

    def __init__(self, dim, actions, initial_state, validate: bool = True):
        actions = dict(actions)
        if not actions:
            raise PreconditionViolated("automaton needs at least one action")
        support = None
        if validate:
            for name, e in actions.items():
                if e.dim_in != dim or e.dim_out != dim:
                    raise DimensionMismatch(f"action {name} has wrong dimension")
                if not e.is_trace_preserving():
                    raise PreconditionViolated(f"action {name} is not trace preserving")
            if _validate_density(initial_state, dim, "initial state") == dim:
                support = Subspace.full(dim)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "initial_state", initial_state)
        object.__setattr__(self, "_support", support)

    def __setattr__(self, name, value):
        raise AttributeError("QuantumAutomaton is immutable")

    def __repr__(self):
        return f"QuantumAutomaton({len(self.actions)} actions on dim {self.dim})"


def _selector_name(program, selector):
    parts = [f"{key}->{selector[key]}" for key, choices in program._selector_domain() if len(choices) > 1]
    return ";".join(parts) or "step"


def to_automaton(program) -> QuantumAutomaton:
    """One trace-preserving action per whole-step selector, on the embedded
    space, placed from d x d channels (no D x D product or grid)."""
    selectors = _selector_assignments(program, DEFAULT_SELECTOR_CAP)
    channels = _selector_channels(program, selectors)
    actions = {_selector_name(program, sel): e for sel, e in zip(selectors, channels)}
    emb = embed(initial_cq(program), program)
    return QuantumAutomaton(emb.rows, actions, emb, validate=False)
