"""Location-based quantum program models and their execution semantics.

A sequential program associates each location with a trace-preserving
channel, a measurement, and a set-valued next-location map: one step applies
the channel of the current location, measures, and relabels according to the
outcome.  Concurrent programs carry one location register per process plus a
scheduler register; the scheduled process acts, the others idle.

Nondeterminism is resolved by whole-step selectors: a selector fixes one
choice for every (outcome, location) pair, and each selector induces one
successor state (respectively one trace-preserving action of the derived
automaton).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DimensionMismatch,
    MalformedState,
    NonClassicalCoherence,
    NotDeterministic,
    PreconditionViolated,
    SelectorExplosion,
)
from .linalg import Mat, is_psd, kron, mat_sum
from .superop import Measurement, SuperOp

DEFAULT_SELECTOR_CAP = 4096


@dataclass(frozen=True)
class LocationAction:
    """Channel, measurement and outcome-indexed next-location choices."""

    channel: SuperOp
    measurement: Measurement
    next: dict  # outcome -> tuple of targets (labels, or (label, scheduler))


def _validate_density(rho: Mat, dim: int, what: str):
    if rho.rows != dim or rho.cols != dim:
        raise DimensionMismatch(f"{what} must be {dim}x{dim}")
    if not is_psd(rho):
        raise PreconditionViolated(f"{what} is not positive semidefinite")
    # trace one on the grid: the real diagonal numerators sum to the
    # denominator (a Hermitian diagonal is real)
    if sum(rho.num_re.diagonal().tolist()) != rho.den:
        raise PreconditionViolated(f"{what} must have trace one")


def _pad_act(act: LocationAction, n_outcomes: int, self_target) -> LocationAction:
    measurement = act.measurement.padded(n_outcomes)
    nxt = dict(act.next)
    for j in range(n_outcomes):
        if j not in nxt or not nxt[j]:
            # padded outcomes carry no mass; park them on the location itself
            nxt[j] = (self_target,)
        else:
            nxt[j] = tuple(nxt[j])
    return LocationAction(act.channel, measurement, nxt)


class SequentialProgram:
    """Locations, per-location dynamics and a set-valued control flow map."""

    __slots__ = (
        "dim",
        "locations",
        "act",
        "initial_state",
        "initial_location",
        "exit_location",
        "n_outcomes",
    )

    def __init__(self, dim, locations, act, initial_state, initial_location, exit_location=None):
        locations = tuple(locations)
        if not locations or len(set(locations)) != len(locations):
            raise PreconditionViolated("locations must be nonempty and unique")
        if initial_location not in locations:
            raise PreconditionViolated("initial location is not a location")
        if exit_location is not None and exit_location not in locations:
            raise PreconditionViolated("exit location is not a location")
        n_outcomes = max(len(a.measurement) for a in act.values())
        padded = {}
        for loc in locations:
            if loc not in act:
                raise PreconditionViolated(f"location {loc} has no action")
            a = _pad_act(act[loc], n_outcomes, loc)
            if a.channel.dim_in != dim or a.channel.dim_out != dim:
                raise DimensionMismatch(f"channel at {loc} has wrong dimension")
            if not a.channel.is_trace_preserving():
                raise PreconditionViolated(f"channel at {loc} is not trace preserving")
            if a.measurement.dim != dim:
                raise DimensionMismatch(f"measurement at {loc} has wrong dimension")
            for j in range(n_outcomes):
                targets = a.next.get(j)
                if not targets:
                    raise PreconditionViolated(f"next({j}, {loc}) is empty")
                for t in targets:
                    if t not in locations:
                        raise PreconditionViolated(f"next({j}, {loc}) targets unknown {t}")
            padded[loc] = a
        _validate_density(initial_state, dim, "initial state")
        if exit_location is not None:
            e = padded[exit_location]
            if not e.channel.is_identity():
                raise PreconditionViolated("exit channel must be the identity channel")
            if e.measurement != Measurement.trivial(dim, n_outcomes):
                raise PreconditionViolated("exit measurement must be {I, 0, ..., 0}")
            if any(e.next[j] != (exit_location,) for j in range(n_outcomes)):
                raise PreconditionViolated("exit location must loop to itself")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "locations", locations)
        object.__setattr__(self, "act", padded)
        object.__setattr__(self, "initial_state", initial_state)
        object.__setattr__(self, "initial_location", initial_location)
        object.__setattr__(self, "exit_location", exit_location)
        object.__setattr__(self, "n_outcomes", n_outcomes)

    def __setattr__(self, name, value):
        raise AttributeError("SequentialProgram is immutable")

    # ------------------------------------------------------------------

    @property
    def deterministic(self) -> bool:
        return all(
            len(targets) == 1 for a in self.act.values() for targets in a.next.values()
        )

    def configs(self):
        return list(self.locations)

    def config_index(self, config) -> int:
        return self.locations.index(config)

    def initial_config(self):
        return self.initial_location

    def with_initial_state(self, rho: Mat) -> "SequentialProgram":
        return SequentialProgram(
            self.dim, self.locations, self.act, rho, self.initial_location, self.exit_location
        )

    def _selector_domain(self):
        return [
            ((j, loc), self.act[loc].next[j])
            for loc in self.locations
            for j in range(self.n_outcomes)
        ]

    def _step_targets(self, config, selector):
        loc = config
        a = self.act[loc]
        return a, lambda j: selector[(j, loc)]


class ConcurrentProcess:
    """One process of a concurrent program: its locations and local actions."""

    __slots__ = ("locations", "act")

    def __init__(self, locations, act):
        locations = tuple(locations)
        if not locations or len(set(locations)) != len(locations):
            raise PreconditionViolated("process locations must be nonempty and unique")
        object.__setattr__(self, "locations", locations)
        object.__setattr__(self, "act", dict(act))

    def __setattr__(self, name, value):
        raise AttributeError("ConcurrentProcess is immutable")


class ConcurrentProgram:
    """Shared register, one control component per process, and a scheduler."""

    __slots__ = (
        "dim",
        "processes",
        "initial_state",
        "initial_locations",
        "initial_scheduler",
        "n_outcomes",
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
        n_outcomes = max(
            len(p.act[loc].measurement) for p in processes for loc in p.locations
        )
        validated = []
        for k, p in enumerate(processes):
            if initial_locations[k] not in p.locations:
                raise PreconditionViolated(f"initial location of process {k + 1} unknown")
            acts = {}
            for loc in p.locations:
                a = _pad_act(p.act[loc], n_outcomes, (loc, k + 1))
                if a.channel.dim_in != dim or a.channel.dim_out != dim:
                    raise DimensionMismatch("process channel has wrong dimension")
                if not a.channel.is_trace_preserving():
                    raise PreconditionViolated("process channel is not trace preserving")
                for j in range(n_outcomes):
                    for t in a.next[j]:
                        loc_t, sched_t = t
                        if loc_t not in p.locations or not 1 <= sched_t <= m:
                            raise PreconditionViolated(f"bad target {t} at {loc}")
                acts[loc] = a
            validated.append(ConcurrentProcess(p.locations, acts))
        _validate_density(initial_state, dim, "initial state")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "processes", tuple(validated))
        object.__setattr__(self, "initial_state", initial_state)
        object.__setattr__(self, "initial_locations", initial_locations)
        object.__setattr__(self, "initial_scheduler", initial_scheduler)
        object.__setattr__(self, "n_outcomes", n_outcomes)

    def __setattr__(self, name, value):
        raise AttributeError("ConcurrentProgram is immutable")

    @property
    def deterministic(self) -> bool:
        return all(
            len(targets) == 1
            for p in self.processes
            for a in p.act.values()
            for targets in a.next.values()
        )

    def configs(self):
        loc_axes = [p.locations for p in self.processes]
        m = len(self.processes)
        return [
            (locs, s)
            for locs in itertools.product(*loc_axes)
            for s in range(1, m + 1)
        ]

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
            ((k, j, loc), self.processes[k].act[loc].next[j])
            for k in range(len(self.processes))
            for loc in self.processes[k].locations
            for j in range(self.n_outcomes)
        ]

    def _step_targets(self, config, selector):
        locs, s = config
        k = s - 1
        loc = locs[k]
        a = self.processes[k].act[loc]

        def target(j):
            loc_t, sched_t = selector[(k, j, loc)]
            new_locs = locs[:k] + (loc_t,) + locs[k + 1 :]
            return (new_locs, sched_t)

        return a, target


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

    def total_trace(self) -> Fraction:
        return sum((b.trace().re for b in self.blocks.values()), Fraction(0))

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
    return CQState(program.dim, {program.initial_config(): program.initial_state})


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
        a, target = program._step_targets(config, selector)
        mid = a.channel.apply(rho)
        for j, m_op in enumerate(a.measurement.operators):
            piece = m_op @ mid @ m_op.dagger()
            if piece.is_zero():
                continue
            tgt = target(j)
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


def successors(program, state: CQState, cap: int = DEFAULT_SELECTOR_CAP):
    """All one-step successors, one per selector, deduplicated by value."""
    unique = {}
    for nxt in selector_successors(program, state, cap):
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


def embed(state: CQState, program) -> Mat:
    """Block-diagonal embedding: the block of config c occupies stride c."""
    configs = program.configs()
    n_configs = len(configs)
    pieces = [Mat.zeros(program.dim * n_configs)]
    for config, block in state.blocks.items():
        c = program.config_index(config)
        pieces.append(kron(block, Mat.unit(n_configs, c, c)))
    return mat_sum(pieces)


def extract(m: Mat, program) -> CQState:
    """Inverse of embed; raises NonClassicalCoherence on off-diagonal blocks."""
    configs = program.configs()
    n_configs = len(configs)
    d = program.dim
    if m.rows != d * n_configs or m.cols != d * n_configs:
        raise DimensionMismatch("matrix does not match the embedded space")
    blocks = {config: m[c::n_configs, c::n_configs] for c, config in enumerate(configs)}
    state = CQState(program.dim, blocks, validate=False)
    if embed(state, program) != m:
        raise NonClassicalCoherence("matrix has coherences between configurations")
    return state


def _selector_kraus(program, selector) -> list:
    """Kraus set of the one-step channel induced by a selector."""
    configs = program.configs()
    n_configs = len(configs)
    kraus = []
    for c, config in enumerate(configs):
        a, target = program._step_targets(config, selector)
        for j, m_op in enumerate(a.measurement.operators):
            if m_op.is_zero():
                continue
            t = program.config_index(target(j))
            shift = Mat.unit(n_configs, t, c)
            for body in a.channel.kraus:
                kraus.append(kron(m_op @ body, shift))
    return kraus


def step_superop(program) -> SuperOp:
    """The single trace-preserving channel that advances a deterministic program."""
    if not program.deterministic:
        raise NotDeterministic("only deterministic programs step by one channel")
    sel = _selector_assignments(program, 1)[0]
    return SuperOp(_selector_kraus(program, sel), validate=None)


class QuantumAutomaton:
    """Finitely many named trace-preserving actions plus an initial state."""

    __slots__ = ("dim", "actions", "initial_state")

    def __init__(self, dim, actions, initial_state, validate: bool = True):
        actions = dict(actions)
        if not actions:
            raise PreconditionViolated("automaton needs at least one action")
        if validate:
            for name, e in actions.items():
                if e.dim_in != dim or e.dim_out != dim:
                    raise DimensionMismatch(f"action {name} has wrong dimension")
                if not e.is_trace_preserving():
                    raise PreconditionViolated(f"action {name} is not trace preserving")
            _validate_density(initial_state, dim, "initial state")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "initial_state", initial_state)

    def __setattr__(self, name, value):
        raise AttributeError("QuantumAutomaton is immutable")

    def action_names(self):
        return sorted(self.actions)

    def __repr__(self):
        return f"QuantumAutomaton({len(self.actions)} actions on dim {self.dim})"


def _selector_name(program, selector):
    domain = program._selector_domain()
    parts = []
    for key, choices in domain:
        if len(choices) > 1:
            parts.append(f"{key}->{selector[key]}")
    return "step" if not parts else ";".join(parts)


def to_automaton(program, cap: int = DEFAULT_SELECTOR_CAP) -> QuantumAutomaton:
    """One trace-preserving action per whole-step selector, on the embedded space."""
    selectors = _selector_assignments(program, cap)
    actions = {}
    for sel in selectors:
        name = _selector_name(program, sel)
        actions[name] = SuperOp(_selector_kraus(program, sel), validate=None)
    emb = embed(initial_cq(program), program)
    return QuantumAutomaton(
        program.dim * len(program.configs()), actions, emb, validate=False
    )


# ----------------------------------------------------------------------
# termination


@dataclass(frozen=True)
class TerminationResult:
    kind: str  # "terminates" | "almost_candidate" | "no"
    step: int | None
    final_exit_trace: Fraction


def check_terminates(program: SequentialProgram, horizon: int | None = None) -> TerminationResult:
    """Exact termination within a horizon, read off the program's exit loop.

    The horizon defaults to, and is capped at, the loop's bound dim*|L| - 1:
    the joint support of the off-exit states from step k on can only shrink
    with k, and once it stops shrinking it never vanishes, so a program that
    terminates exactly does so by step dim*(|L| - 1).  "terminates" carries
    the first step with exit mass exactly one (0 for a program starting at
    its exit).  No exit mass at all by the bound means none ever ("no");
    otherwise the verdict is a candidate for almost-termination, to be
    certified by reachability analysis.
    """
    from .qwhile import bohm_jacopini  # qwhile builds on this module

    loop = bohm_jacopini(program)
    horizon = loop.bound if horizon is None else min(max(horizon, 0), loop.bound)
    traces = [s.trace_of(program.exit_location) for s in loop.trajectory[: horizon + 1]]
    step = next((k for k, tr in enumerate(traces) if tr == 1), None)
    if step is not None:
        return TerminationResult("terminates", step, traces[step])
    if horizon == loop.bound and not any(traces):
        return TerminationResult("no", None, traces[-1])
    return TerminationResult("almost_candidate", None, traces[-1])
